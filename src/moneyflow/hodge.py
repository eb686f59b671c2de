"""Helmholtz decomposition of net flows into gradient and circular parts.

For a chosen link weight B (flow f or frequency g) the antisymmetric net
flow is F_ij = B_ij - B_ji and the symmetric pair weight is
w_ij = A_ij + A_ji, so w is 2 on mutual links and 1 on one-way links.
The decomposition F = F_circ + F_grad writes the gradient part as
F_grad_ij = w_ij (phi_i - phi_j) with per-node potentials phi solving the
graph-Laplacian system L phi = div F; the circular remainder is
divergence-free at every node.

Both matrices are antisymmetric or symmetric, so everything runs in numpy
on the linked pairs i < j: the divergence and the Laplacian product are
``np.bincount`` sums over the pairs, and a link's values are its pair's
with the link's sign.  L is block-diagonal over the weak components and
its kernel holds the constants on each of them, so every component gets
its own zero-mean gauge.  One Jacobi-preconditioned conjugate-gradient
loop solves all the components at once, as in HodgeRank's least-squares
solve (Jiang, Lim, Yao and Ye 2011), but with each component's own step
sizes and stopping test.  Every inner product is a per-component
``np.add.reduceat`` sum, so no BLAS call reaches phi and its bits do not
depend on the CPU's BLAS kernel.  scipy is imported only by the N x N
CSR views of F, w, L and the two parts, built on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .bowtie import COMPONENT_NAMES, GSCC, IN, OUT, OUTSIDE, TE, BowtiePartition, _weak_components
from .errors import ConvergenceError
from .network import FlowNetwork, _pearson, degree_stats, net_flow_per_node

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "WEIGHT_KINDS",
    "HodgeProblem",
    "HodgeDecomposition",
    "ConvergenceError",
    "assemble_problem",
    "solve_potentials",
    "decompose",
    "hodge_decompose",
    "potential_histograms",
    "potential_vs_net",
]

WEIGHT_KINDS = ("flow", "frequency")
# CG gives up after max(_CG_ITER_PER_NODE N, _CG_MIN_ITER) iterations
_CG_ITER_PER_NODE = 20
_CG_MIN_ITER = 100
# equal-width bins of the potential histograms
_POTENTIAL_BINS = 50


def _pair_matrix(n: int, lo: np.ndarray, hi: np.ndarray, upper: np.ndarray, lower: np.ndarray):
    """The N x N CSR matrix holding upper[p] at (lo[p], hi[p]) and lower[p]
    at (hi[p], lo[p])."""
    import scipy.sparse as sp

    rows, cols = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    return sp.csr_matrix((np.concatenate((upper, lower)), (rows, cols)), shape=(n, n))


@dataclass(frozen=True)
class HodgeProblem:
    """The system for one network and weight choice, on its linked pairs.

    Pair p joins nodes lo[p] < hi[p], in (lo, hi) order.  Its weight
    pair_weight[p] = w_lo,hi is 2 on a mutual pair and 1 on a one-way
    pair, and pair_flow[p] = F_lo,hi.  Link k of the network is pair
    link_pair[k]; link_sign[k] is 1 when the link runs lo -> hi and -1
    when it runs hi -> lo.  F, w and laplacian = diag(w 1) - w are the
    same as N x N CSR matrices, built on first access.
    """

    n: int
    weight_kind: str
    lo: np.ndarray
    hi: np.ndarray
    pair_weight: np.ndarray
    pair_flow: np.ndarray
    link_pair: np.ndarray
    link_sign: np.ndarray
    divergence: np.ndarray

    @cached_property
    def components(self) -> tuple[np.ndarray, int]:
        """Weak-connectivity labels of the w graph (isolated nodes allowed).

        Numbered by smallest member index, as the bowtie components are.
        """
        return _weak_components(self.n, self.lo, self.hi)

    @cached_property
    def degree(self) -> np.ndarray:
        """w 1, the diagonal of L."""
        return self.pair_sums(self.pair_weight, self.pair_weight)

    def pair_sums(self, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """Per-node row sums of the matrix with upper[p] at (lo, hi) and
        lower[p] at (hi, lo)."""
        return np.bincount(self.lo, upper, self.n) + np.bincount(self.hi, lower, self.n)

    @cached_property
    def F(self) -> sp.csr_matrix:
        return _pair_matrix(self.n, self.lo, self.hi, self.pair_flow, -self.pair_flow)

    @cached_property
    def w(self) -> sp.csr_matrix:
        return _pair_matrix(self.n, self.lo, self.hi, self.pair_weight, self.pair_weight)

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return (sp.diags(self.degree) - self.w).tocsr()


def assemble_problem(net: FlowNetwork, kind: str = "frequency") -> HodgeProblem:
    """Pair the links and build w, F and the divergence for the chosen weight."""
    if net.n_nodes == 0:
        raise ValueError("cannot assemble a Hodge problem for an empty network")
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}")
    n = net.n_nodes
    ends = np.minimum(net.src, net.dst) * n + np.maximum(net.src, net.dst)
    keys, link_pair = np.unique(ends, return_inverse=True)
    lo, hi = np.divmod(keys, n)
    link_sign = np.where(net.src < net.dst, 1.0, -1.0)
    b = net.weights(kind).astype(np.float64)
    pair_flow = np.bincount(link_pair, link_sign * b, keys.size)
    return HodgeProblem(
        n=n, weight_kind=kind, lo=lo, hi=hi,
        pair_weight=np.bincount(link_pair, minlength=keys.size).astype(np.float64),
        pair_flow=pair_flow, link_pair=link_pair, link_sign=link_sign,
        divergence=np.bincount(lo, pair_flow, n) - np.bincount(hi, pair_flow, n),
    )


def solve_potentials(problem: HodgeProblem, tol: float = 1e-10) -> np.ndarray:
    """Solve L phi = div F with a zero-mean gauge on every weak component.

    Each component's right-hand side is centred and scaled to unit norm,
    and the conjugate-gradient loop runs until every component's residual
    is below tol, so every component's relative residual is within tol.
    Raises :class:`ConvergenceError`, carrying the worst component's
    relative residual, when the iteration cap is hit first.
    """
    return _solve(problem, tol)[0]


def _solve(problem: HodgeProblem, tol: float) -> tuple[np.ndarray, int, float]:
    """solve_potentials' phi, the CG iterations it took and the worst
    component's relative residual.

    Jacobi-preconditioned CG on the nodes grouped by component, so that
    each component's inner products are one ``np.add.reduceat`` segment
    and its step sizes its own.  A component whose residual is below tol
    takes steps of 0 from then on.
    """
    labels, ncomp = problem.components
    n = problem.n
    order = np.argsort(labels, kind="stable")
    size = np.bincount(labels, minlength=ncomp)
    starts = np.cumsum(size) - size
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    # the pairs' ends as positions in the grouped order
    lo, hi, w = rank[problem.lo], rank[problem.hi], problem.pair_weight

    def per_component(values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values, starts)

    def laplacian_times(x: np.ndarray) -> np.ndarray:
        y = w * (x[lo] - x[hi])
        return np.bincount(lo, y, n) - np.bincount(hi, y, n)

    divergence = problem.divergence[order]
    b = divergence - np.repeat(per_component(divergence) / size, size)
    norm = np.sqrt(per_component(b * b))
    scale = np.repeat(np.where(norm > 0.0, norm, 1.0), size)
    b /= scale
    diag = problem.degree[order]
    inv_diag = np.divide(1.0, diag, out=np.ones_like(diag), where=diag > 0.0)
    cap = max(_CG_ITER_PER_NODE * n, _CG_MIN_ITER)

    def step(num: np.ndarray, den: np.ndarray, active: np.ndarray) -> np.ndarray:
        # 0 for a converged component and where den is 0: the first p is
        # z, and a component whose p^T L p vanishes stays where it is
        ok = active & (den != 0.0)
        return np.repeat(np.divide(num, den, out=np.zeros(ncomp), where=ok), size)

    x = np.zeros(n)
    r = b.copy()
    p = np.zeros(n)
    rho_prev = np.zeros(ncomp)
    iterations = 0
    # a NaN residual is not below tol, so it cannot pass for convergence
    while (active := ~(np.sqrt(per_component(r * r)) < tol)).any() and iterations < cap:
        z = inv_diag * r
        rho = per_component(r * z)
        p *= step(rho, rho_prev, active)
        p += z
        q = laplacian_times(p)
        alpha = step(rho, per_component(p * q), active)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        iterations += 1
    r = b - laplacian_times(x)
    worst = float(np.sqrt(per_component(r * r).max()))
    if active.any():
        raise ConvergenceError(
            f"CG stalled at relative residual {worst:.3e} (target {tol:.1e})",
            residual=worst,
        )
    x *= scale
    x -= np.repeat(per_component(x) / size, size)
    phi = np.empty(n)
    phi[order] = x
    return phi, iterations, worst


@dataclass(frozen=True)
class HodgeDecomposition:
    """Potentials and the gradient/circular flow split.

    On the problem's pairs, pair_gradient[p] = w (phi_lo - phi_hi) and
    pair_circular[p] is the remainder pair_flow[p] - pair_gradient[p], so
    F = circular + gradient; gradient and circular are the same as
    antisymmetric N x N CSR matrices, built on first access.
    cg_iterations and cg_residual are the iterations of hodge_decompose's
    CG solve and the worst weak component's relative residual after it;
    both are None when phi was given to :func:`decompose`.
    """

    problem: HodgeProblem
    phi: np.ndarray
    pair_gradient: np.ndarray
    pair_circular: np.ndarray
    cg_iterations: int | None = None
    cg_residual: float | None = None

    @cached_property
    def gradient(self) -> sp.csr_matrix:
        p = self.problem
        return _pair_matrix(p.n, p.lo, p.hi, self.pair_gradient, -self.pair_gradient)

    @cached_property
    def circular(self) -> sp.csr_matrix:
        p = self.problem
        return _pair_matrix(p.n, p.lo, p.hi, self.pair_circular, -self.pair_circular)

    def circular_divergence(self) -> np.ndarray:
        """Per-node divergence of the circular flow (near zero after a solve)."""
        return self.problem.pair_sums(self.pair_circular, -self.pair_circular)

    def link_table(self, net: FlowNetwork) -> np.ndarray:
        """F, F_gradient and F_circular per directed link, as float64 columns.

        Row k is link k of ``net`` (``net.src[k]`` -> ``net.dst[k]``); the
        array has shape ``(net.n_links, 3)``.
        """
        p = self.problem
        pairs = np.column_stack((p.pair_flow, self.pair_gradient, self.pair_circular))
        # a link run hi -> lo gets its pair's values negated, the same bits
        # as the differences taken the other way round; adding 0.0 turns a
        # -0.0 into 0.0
        return pairs[p.link_pair] * p.link_sign[:, None] + 0.0


def decompose(problem: HodgeProblem, phi: np.ndarray) -> HodgeDecomposition:
    """Split F into the gradient flow of phi and the circular remainder."""
    gradient = problem.pair_weight * (phi[problem.lo] - phi[problem.hi])
    return HodgeDecomposition(
        problem=problem, phi=phi, pair_gradient=gradient,
        pair_circular=problem.pair_flow - gradient,
    )


def hodge_decompose(
    net: FlowNetwork, kind: str = "frequency", tol: float = 1e-10
) -> HodgeDecomposition:
    """Assemble, solve and split; phi sums to zero on each weak component."""
    problem = assemble_problem(net, kind)
    phi, iterations, residual = _solve(problem, tol)
    return replace(decompose(problem, phi), cg_iterations=iterations, cg_residual=residual)


def potential_histograms(
    phi: np.ndarray, partition: BowtiePartition
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-component histograms of phi over _POTENTIAL_BINS shared
    equal-width bins.

    Returns (bin edges, {component name: counts}) for the four walnut
    classes; the binning spans [min phi, max phi] over the GWCC.
    """
    gwcc_mask = partition.labels != OUTSIDE
    values = phi[gwcc_mask]
    if values.size == 0:
        raise ValueError("partition has an empty GWCC")
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    edges = np.linspace(lo, hi, _POTENTIAL_BINS + 1)
    out: dict[str, np.ndarray] = {}
    for code in (GSCC, IN, OUT, TE):
        counts, _ = np.histogram(phi[partition.members(code)], bins=edges)
        out[COMPONENT_NAMES[code]] = counts
    return edges, out


@dataclass(frozen=True)
class PotentialCorrelations:
    """phi paired with net degree and net flow, plus Pearson correlations."""

    phi: np.ndarray
    net_degree: np.ndarray
    net_flow: np.ndarray
    r_net_degree: float
    r_net_flow: float


def potential_vs_net(phi: np.ndarray, net: FlowNetwork) -> PotentialCorrelations:
    """Pair each node's potential with its net degree and net money flow."""
    _, _, net_deg = degree_stats(net)
    net_flow = net_flow_per_node(net)
    return PotentialCorrelations(
        phi=phi,
        net_degree=net_deg,
        net_flow=net_flow,
        r_net_degree=_pearson(phi, net_deg.astype(np.float64)),
        r_net_flow=_pearson(phi, net_flow.astype(np.float64)),
    )
