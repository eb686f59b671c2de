"""Helmholtz decomposition of net flows into gradient and circular parts.

For a chosen link weight B (flow f or frequency g) the antisymmetric net
flow is F_ij = B_ij - B_ji and the symmetric pair weight is
w_ij = A_ij + A_ji, so w is 2 on mutual links and 1 on one-way links.
The decomposition F = F_circ + F_grad writes the gradient part as
F_grad_ij = w_ij (phi_i - phi_j) with per-node potentials phi solving the
graph-Laplacian system L phi = div F; the circular remainder is
divergence-free at every node.

L is block-diagonal over the weak components and its kernel holds the
constants on each of them, so every component gets its own zero-mean
gauge.  One Jacobi-preconditioned conjugate-gradient solve over the
whole graph finds all the components' potentials at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .bowtie import COMPONENT_NAMES, GSCC, IN, OUT, OUTSIDE, TE, BowtiePartition, _components
from .errors import ConvergenceError
from .network import FlowNetwork, _pearson, degree_stats, net_flow_per_node

# scipy.sparse is imported inside the functions that build sparse matrices,
# so importing the package does not load it
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


@dataclass(frozen=True)
class HodgeProblem:
    """Assembled sparse system for one network and weight choice.

    F is antisymmetric (F = B - B^T), w symmetric with entries in {1, 2}
    on linked pairs, and every row of L = diag(w 1) - w sums to zero.
    """

    n: int
    weight_kind: str
    F: sp.csr_matrix
    w: sp.csr_matrix
    laplacian: sp.csr_matrix
    divergence: np.ndarray

    @cached_property
    def components(self) -> tuple[np.ndarray, int]:
        """Weak-connectivity labels of the w graph (isolated nodes allowed).

        Numbered by smallest member index, as the bowtie components are.
        """
        return _components(self.w, directed=False)


def assemble_problem(net: FlowNetwork, kind: str = "frequency") -> HodgeProblem:
    """Build F, w, L and the divergence vector for the chosen weight."""
    import scipy.sparse as sp

    if net.n_nodes == 0:
        raise ValueError("cannot assemble a Hodge problem for an empty network")
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}")
    n = net.n_nodes
    b_data = net.weights(kind).astype(np.float64)
    B = sp.csr_matrix((b_data, (net.src, net.dst)), shape=(n, n))
    A = net.adjacency
    F = (B - B.T).tocsr()
    w = (A + A.T).tocsr()
    deg = np.asarray(w.sum(axis=1)).ravel()
    laplacian = (sp.diags(deg) - w).tocsr()
    divergence = np.asarray(F.sum(axis=1)).ravel()
    return HodgeProblem(
        n=n, weight_kind=kind, F=F, w=w, laplacian=laplacian, divergence=divergence
    )


def solve_potentials(problem: HodgeProblem, tol: float = 1e-10) -> np.ndarray:
    """Solve L phi = div F with a zero-mean gauge on every weak component.

    L is block-diagonal over the components, so one Jacobi-preconditioned
    CG solves them all.  Each component's right-hand side is centred and
    scaled to unit norm first, so a residual of at most tol on the whole
    scaled system bounds every component's relative residual by tol.
    Raises :class:`ConvergenceError`, carrying the worst component's
    relative residual, when the iteration cap is hit first.
    """
    return _solve(problem, tol)[0]


def _solve(problem: HodgeProblem, tol: float) -> tuple[np.ndarray, int, float]:
    """solve_potentials' phi, the CG iterations it took and the worst
    component's relative residual."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import cg

    labels, ncomp = problem.components
    size = np.bincount(labels, minlength=ncomp)
    b = problem.divergence - (np.bincount(labels, problem.divergence, ncomp) / size)[labels]
    norm = np.sqrt(np.bincount(labels, b * b, ncomp))
    scale = np.where(norm > 0.0, norm, 1.0)[labels]
    b /= scale
    L = problem.laplacian
    diag = L.diagonal()
    inv_diag = np.divide(1.0, diag, out=np.ones_like(diag), where=diag > 0.0)
    cap = max(_CG_ITER_PER_NODE * problem.n, _CG_MIN_ITER)
    iterations = 0

    def count(_) -> None:
        nonlocal iterations
        iterations += 1

    x, info = cg(L, b, rtol=0.0, atol=tol, maxiter=cap, M=sp.diags(inv_diag), callback=count)
    r = b - L @ x
    worst = float(np.sqrt(np.bincount(labels, r * r, ncomp).max()))
    if info != 0:
        raise ConvergenceError(
            f"CG stalled at relative residual {worst:.3e} (target {tol:.1e})",
            residual=worst,
        )
    x *= scale
    x -= (np.bincount(labels, x, ncomp) / size)[labels]
    return x, iterations, worst


@dataclass(frozen=True)
class HodgeDecomposition:
    """Potentials and the gradient/circular flow split.

    gradient and circular are sparse antisymmetric matrices on the same
    pattern as F; F = circular + gradient holds exactly because the
    circular part is defined as the remainder.  cg_iterations and
    cg_residual are the iterations of hodge_decompose's CG solve and the
    worst weak component's relative residual after it; both are None when
    phi was given to :func:`decompose`.
    """

    problem: HodgeProblem
    phi: np.ndarray
    gradient: sp.csr_matrix
    circular: sp.csr_matrix
    cg_iterations: int | None = None
    cg_residual: float | None = None

    def circular_divergence(self) -> np.ndarray:
        """Per-node divergence of the circular flow (near zero after a solve)."""
        return np.asarray(self.circular.sum(axis=1)).ravel()

    def link_table(self, net: FlowNetwork) -> np.ndarray:
        """F, F_gradient and F_circular per directed link, as float64 columns.

        Row k is link k of ``net`` (``net.src[k]`` -> ``net.dst[k]``); the
        array has shape ``(net.n_links, 3)``.
        """
        return np.column_stack([
            np.asarray(m[net.src, net.dst]).ravel()
            for m in (self.problem.F, self.gradient, self.circular)
        ])


def decompose(problem: HodgeProblem, phi: np.ndarray) -> HodgeDecomposition:
    """Split F into the gradient flow of phi and the circular remainder."""
    import scipy.sparse as sp

    coo = problem.w.tocoo()
    grad_data = coo.data * (phi[coo.row] - phi[coo.col])
    gradient = sp.csr_matrix((grad_data, (coo.row, coo.col)), shape=(problem.n, problem.n))
    circular = (problem.F - gradient).tocsr()
    return HodgeDecomposition(
        problem=problem, phi=phi, gradient=gradient, circular=circular
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
