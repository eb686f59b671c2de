"""Flow-based community detection by minimizing the map equation.

A weighted random walk follows out-links with probability 1 - tau and
teleports with probability tau (always, on dangling nodes); the teleport
landing distribution is proportional to out-strength.  The two-level map
equation scores a partition by the description length of that walk:

    L(M) = q H(exit module distribution)
           + sum_m (q_m + p_m) H(within-module visit distribution)

where p_i are stationary visit rates and q_m is the rate of leaving
module m (link steps and teleport steps both count).  The optimizer is a
greedy node-mover with module aggregation and seeded restarts, which
stop for a community once _PATIENCE in a row fail to improve it, applied
recursively inside each community to build a hierarchy; a community that
no split improves is irreducible.

Each level of the hierarchy is searched as one problem: the communities
to split are the blocks of one disjoint-union walk, which no link leaves,
so every block keeps its own q_tot, visit order and restarts, and gets
the labels a search of its walk alone would give.  Level 1 is the same
search with a single block.  The node-mover is queue-driven, as in
Leiden's fast local move: a pass visits every node in random order and
re-queues the neighbours of each node that moves.  When the queue
empties, one vectorised scan scores the same moves as the node-mover,
into a neighbour's module or an empty one, against the frozen module
state; only the nodes it flags are queued again, and a block's search
ends when it flags none of its nodes or a round of them moves nothing.
Every block's stationary vector comes from the same packed power
iteration; blocks of at most _EXACT_MAX nodes skip the search, and
their partitions come from scoring every set partition at once, by the
same evaluator as every other value.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import log2
from typing import Iterator

import numpy as np

from .errors import ConvergenceError
from .network import FlowNetwork

__all__ = [
    "TAU",
    "Walk",
    "EmptyModuleError",
    "build_walk",
    "map_equation_value",
    "Community",
    "CommunityTree",
    "LevelSearch",
    "detect_communities",
    "LevelRow",
    "CommunityReport",
    "community_report",
    "flat_table",
]

TAU = 0.15
# power iteration stops when the L1 change drops below _WALK_TOL
_WALK_TOL = 1e-14
_WALK_MAX_ITER = 10_000
# deepest community level: level-1 communities split down to level 5
_MAX_DEPTH = 5
# local-move rounds per call; the loop ends earlier when no candidate move gains
_MAX_PASSES = 200
_MIN_GAIN = 1e-12
# blocks of at most this many nodes are partitioned exhaustively
# (Bell(8) = 4,140 set partitions)
_EXACT_MAX = 8
# the most elements per array (256 KiB of float64) when blocks of one
# size are scored together; a block of 7 or 8 nodes is scored alone
_EXACT_CHUNK = 1 << 15
# a block's seeded restarts stop after this many in a row that do not
# lower its best value by more than _MIN_GAIN
_PATIENCE = 2


class EmptyModuleError(ValueError):
    """A partition contains a module with no members."""


def _plogp(x: float) -> float:
    return x * log2(x) if x > 0.0 else 0.0


def _plogp_vec(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log2(x[pos])
    return out


def _block_sums(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """x summed over each block, by the one rule every per-block sum uses.

    Blocks are never empty, so np.add.reduceat sums exactly
    x[offsets[b]:offsets[b + 1]], the same way whether or not other
    blocks share the array.
    """
    return np.add.reduceat(x, offsets[:-1])


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the ranges lo[i]:hi[i] packed side by side, and each
    range's shift: an index less its packed position."""
    size = hi - lo
    shift = lo - (np.cumsum(size) - size)
    return np.arange(int(size.sum())) + np.repeat(shift, size), shift


@dataclass(frozen=True)
class Walk:
    """Stationary walk quantities of disjoint blocks, closed under module
    aggregation.

    Block b holds nodes offsets[b]:offsets[b + 1]; no link leaves a
    block, and the links are grouped by block in block order.
    :func:`build_walk` returns a single block.  p: visit rates,
    summing to 1 in each block; a_i = p_i times the node's teleport
    probability (tau, or 1 on dangling nodes); t: teleport landing
    distribution, per block; src/dst/flow: stationary link-step rates
    p_src (1 - tau) w_e / s_src.  node_term[b] fixes block b's
    sum_i p_i log2 p_i at the original node resolution so aggregated
    evaluations stay comparable.
    """

    n: int
    p: np.ndarray
    a: np.ndarray
    t: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    flow: np.ndarray
    node_term: np.ndarray
    offsets: np.ndarray

    @cached_property
    def block(self) -> np.ndarray:
        """The block of each node."""
        return np.repeat(np.arange(self.offsets.size - 1), np.diff(self.offsets))

    @cached_property
    def link_offsets(self) -> np.ndarray:
        """Block b holds links link_offsets[b]:link_offsets[b + 1]."""
        return np.searchsorted(self.block[self.src], np.arange(self.offsets.size))


def build_walk(net: FlowNetwork, kind: str = "frequency") -> Walk:
    """Stationary distribution of the teleporting walk, as one block."""
    if net.n_links == 0:
        raise ValueError("network has no links; the walk is undefined")
    return _block_walk(net, np.array([0, net.n_nodes]), kind)


def _block_walk(net: FlowNetwork, offsets: np.ndarray, kind: str) -> Walk:
    """Stationary walks of the blocks of a disjoint union at once.

    Block b is union nodes offsets[b]:offsets[b + 1], and every block has
    a link.  All blocks, whatever their size, power-iterate together, one
    np.bincount of link steps per step, with teleportation,
    normalisation and the L1 change summed per block by np.add.reduceat,
    a lone block included; a block keeps the vector of the step whose L1
    change fell below _WALK_TOL.  Each step reads only the blocks still
    iterating, packed side by side and packed again when one
    converges.  Every per-node and per-block sum adds the same terms
    in the same order as for the block alone, so each block's walk is
    bit for bit the one :func:`build_walk` gives its subnetwork.
    """
    n = net.n_nodes
    sizes = np.diff(offsets)
    block = np.repeat(np.arange(sizes.size), sizes)
    w = net.weights(kind).astype(np.float64)
    s = np.bincount(net.src, weights=w, minlength=n)
    t = s / np.repeat(_block_sums(s, offsets), sizes)
    tau_eff = np.where(s > 0, TAU, 1.0)
    out_norm = w / s[net.src]
    link_block = block[net.src]
    link_offsets = np.searchsorted(link_block, np.arange(sizes.size + 1))
    p = 1.0 / sizes[block]
    live = np.arange(sizes.size)
    steps = 0
    while live.size and steps < _WALK_MAX_ITER:
        span = sizes[live]
        nodes, shifts = _ranges(offsets[live], offsets[live + 1])
        links, _ = _ranges(link_offsets[live], link_offsets[live + 1])
        link_shift = np.repeat(shifts, link_offsets[live + 1] - link_offsets[live])
        src, dst = net.src[links] - link_shift, net.dst[links] - link_shift
        norm = out_norm[links]
        starts = np.cumsum(span) - span
        local = np.repeat(np.arange(live.size), span)
        q, t_live, tau_live = p[nodes], t[nodes], tau_eff[nodes]
        while steps < _WALK_MAX_ITER:
            steps += 1
            link = np.bincount(dst, weights=q[src] * (1.0 - TAU) * norm, minlength=nodes.size)
            q_new = link + t_live * np.add.reduceat(q * tau_live, starts)[local]
            q_new /= np.add.reduceat(q_new, starts)[local]
            delta = np.add.reduceat(np.abs(q_new - q), starts)
            q = q_new
            done = delta < _WALK_TOL
            if done.any():
                break
        p[nodes] = q
        live = live[~done]
    if live.size:
        worst = float(delta[~done].max())
        raise ConvergenceError(
            f"stationary distribution did not converge in {_WALK_MAX_ITER} steps "
            f"(L1 change {worst:.1e}, target {_WALK_TOL:.0e})",
            residual=worst,
        )
    return Walk(
        n=n,
        p=p,
        a=p * tau_eff,
        t=t,
        src=net.src.copy(),
        dst=net.dst.copy(),
        flow=p[net.src] * (1.0 - TAU) * out_norm,
        node_term=_block_sums(_plogp_vec(p), offsets),
        offsets=offsets,
    )


def _module_sums(walk: Walk, labels: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """Per-module P, A, T, exit flow OUT and exit rate q over m module ids."""
    P = np.bincount(labels, weights=walk.p, minlength=m)
    A = np.bincount(labels, weights=walk.a, minlength=m)
    T = np.bincount(labels, weights=walk.t, minlength=m)
    ext = labels[walk.src] != labels[walk.dst]
    OUT = np.bincount(labels[walk.src[ext]], weights=walk.flow[ext], minlength=m)
    return P, A, T, OUT, A * (1.0 - T) + OUT


def _value_for(walk: Walk, labels: np.ndarray) -> float:
    """Exact four-term evaluation of the map equation of a one-block walk."""
    if np.any(np.bincount(labels) == 0):
        raise EmptyModuleError("partition assigns no nodes to some module id")
    return float(_block_values(walk, labels, int(labels.max()) + 1)[0])


def _block_values(walk: Walk, labels: np.ndarray, m: int) -> np.ndarray:
    """Map-equation value of every block over m module ids, for labels
    that keep each block's module ids within its own node range.

    A block's value sums over its node range of module ids, so for the
    all-singletons labels it equals :func:`_value_for` of that block
    alone.
    """
    P, _, _, _, q = _module_sums(walk, labels, m)
    off = walk.offsets
    return (
        _plogp_vec(_block_sums(q, off))
        - 2.0 * _block_sums(_plogp_vec(q), off)
        + _block_sums(_plogp_vec(q + P), off)
        - walk.node_term
    )


def map_equation_value(net: FlowNetwork, labels, kind: str = "frequency") -> float:
    """Description length (bits) of the walk under the given partition.

    labels holds a non-negative int module label per node, aligned with
    net.node_ids.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (net.n_nodes,):
        raise ValueError("label array length must equal the node count")
    if labels.size and labels.min() < 0:
        raise ValueError("module labels must be non-negative")
    return _value_for(build_walk(net, kind), labels)


class _Search:
    """Search state of one walk, built once and shared by every restart.

    Holds the one adjacency that the node-mover and the scan read, a CSR:
    nbr[ptr[v]:ptr[v + 1]] are the nodes v links to either way, ascending,
    and flow the flows both ways summed; bounds, nbrs and flows are the
    same as lists.  Also the per-node p/a/t/out-flow lists and the module
    state of the all-singletons partition, so a restart only copies lists.
    """

    __slots__ = ("walk", "ptr", "nbr", "flow", "bounds", "nbrs", "flows",
                 "p", "a", "t", "fout", "singletons")

    def __init__(self, walk: Walk):
        n = walk.n
        self.walk = walk
        key, pos = np.unique(
            np.concatenate((walk.src * n + walk.dst, walk.dst * n + walk.src)),
            return_inverse=True,
        )
        self.flow = np.bincount(pos, weights=np.concatenate((walk.flow, walk.flow)))
        head, self.nbr = np.divmod(key, n)
        self.ptr = np.searchsorted(head, np.arange(n + 1))
        self.bounds, self.nbrs = self.ptr.tolist(), self.nbr.tolist()
        self.flows = self.flow.tolist()
        self.p = walk.p.tolist()
        self.a = walk.a.tolist()
        self.t = walk.t.tolist()
        self.fout = np.bincount(walk.src, weights=walk.flow, minlength=n).tolist()
        self.singletons = self.modules(np.arange(n))

    def modules(self, labels: np.ndarray) -> tuple[tuple[list, ...], list[float]]:
        """Per-module lists (P, A, T, OUT, q, plogp q, plogp(q + P), size)
        for labels that keep each block's module ids within its own node
        range, and each block's q_tot."""
        n = self.walk.n
        P, A, T, OUT, q = _module_sums(self.walk, labels, n)
        qP = (q + P).tolist()
        q_tot = _block_sums(q, self.walk.offsets).tolist()
        q = q.tolist()
        lists = (
            P.tolist(),
            A.tolist(),
            T.tolist(),
            OUT.tolist(),
            q,
            [x * log2(x) if x > 0.0 else 0.0 for x in q],
            [x * log2(x) if x > 0.0 else 0.0 for x in qP],
            np.bincount(labels, minlength=n).tolist(),
        )
        return lists, q_tot


def _flag_moves(
    search: _Search,
    lab: list[int],
    lists: tuple[list, ...],
    q_tot: list[float],
    blocks: list[int] | None = None,
) -> np.ndarray:
    """Nodes of the given blocks (all by default) whose best candidate
    move lowers their block's value by more than _MIN_GAIN / 2, ascending.

    Scores every node's candidate modules at once against the module
    state lists (P, A, T, OUT, q, plogp q, plogp(q + P), size) and the
    per-block q_tot, with the delta of _local_moves: the modules of its
    in- and out-neighbours other than its own, plus an empty module
    (index n) when it shares its module.  The two deltas differ only by
    rounding, far below the _MIN_GAIN / 2 margin, so a node with no flag
    has no candidate move that gains more than _MIN_GAIN.  Only the given
    blocks' nodes, modules and CSR entries are read (each block's are one
    range): they are packed side by side, each block shifted down by the
    nodes of the blocks left out before it.
    """
    walk, ptr = search.walk, search.ptr
    if blocks is None:
        blocks = range(walk.offsets.size - 1)
    blocks = np.asarray(blocks, dtype=np.int64)
    lo, hi = walk.offsets[blocks], walk.offsets[blocks + 1]
    nodes, shifts = _ranges(lo, hi)
    entries, _ = _ranges(ptr[lo], ptr[hi])
    n = nodes.size
    block = np.repeat(np.arange(blocks.size), hi - lo)
    shift = shifts[block]
    head = np.repeat(np.arange(n), np.diff(ptr)[nodes])
    nbr = search.nbr[entries] - shift[head]
    p, a, t = walk.p[nodes], walk.a[nodes], walk.t[nodes]
    # runs of adjacent blocks are read as one slice
    run = np.flatnonzero(lo[1:] != hi[:-1]) + 1
    spans = list(zip(lo[np.r_[0, run]].tolist(), hi[np.r_[run - 1, -1]].tolist()))

    def packed(values: list) -> np.ndarray:
        return np.array(list(chain.from_iterable(values[i:j] for i, j in spans)))

    lab = packed(lab) - shift
    *sums, size = lists
    P, A, T, OUT, q, Lq, Lqp = (np.append(packed(x), 0.0) for x in sums)
    shared = packed(size)[lab] > 1
    fout = packed(search.fout)
    # summed flow between each node and each module it links to, either way
    key, pos = np.unique(head * n + lab[nbr], return_inverse=True)
    w = np.bincount(pos, weights=search.flow[entries])
    v, beta = np.divmod(key, n)
    own = beta == lab[v]
    # each node leaves its module; a singleton leaves an empty one behind
    P_a1 = np.where(shared, P[lab] - p, 0.0)
    A_a1 = np.where(shared, A[lab] - a, 0.0)
    T_a1 = np.where(shared, T[lab] - t, 0.0)
    OUT_a1 = np.where(
        shared,
        OUT[lab] - fout + np.bincount(v[own], weights=w[own], minlength=n),
        0.0,
    )
    q_a1 = A_a1 * (1.0 - T_a1) + OUT_a1
    removed = (
        -2.0 * _plogp_vec(q_a1) + _plogp_vec(q_a1 + P_a1) + 2.0 * Lq[lab] - Lqp[lab]
    )
    q_tot = [q_tot[b] for b in blocks.tolist()]
    rest = np.array(q_tot)[block] - q[lab]
    # ... and joins a neighbouring module or, if it shared its own, module n
    empty = np.flatnonzero(shared)
    v = np.concatenate((v[~own], empty))
    beta = np.concatenate((beta[~own], np.full(empty.size, n)))
    w = np.concatenate((w[~own], np.zeros(empty.size)))
    P_b1 = P[beta] + p[v]
    A_b1 = A[beta] + a[v]
    T_b1 = T[beta] + t[v]
    q_b1 = A_b1 * (1.0 - T_b1) + (OUT[beta] + fout[v] - w)
    delta = (
        removed[v]
        - 2.0 * _plogp_vec(q_b1)
        + _plogp_vec(q_b1 + P_b1)
        + 2.0 * Lq[beta]
        - Lqp[beta]
        + _plogp_vec(rest[v] - q[beta] + q_a1[v] + q_b1)
        - np.array([_plogp(x) for x in q_tot])[block[v]]
    )
    flagged = v[delta < -0.5 * _MIN_GAIN]
    return np.unique(flagged + shift[flagged])


def _local_moves(
    search: _Search,
    labels: np.ndarray | None,
    rngs: list[np.random.Generator],
    values: list[float],
    histories: list[list[float]],
    blocks: list[int] | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Greedy single-node moves in the given blocks (all by default) until
    no move into a neighbour's module or an empty one gains over _MIN_GAIN.

    rngs, values and histories belong to the blocks, in order; the other
    blocks keep their labels.  A block's round visits a queue of its
    nodes; when a node moves to module beta, its neighbours either way
    that are neither queued nor in beta join the back of the queue, and
    the round ends when the queue is empty.  The first round queues every
    node of the block in random order when labels=None (singletons, whose
    module state the shared search already holds).  Each later round
    queues, in random order, the block's nodes that one _flag_moves scan
    of all blocks still moving finds an improving move for; so does the
    first round when labels are given.  A block stops when the scan flags
    none of its nodes, or when a round moves none: those nodes all failed
    the exact evaluation and the scan cleared every other node, so no
    such move gains.  Blocks share no link, so each block's
    moves and draws are those of a search of its walk alone.
    A node's flow to and from each module is one pass over its CSR row,
    whose flows hold both directions, so the flow a move takes out of or
    into a module is one lookup.  plogp(q_m), plogp(q_m + P_m) and each
    block's plogp(q_tot) are cached and updated on each accepted move,
    so a candidate costs three log2 calls (its new q_m, q_m + P_m and
    q_tot).  Each delta adds the same terms in the same order as a
    full recomputation would, so the result does not depend on the
    caching.  Every accepted move strictly lowers its block's running
    value, which is appended to the block's history move by move.
    Returns the labels and the blocks' values.
    """
    n = search.walk.n
    bounds, nbrs, flows = search.bounds, search.nbrs, search.flows
    p, a, t, fout = search.p, search.a, search.t, search.fout
    offsets = search.walk.offsets.tolist()
    if blocks is None:
        blocks = list(range(len(offsets) - 1))
    if labels is None:
        lists, q_tots = search.singletons
        lab = list(range(n))
    else:
        lists, q_tots = search.modules(labels)
        lab = labels.tolist()
    state = tuple(list(x) for x in lists)
    P, A, T, OUT, q, Lq, Lqp, size = state
    q_tots = list(q_tots)
    l_tots = [_plogp(x) for x in q_tots]
    values = list(values)
    # each block's empty module ids, descending, so free[-1] is the lowest
    if labels is None:
        frees = [[] for _ in blocks]
    else:
        empty = np.flatnonzero(np.bincount(labels, minlength=n) == 0)
        cut = np.searchsorted(empty, offsets).tolist()
        frees = [empty[cut[b]:cut[b + 1]][::-1].tolist() for b in blocks]
    queued = [False] * n

    def flagged_orders(live: list[int]) -> list[np.ndarray]:
        flags = _flag_moves(search, lab, state, q_tots, [blocks[i] for i in live])
        cut = np.searchsorted(flags, offsets).tolist()
        return [rngs[i].permutation(flags[cut[blocks[i]]:cut[blocks[i] + 1]]) for i in live]

    live = list(range(len(blocks)))
    if labels is None:
        orders = [
            rngs[i].permutation(offsets[b + 1] - offsets[b]) + offsets[b]
            for i, b in enumerate(blocks)
        ]
    else:
        orders = flagged_orders(live)
    for _ in range(_MAX_PASSES):
        moving = []
        for i, order in zip(live, orders):
            q_tot, l_tot, free = q_tots[blocks[i]], l_tots[blocks[i]], frees[i]
            value, history = values[i], histories[i]
            moved = 0
            queue = deque(order.tolist())
            for v in queue:
                queued[v] = True
            while queue:
                v = queue.popleft()
                queued[v] = False
                alpha = lab[v]
                # flows are >= +0.0, so starting a sum at f equals 0.0 + f
                fo: dict[int, float] = {}
                lo, hi = bounds[v], bounds[v + 1]
                for u, f in zip(nbrs[lo:hi], flows[lo:hi]):
                    m = lab[u]
                    if m in fo:
                        fo[m] += f
                    else:
                        fo[m] = f
                cands = set(fo)
                cands.discard(alpha)
                if size[alpha] > 1 and free:
                    cands.add(free[-1])
                if not cands:
                    continue

                p_v, a_v, t_v, f_v = p[v], a[v], t[v], fout[v]
                if size[alpha] == 1:
                    P_a1 = A_a1 = T_a1 = OUT_a1 = q_a1 = 0.0
                    l_a1 = lp_a1 = 0.0
                else:
                    P_a1 = P[alpha] - p_v
                    A_a1 = A[alpha] - a_v
                    T_a1 = T[alpha] - t_v
                    OUT_a1 = OUT[alpha] - f_v + fo.get(alpha, 0.0)
                    q_a1 = A_a1 * (1.0 - T_a1) + OUT_a1
                    x = q_a1 + P_a1
                    l_a1 = q_a1 * log2(q_a1) if q_a1 > 0.0 else 0.0
                    lp_a1 = x * log2(x) if x > 0.0 else 0.0
                removed = -2.0 * l_a1 + lp_a1 + 2.0 * Lq[alpha] - Lqp[alpha]
                rest = q_tot - q[alpha]

                best_delta = -_MIN_GAIN
                best_beta = alpha
                best_state = None
                for beta in sorted(cands):
                    P_b1 = P[beta] + p_v
                    A_b1 = A[beta] + a_v
                    T_b1 = T[beta] + t_v
                    OUT_b1 = OUT[beta] + f_v - fo.get(beta, 0.0)
                    q_b1 = A_b1 * (1.0 - T_b1) + OUT_b1
                    q_tot1 = rest - q[beta] + q_a1 + q_b1
                    x = q_b1 + P_b1
                    l_b1 = q_b1 * log2(q_b1) if q_b1 > 0.0 else 0.0
                    lp_b1 = x * log2(x) if x > 0.0 else 0.0
                    l_tot1 = q_tot1 * log2(q_tot1) if q_tot1 > 0.0 else 0.0
                    delta = (
                        removed
                        - 2.0 * l_b1
                        + lp_b1
                        + 2.0 * Lq[beta]
                        - Lqp[beta]
                        + l_tot1
                        - l_tot
                    )
                    if delta < best_delta:
                        best_delta = delta
                        best_beta = beta
                        best_state = (
                            P_b1, A_b1, T_b1, OUT_b1, q_b1, l_b1, lp_b1, q_tot1, l_tot1
                        )

                if best_beta == alpha:
                    continue
                beta = best_beta
                if size[beta] == 0:
                    free.pop()
                P[alpha], A[alpha], T[alpha] = P_a1, A_a1, T_a1
                OUT[alpha], q[alpha], Lq[alpha], Lqp[alpha] = OUT_a1, q_a1, l_a1, lp_a1
                size[alpha] -= 1
                if size[alpha] == 0:
                    free.append(alpha)
                (
                    P[beta], A[beta], T[beta], OUT[beta], q[beta], Lq[beta], Lqp[beta],
                    q_tot, l_tot,
                ) = best_state
                size[beta] += 1
                lab[v] = beta
                value += best_delta
                history.append(value)
                moved += 1
                for u in nbrs[lo:hi]:
                    if not queued[u] and lab[u] != beta:
                        queued[u] = True
                        queue.append(u)
            q_tots[blocks[i]], l_tots[blocks[i]], values[i] = q_tot, l_tot, value
            if moved:
                moving.append(i)
        if not moving:
            break
        live = moving
        orders = flagged_orders(live)
    return np.array(lab, dtype=np.int64), values


def _aggregate(walk: Walk, inv: np.ndarray, offsets: np.ndarray, node_term: np.ndarray) -> Walk:
    """Merge modules into super-nodes, dropping now-internal self-flows.

    inv maps each node to its module, 0..k-1 with k = offsets[-1], or to
    k for the nodes of blocks left out; offsets and node_term describe
    the kept blocks.
    """
    k = int(offsets[-1])
    p = np.bincount(inv, weights=walk.p, minlength=k + 1)[:k]
    a = np.bincount(inv, weights=walk.a, minlength=k + 1)[:k]
    t = np.bincount(inv, weights=walk.t, minlength=k + 1)[:k]
    hs = inv[walk.src]
    ts = inv[walk.dst]
    keep = (hs != ts) & (hs < k)
    key = hs[keep] * np.int64(k) + ts[keep]
    uniq, pos = np.unique(key, return_inverse=True)
    flow = np.bincount(pos, weights=walk.flow[keep], minlength=uniq.size)
    return Walk(
        n=k,
        p=p,
        a=a,
        t=t,
        src=(uniq // k).astype(np.int64),
        dst=(uniq % k).astype(np.int64),
        flow=flow,
        node_term=node_term,
        offsets=offsets,
    )


def _optimize_once(
    search: _Search, rngs: list[np.random.Generator], start: list[float]
) -> tuple[np.ndarray, list[float], list[list[float]]]:
    """One restart of every block from singletons (block b worth
    start[b], drawing from rngs[b]): move/aggregate cycles plus a final
    flat refinement.

    A block leaves the cycle after a round of moves that merges none of
    its modules.  If it never merged, its labels are final; otherwise it
    is refined from its module labels on the original walk, together with
    the other blocks that merged.  Returns block-local labels, values and
    histories.
    """
    walk = search.walk
    values = list(start)
    histories = [[v] for v in start]
    labels = np.empty(walk.n, dtype=np.int64)
    # refinement start: module ids within each block's own node range
    seeds = np.arange(walk.n)
    refine: list[int] = []
    inside = np.arange(walk.n)  # nodes of the blocks still in g
    node = inside  # the node of g that holds each of them
    g, in_g = search, list(range(len(rngs)))
    while True:
        lab, vals = _local_moves(
            g, None, [rngs[b] for b in in_g], [values[b] for b in in_g],
            [histories[b] for b in in_g],
        )
        for b, value in zip(in_g, vals):
            values[b] = value
        uniq, inv = np.unique(lab, return_inverse=True)
        first = np.searchsorted(uniq, g.walk.offsets)
        counts = np.diff(first)
        merged = counts < np.diff(g.walk.offsets)
        module = inv[node]
        where = g.walk.block[node]
        done = ~merged[where]
        local = module[done] - first[where[done]]
        if g is search:
            labels[inside[done]] = local
        else:
            seeds[inside[done]] = local + walk.offsets[walk.block[inside[done]]]
            refine += [in_g[j] for j in np.flatnonzero(~merged).tolist()]
        if not merged.any():
            break
        kept = np.repeat(merged, counts)
        new = np.cumsum(kept) - 1
        offsets = np.concatenate(([0], np.cumsum(counts[merged])))
        inside, node = inside[~done], new[module[~done]]
        g = _Search(_aggregate(
            g.walk, np.where(kept[inv], new[inv], offsets[-1]), offsets,
            g.walk.node_term[merged],
        ))
        in_g = [in_g[j] for j in np.flatnonzero(merged).tolist()]
    if refine:
        refine.sort()
        lab, vals = _local_moves(
            search, seeds, [rngs[b] for b in refine], [values[b] for b in refine],
            [histories[b] for b in refine], refine,
        )
        for b, value in zip(refine, vals):
            values[b] = value
        uniq, inv = np.unique(lab, return_inverse=True)
        nodes = np.isin(walk.block, refine)
        local = inv - np.searchsorted(uniq, walk.offsets[:-1])[walk.block]
        labels[nodes] = local[nodes]
    return labels, values, histories


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _TrialPool:
    """Where the seeded restarts of one detect_communities call run.

    Its size w is the CPUs this process may run on, at most trials.  A
    level's restarts run in rounds of w consecutive trials on the blocks
    still live: the calling process runs the round's first trial and each
    of w - 1 workers, forked once for the whole call, one other.  With
    w = 1, or where processes cannot be forked, every trial runs in the
    calling process and no process is started.  Use it as a context
    manager, which shuts the workers down.
    """

    def __init__(self, trials: int):
        self.trials = trials
        self.size = min(_cpus(), trials)
        self._workers = None
        if self.size > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
                self._workers = ProcessPoolExecutor(self.size - 1, mp_context=context)
            else:
                self.size = 1

    def __enter__(self) -> _TrialPool:
        return self

    def __exit__(self, *exc) -> None:
        if self._workers is not None:
            self._workers.shutdown(cancel_futures=True)

    def restarts(
        self, walk: Walk, entropies: list[tuple[int, ...]]
    ) -> tuple[np.ndarray, np.ndarray, list[list[float]], np.ndarray]:
        """Each block's best seeded restart under the stopping rule, and
        the restarts it kept.

        Block b's trial draws from SeedSequence(entropies[b] + (trial,)).
        Taken in trial order, a trial replaces the block's best when its
        value is lower by more than _MIN_GAIN, so a tie or a value apart
        only by rounding keeps the lower trial; the block stops after
        _PATIENCE trials in a row that did not, or after trials.  A
        round's trials past the one a block stopped at are dropped, so the
        result and the kept counts do not depend on the pool's size.
        Returns labels, values, histories and kept counts.
        """
        w = self.size
        sizes = np.diff(walk.offsets)
        labels = np.empty(walk.n, dtype=np.int64)
        values = np.full(sizes.size, np.inf)
        histories: list[list[float]] = [[] for _ in range(sizes.size)]
        kept = np.zeros(sizes.size, dtype=np.int64)
        live = np.arange(sizes.size)
        stale = np.zeros(sizes.size, dtype=np.int64)
        sub = search = None
        for first in range(0, self.trials, w):
            trials = range(first, min(first + w, self.trials))
            if sub is None:
                mask = np.isin(np.arange(sizes.size), live)
                sub = walk if mask.all() else _take_blocks(walk, mask)
                node = np.flatnonzero(np.repeat(mask, sizes))
            seeds = [entropies[b] for b in live.tolist()]
            futures = [
                self._workers.submit(_share, sub, seeds, range(t, t + 1))
                for t in trials[1:]
            ]
            # built after the first submit, which forks the workers, so
            # that they do not inherit it
            if search is None:
                search = _Search(sub)
            runs = _runs(search, seeds, trials[:1])
            runs += [run for future in futures for run in future.result()]
            going = np.ones(live.size, dtype=bool)
            for run_labels, run_values, run_histories in runs:
                run_values = np.array(run_values)
                better = going & (run_values < values[live] - _MIN_GAIN)
                moved = np.repeat(better, sizes[live])
                labels[node[moved]] = run_labels[moved]
                values[live[better]] = run_values[better]
                for j in np.flatnonzero(better).tolist():
                    histories[live[j]] = run_histories[j]
                kept[live[going]] += 1
                stale = np.where(better, 0, stale + going)
                going &= stale < _PATIENCE
            if not going.all():
                live, stale, sub, search = live[going], stale[going], None, None
                if live.size == 0:
                    break
        return labels, values, histories, kept


def _runs(
    search: _Search, entropies: list[tuple[int, ...]], trials: range
) -> list[tuple[np.ndarray, list[float], list[list[float]]]]:
    """The given seeded restarts of every block of the search's walk, in
    trial order: each one's block-local labels, values and histories."""
    start = _block_values(search.walk, np.arange(search.walk.n), search.walk.n).tolist()
    return [
        _optimize_once(
            search,
            [np.random.default_rng(np.random.SeedSequence(e + (trial,))) for e in entropies],
            start,
        )
        for trial in trials
    ]


def _share(
    walk: Walk, entropies: list[tuple[int, ...]], trials: range
) -> list[tuple[np.ndarray, list[float], list[list[float]]]]:
    """_runs on a search of the walk built here, as a worker runs them."""
    return _runs(_Search(walk), entropies, trials)


@lru_cache(maxsize=_EXACT_MAX)
def _set_partitions(n: int) -> np.ndarray:
    """Every set partition of n >= 1 items as a restricted-growth label
    row (labels[0] = 0, labels[i] <= max(labels[:i]) + 1), rows in
    lexicographic order, so the last row is the all-singletons one."""
    rows = [(0,)]
    for _ in range(n - 1):
        rows = [r + (m,) for r in rows for m in range(max(r) + 2)]
    out = np.array(rows, dtype=np.int64)
    out.flags.writeable = False
    return out


def _exact_partitions(walk: Walk) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Lowest-value set partition of every block, each of at most
    _EXACT_MAX nodes; ties keep the first row.

    Blocks of one size n are scored together against _set_partitions(n)
    by one :func:`_block_values` call on a walk with a copy of each block
    labelled by each row, so a value is bit for bit :func:`_value_for` of
    the block alone, with so many blocks at a time that no array passes
    _EXACT_CHUNK elements with up to n(n - 1) links a block (an 8-node
    block passes it alone).  A block's history runs from the
    all-singletons row (the last) to the best one.
    """
    off, lstart = walk.offsets, walk.link_offsets
    sizes = np.diff(off)
    labels = np.empty(walk.n, dtype=np.int64)
    values = np.empty(sizes.size)
    histories: list[list[float]] = [[] for _ in range(sizes.size)]
    for n in np.unique(sizes).tolist():
        rows = _set_partitions(n)
        r = rows.shape[0]
        same = np.flatnonzero(sizes == n)
        step = max(1, _EXACT_CHUNK // (r * n * n))
        for bs in np.split(same, range(step, same.size, step)):
            k = bs.size
            # copy c = j r + row of block bs[j] holds nodes c n:(c + 1) n
            first = np.repeat(off[bs], r)
            nodes, shifts = _ranges(first, first + n)
            lo, hi = np.repeat(lstart[bs], r), np.repeat(lstart[bs + 1], r)
            links, _ = _ranges(lo, hi)
            shift = np.repeat(shifts, hi - lo)
            copies = Walk(
                n=k * r * n, p=walk.p[nodes], a=walk.a[nodes], t=walk.t[nodes],
                src=walk.src[links] - shift, dst=walk.dst[links] - shift, flow=walk.flow[links],
                node_term=np.repeat(walk.node_term[bs], r), offsets=np.arange(k * r + 1) * n,
            )
            rows_of = np.arange(k * r)[:, None] * n + np.tile(rows, (k, 1))
            scores = _block_values(copies, rows_of.ravel(), k * r * n).reshape(k, r)
            best = np.argmin(scores, axis=1)
            labels[off[bs][:, None] + np.arange(n)] = rows[best]
            values[bs] = scores[np.arange(k), best]
            for b, last, value in zip(bs.tolist(), scores[:, -1].tolist(), values[bs].tolist()):
                histories[b] = [last, value]
    return labels, values, histories


def _take_blocks(walk: Walk, keep: np.ndarray) -> Walk:
    """The walk of the blocks where keep is True, in order.

    Each kept node is a module of its own, so links sorted by (src, dst),
    as :func:`build_network` leaves them, keep their order and flows.
    """
    sizes = np.diff(walk.offsets)
    offsets = np.concatenate(([0], np.cumsum(sizes[keep])))
    node = np.repeat(keep, sizes)
    inv = np.where(node, np.cumsum(node) - 1, offsets[-1])
    return _aggregate(walk, inv, offsets, walk.node_term[keep])


def _search(
    walk: Walk, entropies: list[tuple[int, ...]], pool: _TrialPool
) -> tuple[np.ndarray, np.ndarray, list[list[float]], np.ndarray]:
    """Best partition of every block of the walk: the optimizer's one
    entry point, for level 1 (one block) and every level below.

    Blocks of at most _EXACT_MAX nodes take the exact optimum, the others
    the best of seeded restarts, block b's seeded by entropies[b].
    Returns block-local labels (0.. per block), each block's value (its
    running value, which an exact recomputation matches to rounding),
    each block's history and the restarts each block kept (0 when solved
    exactly).
    """
    sizes = np.diff(walk.offsets)
    small = sizes <= _EXACT_MAX
    labels = np.empty(walk.n, dtype=np.int64)
    values = np.empty(sizes.size)
    histories: list[list[float]] = [[] for _ in range(sizes.size)]
    kept = np.zeros(sizes.size, dtype=np.int64)
    for part in (small, ~small):
        blocks = np.flatnonzero(part)
        if blocks.size == 0:
            continue
        sub = walk if blocks.size == sizes.size else _take_blocks(walk, part)
        if part is small:
            got = _exact_partitions(sub)
        else:
            got = pool.restarts(sub, [entropies[b] for b in blocks.tolist()])
            kept[blocks] = got[3]
        labels[np.repeat(part, sizes)], values[blocks] = got[0], got[1]
        for b, history in zip(blocks.tolist(), got[2]):
            histories[b] = history
    return labels, values, histories, kept


@dataclass(frozen=True)
class Community:
    """One node group in the hierarchy (level is 1-based)."""

    level: int
    members: tuple[int, ...]
    irreducible: bool
    children: tuple["Community", ...] = ()

    @property
    def size(self) -> int:
        return len(self.members)

    def walk_tree(self) -> Iterator["Community"]:
        yield self
        for child in self.children:
            yield from child.walk_tree()


@dataclass(frozen=True)
class LevelSearch:
    """What the search of one level did: the communities it searched
    (blocks), how many of them it solved exactly, and the seeded restarts
    the others kept under the stopping rule, summed over blocks."""

    blocks: int
    exact: int
    restarts: int


@dataclass(frozen=True)
class CommunityTree:
    """Detected hierarchy over one network.

    children holds the level-1 communities; value is the two-level map
    equation of that top partition, and history the winning restart's
    per-move objective trace (non-increasing).  Leaves are irreducible:
    either no finer partition lowered the value, or the depth cap
    stopped the recursion there.  searches[0] is the search that found
    level 1 (one block, the whole network) and searches[k] the one that
    tried to split the communities of level k; none ran on a network
    without links.
    """

    node_ids: tuple[str, ...]
    value: float
    children: tuple[Community, ...]
    history: tuple[float, ...]
    searches: tuple[LevelSearch, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def communities(self) -> Iterator[Community]:
        for child in self.children:
            yield from child.walk_tree()

    def leaves(self) -> list[Community]:
        return [c for c in self.communities() if c.irreducible]

    def top_labels(self) -> np.ndarray:
        labels = np.empty(self.n_nodes, dtype=np.int64)
        for m, comm in enumerate(self.children):
            labels[list(comm.members)] = m
        return labels

    def as_dict(self) -> dict:
        def encode(c: Community) -> dict:
            d = {"level": c.level, "size": c.size, "irreducible": c.irreducible}
            if c.irreducible:
                d["members"] = [self.node_ids[i] for i in c.members]
            else:
                d["children"] = [encode(ch) for ch in c.children]
            return d

        return {
            "node_count": self.n_nodes,
            "map_equation_bits": self.value,
            "communities": [encode(c) for c in self.children],
        }


def detect_communities(
    net: FlowNetwork,
    seed: int = 0,
    trials: int = 10,
    kind: str = "frequency",
) -> CommunityTree:
    """Hierarchical partition of the network, deterministic per seed.

    Level 1 is the best-of-restarts top partition; each community is then
    re-optimized on its induced subnetwork and split while a strictly
    lower value exists, down to level _MAX_DEPTH.  A community at path
    (m1, ..., mk) of module indices from the top seeds its restarts with
    (seed, m1, ..., mk, trial).  trials caps each community's restarts:
    they stop after _PATIENCE in a row fail to lower its best value by
    more than _MIN_GAIN.  The communities of one level that may split
    (more than one node, at least one link) are searched together as the
    blocks of one disjoint-union walk that :meth:`FlowNetwork.blocks`
    cuts out, so a level costs one walk and one search however many
    communities it has.  Each level's restarts are shared out over the
    CPUs this process may run on (see _TrialPool), and the tree does not
    depend on how many there are.  A network with no links (or a single
    node) is a single irreducible community.
    """
    if net.n_nodes == 0:
        raise ValueError("cannot detect communities in an empty network")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if net.n_links == 0:
        root = Community(level=1, members=tuple(range(net.n_nodes)), irreducible=True)
        return CommunityTree(
            node_ids=net.node_ids, value=0.0, children=(root,), history=(0.0,), searches=()
        )
    walk = build_walk(net, kind)
    with _TrialPool(trials) as pool:
        labels, _, histories, kept = _search(walk, [(seed,)], pool)
        tiers, searches = _tiers(net, labels, seed, kind, pool)
    value = _value_for(walk, labels)
    kids: dict[int, list[Community]] = {}
    for level in range(len(tiers), 0, -1):
        groups, parents = tiers[level - 1]
        comms = [
            Community(
                level=level,
                members=tuple(group.tolist()),
                irreducible=i not in kids,
                children=tuple(kids.get(i, ())),
            )
            for i, group in enumerate(groups)
        ]
        kids = {}
        for comm, parent in zip(comms, parents.tolist()):
            kids.setdefault(parent, []).append(comm)
    return CommunityTree(
        node_ids=net.node_ids,
        value=value,
        children=tuple(comms),
        history=tuple(histories[0]),
        searches=(_level_search(walk, kept), *searches),
    )


def _level_search(walk: Walk, kept: np.ndarray) -> LevelSearch:
    sizes = np.diff(walk.offsets)
    return LevelSearch(
        blocks=int(sizes.size),
        exact=int(np.count_nonzero(sizes <= _EXACT_MAX)),
        restarts=int(kept.sum()),
    )


def _tiers(
    net: FlowNetwork, labels: np.ndarray, seed: int, kind: str, pool: _TrialPool
) -> tuple[list[tuple[list[np.ndarray], np.ndarray]], list[LevelSearch]]:
    """Per level from the top partition's labels down: each community's
    members and the index of its parent; and what each level's search
    did."""
    tiers: list[tuple[list[np.ndarray], np.ndarray]] = []
    searches: list[LevelSearch] = []
    # union holds the networks of the communities in hand side by side,
    # nodes the root index of each of its nodes, module the community of
    # the next level that each node belongs to (-1: none)
    union, nodes, module = net, np.arange(net.n_nodes), labels
    paths = [(m,) for m in range(int(labels.max()) + 1)]
    parents = np.zeros(len(paths), dtype=np.int64)
    for level in range(1, _MAX_DEPTH + 1):
        order, starts, union = union.blocks(module)
        nodes = nodes[order]
        tiers.append((np.split(nodes, starts[1:-1]), parents))
        sizes = np.diff(starts)
        block = np.repeat(np.arange(sizes.size), sizes)
        links = np.bincount(block[union.src], minlength=sizes.size)
        cand = np.flatnonzero((sizes > 1) & (links > 0))
        if level == _MAX_DEPTH or cand.size == 0:
            break
        keep = np.full(sizes.size, -1)
        keep[cand] = np.arange(cand.size)
        order, starts, union = union.blocks(keep[block])
        nodes = nodes[order]
        walk = _block_walk(union, starts, kind)
        sizes = np.diff(starts)
        sub_labels, values, _, kept = _search(
            walk, [(seed, *paths[c]) for c in cand.tolist()], pool
        )
        searches.append(_level_search(walk, kept))
        single = _block_values(walk, np.repeat(starts[:-1], sizes), walk.n)
        count = np.maximum.reduceat(sub_labels, starts[:-1]) + 1
        split = (count > 1) & (values < single - _MIN_GAIN)
        if not split.any():
            break
        count = np.where(split, count, 0)
        first = np.repeat(np.cumsum(count) - count, sizes)
        module = np.where(np.repeat(split, sizes), first + sub_labels, -1)
        parents = np.repeat(cand, count)
        paths = [(*paths[c], m) for c, k in zip(cand.tolist(), count.tolist()) for m in range(k)]
    return tiers, searches


@dataclass(frozen=True)
class LevelRow:
    level: int
    communities: int
    irreducible: int
    accounts: int
    ratio: float


@dataclass(frozen=True)
class CommunityReport:
    """Per-level counts plus the size-rank sequence of irreducible leaves."""

    rows: tuple[LevelRow, ...]
    size_rank: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict:
        return {
            "levels": [asdict(r) for r in self.rows],
            "size_rank": [
                {"rank": rank, "size": size} for rank, size in self.size_rank
            ],
        }


def community_report(tree: CommunityTree) -> CommunityReport:
    """Aggregate the tree into level rows and a descending size ranking."""
    n = tree.n_nodes
    by_level: dict[int, list[Community]] = {}
    for comm in tree.communities():
        by_level.setdefault(comm.level, []).append(comm)
    rows = tuple(
        LevelRow(
            level=level,
            communities=len(comms),
            irreducible=sum(c.irreducible for c in comms),
            accounts=sum(c.size for c in comms),
            ratio=sum(c.size for c in comms) / n,
        )
        for level, comms in sorted(by_level.items())
    )
    sizes = sorted((c.size for c in tree.leaves()), reverse=True)
    size_rank = tuple((rank, size) for rank, size in enumerate(sizes, start=1))
    return CommunityReport(rows=rows, size_rank=size_rank)


def flat_table(tree: CommunityTree) -> list[list[str]]:
    """Rows (node_id, level-1 id, ..., irreducible id), header included.

    Per-level ids and leaf ids are 1-based in depth-first order; columns
    past a node's leaf level are left empty.
    """
    max_level = max((c.level for c in tree.communities()), default=1)
    numbered = [0] * (max_level + 1)  # communities numbered per level, then leaves
    rows = [[name] for name in tree.node_ids]

    def assign(comm: Community, path: list[str]) -> None:
        numbered[comm.level - 1] += 1
        path = path + [str(numbered[comm.level - 1])]
        if comm.irreducible:
            numbered[-1] += 1
            for node in comm.members:
                rows[node] += path + [""] * (max_level - len(path)) + [str(numbered[-1])]
        for child in comm.children:
            assign(child, path)

    for comm in tree.children:
        assign(comm, [])
    levels = [f"level_{k}" for k in range(1, max_level + 1)]
    return [["node_id", *levels, "irreducible"], *rows]
