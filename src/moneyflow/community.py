"""Flow-based community detection by minimizing the map equation.

A weighted random walk follows out-links with probability 1 - tau and
teleports with probability tau (always, on dangling nodes); the teleport
landing distribution is proportional to out-strength.  The two-level map
equation scores a partition by the description length of that walk:

    L(M) = q H(exit module distribution)
           + sum_m (q_m + p_m) H(within-module visit distribution)

where p_i are stationary visit rates and q_m is the rate of leaving
module m (link steps and teleport steps both count).  The optimizer is a
greedy node-mover with module aggregation and seeded restarts, applied
recursively inside each community to build a hierarchy; a community that
no split improves is irreducible.  The node-mover is queue-driven, as in
Leiden's fast local move: a pass visits every node in random order and
re-queues the neighbours of each node that moves.  When the queue
empties, one vectorised scan scores every node's moves against the
frozen module state, and only the nodes it flags are queued again; the
search ends at a local optimum when the scan flags nothing or a round of
flagged nodes moves nothing.  Walks of fewer than _SCAN_MIN nodes prove
the optimum with a full scalar pass instead.  Walks of at most
_EXACT_MAX nodes skip both the power iteration and the search: their
stationary vector comes from one dense linear solve and their partition
from scoring every set partition at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import log2
from typing import Iterator

import numpy as np

from .hodge import ConvergenceError
from .network import FlowNetwork

__all__ = [
    "TAU",
    "Walk",
    "EmptyModuleError",
    "build_walk",
    "map_equation_value",
    "Community",
    "CommunityTree",
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
# local-move rounds per call; the loop ends earlier at a local optimum
_MAX_PASSES = 200
_MIN_GAIN = 1e-12
# walks of at most this many nodes are solved directly and partitioned
# exhaustively (Bell(8) = 4,140 set partitions)
_EXACT_MAX = 8
# walks of fewer nodes certify a local optimum with a full scalar pass;
# larger ones with one vectorised scan (_flag_moves), which costs less
_SCAN_MIN = 40


class EmptyModuleError(ValueError):
    """A partition contains a module with no members."""


def _plogp(x: float) -> float:
    return x * log2(x) if x > 0.0 else 0.0


def _plogp_vec(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log2(x[pos])
    return out


@dataclass(frozen=True)
class Walk:
    """Stationary walk quantities, closed under module aggregation.

    p: visit rates; a_i = p_i times the node's teleport probability (tau,
    or 1 on dangling nodes); t: teleport landing distribution; src/dst/
    flow: stationary link-step rates p_src (1 - tau) w_e / s_src.
    node_term fixes sum_i p_i log2 p_i at the original node resolution so
    aggregated evaluations stay comparable.
    """

    n: int
    p: np.ndarray
    a: np.ndarray
    t: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    flow: np.ndarray
    node_term: float


def build_walk(net: FlowNetwork, kind: str = "frequency") -> Walk:
    """Stationary distribution of the teleporting walk.

    Walks of at most _EXACT_MAX nodes solve the dense n x n step matrix
    directly (one row replaced by the normalisation sum(p) = 1); larger
    ones power-iterate, accumulating link steps per node with np.bincount.
    The optimizer builds its search state (adjacency lists, per-node
    lists, singleton module terms) from the returned walk once and shares
    it across all restarts; each aggregated walk of a restart gets a state
    of its own.
    """
    if net.n_links == 0:
        raise ValueError("network has no links; the walk is undefined")
    n = net.n_nodes
    w = net.weights(kind).astype(np.float64)
    s = np.bincount(net.src, weights=w, minlength=n)
    t = s / s.sum()
    tau_eff = np.where(s > 0, TAU, 1.0)
    out_norm = w / s[net.src]
    if n <= _EXACT_MAX:
        # step[j, i]: probability of stepping from i to j
        step = np.outer(t, tau_eff)
        np.add.at(step, (net.dst, net.src), (1.0 - TAU) * out_norm)
        system = step - np.eye(n)
        system[-1] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        p = np.linalg.solve(system, rhs)
    else:
        p = np.full(n, 1.0 / n)
        for _ in range(_WALK_MAX_ITER):
            link = np.bincount(
                net.dst, weights=p[net.src] * (1.0 - TAU) * out_norm, minlength=n
            )
            p_new = link + t * float(p @ tau_eff)
            p_new /= p_new.sum()
            delta = float(np.abs(p_new - p).sum())
            p = p_new
            if delta < _WALK_TOL:
                break
        else:
            raise ConvergenceError(
                f"stationary distribution did not converge in {_WALK_MAX_ITER} steps "
                f"(L1 change {delta:.1e}, target {_WALK_TOL:.0e})",
                residual=delta,
            )
    flow = p[net.src] * (1.0 - TAU) * out_norm
    return Walk(
        n=n,
        p=p,
        a=p * tau_eff,
        t=t,
        src=net.src.copy(),
        dst=net.dst.copy(),
        flow=flow,
        node_term=float(_plogp_vec(p).sum()),
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
    """Exact four-term evaluation of the map equation for given labels."""
    nmod = int(labels.max()) + 1 if labels.size else 0
    sizes = np.bincount(labels, minlength=nmod)
    if np.any(sizes == 0):
        raise EmptyModuleError("partition assigns no nodes to some module id")
    P, _, _, _, q = _module_sums(walk, labels, nmod)
    q_tot = float(q.sum())
    return (
        _plogp(q_tot)
        - 2.0 * float(_plogp_vec(q).sum())
        + float(_plogp_vec(q + P).sum())
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


def _adjacency(heads: np.ndarray, tails: np.ndarray, flow: np.ndarray, n: int):
    """Per-node lists of (neighbour, flow), neighbours ascending."""
    order = np.lexsort((tails, heads))
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for h, u, f in zip(
        heads[order].tolist(), tails[order].tolist(), flow[order].tolist()
    ):
        adj[h].append((u, f))
    return adj


class _Search:
    """Search state of one walk, built once and shared by every restart.

    Holds the out- and in-adjacency as per-node (neighbour, flow) lists,
    the per-node p/a/t/out-flow lists and the module state of the
    all-singletons partition, so a restart only copies lists.
    """

    __slots__ = ("walk", "out_adj", "in_adj", "p", "a", "t", "fout", "singletons")

    def __init__(self, walk: Walk):
        n = walk.n
        self.walk = walk
        self.out_adj = _adjacency(walk.src, walk.dst, walk.flow, n)
        self.in_adj = _adjacency(walk.dst, walk.src, walk.flow, n)
        self.p = walk.p.tolist()
        self.a = walk.a.tolist()
        self.t = walk.t.tolist()
        self.fout = np.bincount(walk.src, weights=walk.flow, minlength=n).tolist()
        self.singletons = self.modules(np.arange(n))

    def modules(self, labels: np.ndarray) -> tuple[tuple[list, ...], float]:
        """Per-module lists (P, A, T, OUT, q, plogp q, plogp(q + P), size)
        for the given labels, and q_tot."""
        n = self.walk.n
        P, A, T, OUT, q = _module_sums(self.walk, labels, n)
        qP = (q + P).tolist()
        q_tot = float(q.sum())
        q = q.tolist()
        lists = (
            P.tolist(),
            A.tolist(),
            T.tolist(),
            OUT.tolist(),
            q,
            [_plogp(x) for x in q],
            [_plogp(x) for x in qP],
            np.bincount(labels, minlength=n).tolist(),
        )
        return lists, q_tot


def _flag_moves(
    search: _Search, lab: list[int], lists: tuple[list, ...], q_tot: float
) -> np.ndarray:
    """Nodes whose best single move lowers the value by more than _MIN_GAIN / 2.

    Scores every node's candidate modules at once against the module
    state lists (P, A, T, OUT, q, plogp q, plogp(q + P), size), with the
    delta of _local_moves: the modules of its in- and out-neighbours other
    than its own, plus an empty module (index n) when it shares its
    module.  The two deltas differ only by rounding, far below the
    _MIN_GAIN / 2 margin, so a node with no flag has no move that gains
    more than _MIN_GAIN.
    """
    walk = search.walk
    n = walk.n
    lab = np.array(lab)
    *sums, size = lists
    P, A, T, OUT, q, Lq, Lqp = (np.append(x, 0.0) for x in sums)
    shared = np.array(size)[lab] > 1
    # summed flow between each node and each module it links to, either way
    key, pos = np.unique(
        np.concatenate((walk.src * n + lab[walk.dst], walk.dst * n + lab[walk.src])),
        return_inverse=True,
    )
    w = np.bincount(pos, weights=np.concatenate((walk.flow, walk.flow)))
    v, beta = np.divmod(key, n)
    own = beta == lab[v]
    fout = np.bincount(walk.src, weights=walk.flow, minlength=n)
    # each node leaves its module; a singleton leaves an empty one behind
    P_a1 = np.where(shared, P[lab] - walk.p, 0.0)
    A_a1 = np.where(shared, A[lab] - walk.a, 0.0)
    T_a1 = np.where(shared, T[lab] - walk.t, 0.0)
    OUT_a1 = np.where(
        shared,
        OUT[lab] - fout + np.bincount(v[own], weights=w[own], minlength=n),
        0.0,
    )
    q_a1 = A_a1 * (1.0 - T_a1) + OUT_a1
    removed = (
        -2.0 * _plogp_vec(q_a1) + _plogp_vec(q_a1 + P_a1) + 2.0 * Lq[lab] - Lqp[lab]
    )
    rest = q_tot - q[lab]
    # ... and joins a neighbouring module or, if it shared its own, module n
    empty = np.flatnonzero(shared)
    v = np.concatenate((v[~own], empty))
    beta = np.concatenate((beta[~own], np.full(empty.size, n)))
    w = np.concatenate((w[~own], np.zeros(empty.size)))
    P_b1 = P[beta] + walk.p[v]
    A_b1 = A[beta] + walk.a[v]
    T_b1 = T[beta] + walk.t[v]
    q_b1 = A_b1 * (1.0 - T_b1) + (OUT[beta] + fout[v] - w)
    delta = (
        removed[v]
        - 2.0 * _plogp_vec(q_b1)
        + _plogp_vec(q_b1 + P_b1)
        + 2.0 * Lq[beta]
        - Lqp[beta]
        + _plogp_vec(rest[v] - q[beta] + q_a1[v] + q_b1)
        - _plogp(q_tot)
    )
    return np.unique(v[delta < -0.5 * _MIN_GAIN])


def _local_moves(
    search: _Search,
    labels: np.ndarray | None,
    value: float,
    rng: np.random.Generator,
    history: list[float],
) -> tuple[np.ndarray, float]:
    """Greedy single-node moves until no single move gains over _MIN_GAIN.

    A round visits a queue of nodes; when a node moves to module beta,
    its in- and out-neighbours that are neither queued nor in beta join
    the back of the queue, and the round ends when the queue is empty.
    The first round queues every node in random order when labels=None
    (singletons, whose module state the shared search already holds).
    Each later round queues, in random order, the nodes that _flag_moves
    finds an improving move for; so does the first round when labels are
    given.  The loop stops when the scan flags no node, or when a round
    moves no node: its nodes all failed the exact evaluation and the scan
    cleared every other node, so the result is a local optimum.  Walks of
    fewer than _SCAN_MIN nodes queue every node in every round and stop
    after a round that moves none.
    plogp(q_m), plogp(q_m + P_m) and plogp(q_tot) are cached and updated
    on each accepted move, so a candidate costs three log2 calls (its new
    q_m, q_m + P_m and q_tot).  Each delta adds the same terms in the
    same order as a full recomputation would, so the result does not
    depend on the caching.  Every accepted move strictly lowers the
    running value, which is appended to history move by move.
    """
    n = search.walk.n
    out_adj = search.out_adj
    in_adj = search.in_adj
    p, a, t, fout = search.p, search.a, search.t, search.fout
    if labels is None:
        lists, q_tot = search.singletons
        lab = list(range(n))
    else:
        lists, q_tot = search.modules(labels)
        lab = labels.tolist()
    state = tuple(list(x) for x in lists)
    P, A, T, OUT, q, Lq, Lqp, size = state
    l_tot = _plogp(q_tot)
    free = [m for m in range(n - 1, -1, -1) if size[m] == 0]

    scan = n >= _SCAN_MIN
    first = scan and labels is not None
    order = rng.permutation(_flag_moves(search, lab, state, q_tot) if first else n)
    for _ in range(_MAX_PASSES):
        moved = 0
        queue = deque(order.tolist())
        queued = [False] * n
        for v in queue:
            queued[v] = True
        while queue:
            v = queue.popleft()
            queued[v] = False
            alpha = lab[v]
            # flows are >= +0.0, so starting a sum at f equals 0.0 + f
            fo: dict[int, float] = {}
            for u, f in out_adj[v]:
                m = lab[u]
                if m in fo:
                    fo[m] += f
                else:
                    fo[m] = f
            fi: dict[int, float] = {}
            for u, f in in_adj[v]:
                m = lab[u]
                if m in fi:
                    fi[m] += f
                else:
                    fi[m] = f
            cands = fo.keys() | fi.keys()
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
                OUT_a1 = OUT[alpha] - f_v + fo.get(alpha, 0.0) + fi.get(alpha, 0.0)
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
                OUT_b1 = OUT[beta] + f_v - fo.get(beta, 0.0) - fi.get(beta, 0.0)
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
            for adj in (out_adj[v], in_adj[v]):
                for u, _ in adj:
                    if not queued[u] and lab[u] != beta:
                        queued[u] = True
                        queue.append(u)
        if moved == 0:
            break
        order = rng.permutation(_flag_moves(search, lab, state, q_tot) if scan else n)
    return np.array(lab, dtype=np.int64), value


def _aggregate(walk: Walk, inv: np.ndarray, k: int) -> Walk:
    """Merge modules into super-nodes, dropping now-internal self-flows."""
    p = np.bincount(inv, weights=walk.p, minlength=k)
    a = np.bincount(inv, weights=walk.a, minlength=k)
    t = np.bincount(inv, weights=walk.t, minlength=k)
    hs = inv[walk.src]
    ts = inv[walk.dst]
    keep = hs != ts
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
        node_term=walk.node_term,
    )


def _optimize_once(
    search: _Search, value: float, rng: np.random.Generator
) -> tuple[np.ndarray, float, list[float]]:
    """One restart from singletons (worth value): move/aggregate cycles
    plus a final flat refinement."""
    history = [value]
    node_to_module = np.arange(search.walk.n)
    g = search
    while True:
        labels, value = _local_moves(g, None, value, rng, history)
        uniq, inv = np.unique(labels, return_inverse=True)
        node_to_module = inv[node_to_module]
        if uniq.size == g.walk.n:
            break
        g = _Search(_aggregate(g.walk, inv, uniq.size))
    if g is search:
        return node_to_module, value, history
    labels, value = _local_moves(search, node_to_module, value, rng, history)
    _, labels = np.unique(labels, return_inverse=True)
    return labels, value, history


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


def _exact_partition(walk: Walk) -> tuple[np.ndarray, float, list[float]]:
    """Lowest-value set partition of a tiny walk; ties keep the first row.

    All rows are scored at once by np.bincount over row * n + label.  The
    history runs from the all-singletons row (the last) to the best one.
    """
    rows = _set_partitions(walk.n)
    r, n = rows.shape
    keys = rows + n * np.arange(r)[:, None]

    def per_module(index: np.ndarray, weights: np.ndarray) -> np.ndarray:
        weights = np.broadcast_to(weights, index.shape)
        return np.bincount(
            index.ravel(), weights=weights.ravel(), minlength=r * n
        ).reshape(r, n)

    P = per_module(keys, walk.p)
    A = per_module(keys, walk.a)
    T = per_module(keys, walk.t)
    ext = rows[:, walk.src] != rows[:, walk.dst]
    OUT = per_module(keys[:, walk.src], walk.flow * ext)
    q = A * (1.0 - T) + OUT
    values = (
        _plogp_vec(q.sum(axis=1))
        - 2.0 * _plogp_vec(q).sum(axis=1)
        + _plogp_vec(q + P).sum(axis=1)
        - walk.node_term
    )
    best = int(np.argmin(values))
    labels = rows[best]
    return labels, _value_for(walk, labels), [float(values[-1]), float(values[best])]


def _best_partition(
    walk: Walk, entropy: tuple[int, ...], trials: int
) -> tuple[np.ndarray, float, list[float]]:
    """Best of seeded restarts; ties keep the lowest trial index.  Walks
    of at most _EXACT_MAX nodes take the exact optimum instead."""
    if walk.n <= _EXACT_MAX:
        return _exact_partition(walk)
    search = _Search(walk)
    single = _value_for(walk, np.arange(walk.n))
    best = None
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy + (trial,)))
        labels, value, history = _optimize_once(search, single, rng)
        if best is None or value < best[1]:
            best = (labels, value, history)
    labels, _, history = best
    return labels, _value_for(walk, labels), history


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
class CommunityTree:
    """Detected hierarchy over one network.

    children holds the level-1 communities; value is the two-level map
    equation of that top partition, and history the winning restart's
    per-move objective trace (non-increasing).  Leaves are irreducible:
    either no finer partition lowered the value, or the depth cap
    stopped the recursion there.
    """

    node_ids: tuple[str, ...]
    value: float
    children: tuple[Community, ...]
    history: tuple[float, ...]

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
    lower value exists, down to level _MAX_DEPTH.  Each partitioned
    network is cut into all its module subnetworks at once by
    :meth:`FlowNetwork.split`, so a level costs one pass over its nodes
    and links, however many modules it has.  A network with no links (or
    a single node) is a single irreducible community.
    """
    if net.n_nodes == 0:
        raise ValueError("cannot detect communities in an empty network")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    all_nodes = tuple(range(net.n_nodes))
    if net.n_links == 0:
        root = Community(level=1, members=all_nodes, irreducible=True)
        return CommunityTree(
            node_ids=net.node_ids, value=0.0, children=(root,), history=(0.0,)
        )
    walk = build_walk(net, kind)
    labels, value, history = _best_partition(walk, (seed,), trials)

    def build(
        parent_net: FlowNetwork,
        to_root: np.ndarray,
        labels_p: np.ndarray,
        level: int,
        path: tuple[int, ...],
    ) -> tuple[Community, ...]:
        out = []
        for m, (idx, sub) in enumerate(parent_net.split(labels_p)):
            children: tuple[Community, ...] = ()
            irreducible = True
            if idx.size > 1 and level < _MAX_DEPTH and sub.n_links > 0:
                sub_walk = build_walk(sub, kind)
                sub_labels, sub_value, _ = _best_partition(sub_walk, (seed, *path, m), trials)
                if int(sub_labels.max()) > 0:
                    single = _value_for(sub_walk, np.zeros(sub.n_nodes, np.int64))
                    if sub_value < single - _MIN_GAIN:
                        children = build(sub, to_root[idx], sub_labels, level + 1, (*path, m))
                        irreducible = False
            out.append(
                Community(
                    level=level,
                    members=tuple(to_root[idx].tolist()),
                    irreducible=irreducible,
                    children=children,
                )
            )
        return tuple(out)

    children = build(net, np.arange(net.n_nodes), labels, 1, ())
    return CommunityTree(
        node_ids=net.node_ids,
        value=value,
        children=children,
        history=tuple(history),
    )


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
            "levels": [
                {
                    "level": r.level,
                    "communities": r.communities,
                    "irreducible": r.irreducible,
                    "accounts": r.accounts,
                    "ratio": r.ratio,
                }
                for r in self.rows
            ],
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
    level_counter = dict.fromkeys(range(1, max_level + 1), 0)
    leaf_counter = 0
    paths: dict[int, tuple[list[str], str]] = {}

    def assign(comm: Community, prefix: list[str]) -> None:
        nonlocal leaf_counter
        level_counter[comm.level] += 1
        here = prefix + [str(level_counter[comm.level])]
        if comm.irreducible:
            leaf_counter += 1
            for node in comm.members:
                paths[node] = (here, str(leaf_counter))
        else:
            for child in comm.children:
                assign(child, here)

    for comm in tree.children:
        assign(comm, [])
    header = ["node_id"] + [f"level_{k}" for k in range(1, max_level + 1)]
    header.append("irreducible")
    rows = [header]
    for node in range(tree.n_nodes):
        levels, leaf = paths[node]
        padded = levels + [""] * (max_level - len(levels))
        rows.append([tree.node_ids[node], *padded, leaf])
    return rows
