"""Bowtie decomposition of a directed network into GSCC, IN, OUT and TE.

Every node of the giant weakly connected component (GWCC) is assigned to
exactly one of four classes: the largest strongly connected component
(GSCC), the upstream nodes that reach it (IN), the downstream nodes it
reaches (OUT), and the remaining tendrils (TE).  Nodes outside the GWCC
get their own label and are excluded from component reports.

All algorithms run in numpy on the unweighted links, each direction held
as one CSR (row pointer and neighbour indices):

- weak components by min-root hooking with full pointer jumping, so each
  node's root is its component's smallest member;
- strong components in the multistep scheme of Slota, Rajamanickam and
  Madduri (IPDPS 2014): one trim pass makes every node without an in-link
  or an out-link a class of its own, one forward and one backward reach
  from the untrimmed node with the largest in x out degree give its class
  (in a walnut, the core), and an iterative Tarjan search labels the rest;
- IN/OUT membership and hop distances by a level-synchronous multi-source
  BFS out of the GSCC along forward and reversed links; a path of L links
  takes L levels, so a long chain is the slow case.

No scipy module is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import FlowNetwork

__all__ = [
    "GSCC",
    "IN",
    "OUT",
    "TE",
    "OUTSIDE",
    "COMPONENT_NAMES",
    "BowtiePartition",
    "DistanceProfile",
    "weakly_connected_components",
    "strongly_connected_components",
    "classify_bowtie",
    "distance_profile",
]

GSCC, IN, OUT, TE, OUTSIDE = 0, 1, 2, 3, 4
COMPONENT_NAMES = ("GSCC", "IN", "OUT", "TE", "outside_GWCC")


def _numbered_by_smallest_member(labels: np.ndarray, ncomp: int) -> tuple[np.ndarray, int]:
    """Renumber classes 0..ncomp-1 in order of their smallest member index.

    The kernels below number classes in an order of their own; this one
    makes labels deterministic, and ``_largest_class`` breaks ties by it.
    """
    first = np.unique(labels, return_index=True)[1]
    remap = np.empty(ncomp, dtype=np.int64)
    remap[np.argsort(first)] = np.arange(ncomp)
    return remap[labels], ncomp


def _csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row pointer, neighbours): node v's out-neighbours along the links
    src -> dst are neighbours[pointer[v]:pointer[v + 1]]."""
    pointer = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=pointer[1:])
    return pointer, dst[np.argsort(src, kind="stable")]


def _graphs(net: FlowNetwork) -> tuple[tuple, tuple]:
    """The CSR of the links and the CSR of the reversed links."""
    return _csr(net.n_nodes, net.src, net.dst), _csr(net.n_nodes, net.dst, net.src)


def _hops(graph: tuple[np.ndarray, np.ndarray], sources: np.ndarray) -> np.ndarray:
    """Multi-source hop distance along the links of graph; unreachable -1.

    Level-synchronous BFS: the out-neighbours of each level's frontier
    that have no distance yet form the next frontier, each node once.
    """
    pointer, neighbours = graph
    degree = np.diff(pointer)
    dist = np.full(degree.size, -1, dtype=np.int64)
    slot = np.empty(degree.size, dtype=np.int64)
    frontier = np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        starts, counts = pointer[frontier], degree[frontier]
        # the k-th gathered neighbour of a frontier node v sits at starts[v] + k
        first = np.cumsum(counts) - counts
        reached = neighbours[np.repeat(starts - first, counts) + np.arange(counts.sum())]
        reached = reached[dist[reached] < 0]
        # every copy of a node writes its position to the node's slot; the
        # copy whose position stays there is the one kept
        position = np.arange(reached.size)
        slot[reached] = position
        frontier = reached[slot[reached] == position]
        dist[frontier] = level
    return dist


def _weak_components(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, int]:
    """Weak components of the links src -- dst: (labels, count), renumbered.

    Every round hooks the larger root of each link whose ends have
    different roots onto the smaller one, then jumps pointers until every
    node points at its root; roots only decrease, so each component's
    root is its smallest member.
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        a, b = parent[src], parent[dst]
        apart = a != b
        if not apart.any():
            break
        a, b = a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    # numbering the roots in order numbers the classes by smallest member
    roots, labels = np.unique(parent, return_inverse=True)
    return labels, roots.size


def _tarjan(graph: tuple[np.ndarray, np.ndarray], label: np.ndarray, ncomp: int) -> int:
    """Label the strong components of the nodes still at -1, from ncomp on;
    returns the new class count.

    Iterative Tarjan.  Links into nodes labelled before the call are
    skipped: those nodes' classes are complete, so no cycle of the rest
    runs through them.
    """
    pointer, neighbours = (a.tolist() for a in graph)
    comp = label.tolist()
    index = [-1] * len(comp)
    low = [0] * len(comp)
    stack: list[int] = []
    count = 0
    for root in np.flatnonzero(label < 0).tolist():
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        path = [(root, pointer[root])]
        while path:
            v, k = path[-1]
            end = pointer[v + 1]
            while k < end:
                w = neighbours[k]
                k += 1
                if comp[w] >= 0:
                    continue
                if index[w] < 0:
                    path[-1] = (v, k)
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    path.append((w, pointer[w]))
                    break
                # w is visited and not yet in a class: it is on the stack
                low[v] = min(low[v], index[w])
            else:
                path.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
    label[:] = comp
    return ncomp


def _strong_components(forward: tuple, backward: tuple) -> tuple[np.ndarray, int]:
    """Strong components of a graph given as its CSR and its reverse's:
    (labels, count), renumbered."""
    out_deg, in_deg = np.diff(forward[0]), np.diff(backward[0])
    label = np.full(out_deg.size, -1, dtype=np.int64)
    # a node without an in-link or an out-link lies on no cycle
    trimmed = np.flatnonzero((in_deg == 0) | (out_deg == 0))
    label[trimmed] = np.arange(trimmed.size)
    ncomp = trimmed.size
    rest = np.flatnonzero(label < 0)
    if rest.size:
        pivot = rest[np.argmax(in_deg[rest] * out_deg[rest])]
        label[(_hops(forward, [pivot]) >= 0) & (_hops(backward, [pivot]) >= 0)] = ncomp
        ncomp = _tarjan(forward, label, ncomp + 1)
    return _numbered_by_smallest_member(label, ncomp)


def strongly_connected_components(net: FlowNetwork) -> tuple[np.ndarray, int]:
    """Maximal mutual-reachability classes: (label per node, class count).

    Labels are normalized by smallest member index, so the output is
    deterministic for a given network.
    """
    return _strong_components(*_graphs(net))


def weakly_connected_components(net: FlowNetwork) -> tuple[np.ndarray, int]:
    """Connected classes of the symmetrized adjacency: (labels, count)."""
    return _weak_components(net.n_nodes, net.src, net.dst)


def _largest_class(labels: np.ndarray, ncomp: int, member_mask: np.ndarray | None = None) -> int:
    """Class id with the most members; ties go to the smallest id.

    Because ids are ordered by minimum member index, the tie winner is the
    class containing the smallest node index.
    """
    members = labels if member_mask is None else labels[member_mask]
    return int(np.argmax(np.bincount(members, minlength=ncomp)))


@dataclass(frozen=True)
class BowtiePartition:
    """Assignment of every node to GSCC / IN / OUT / TE / outside_GWCC.

    ``labels[i]`` is one of the module-level component codes; the four
    walnut classes partition the GWCC exactly.
    """

    labels: np.ndarray

    @property
    def sizes(self) -> dict[str, int]:
        counts = np.bincount(self.labels, minlength=len(COMPONENT_NAMES))
        return {name: int(counts[code]) for code, name in enumerate(COMPONENT_NAMES)}

    @property
    def gwcc_size(self) -> int:
        return int(np.sum(self.labels != OUTSIDE))

    def members(self, code: int) -> np.ndarray:
        return np.flatnonzero(self.labels == code)

    def component_name(self, i: int) -> str:
        return COMPONENT_NAMES[self.labels[i]]


def classify_bowtie(net: FlowNetwork) -> BowtiePartition:
    """Walnut classification of all nodes.

    GSCC is the largest SCC inside the GWCC; IN holds the GWCC nodes with
    a directed path into the GSCC, OUT the nodes the GSCC reaches, TE the
    rest of the GWCC.  |GSCC| + |IN| + |OUT| + |TE| = |GWCC| by
    construction.
    """
    n = net.n_nodes
    if n == 0:
        raise ValueError("cannot classify an empty network")
    wcc, n_wcc = weakly_connected_components(net)
    gwcc_id = _largest_class(wcc, n_wcc)
    in_gwcc = wcc == gwcc_id

    forward, backward = _graphs(net)
    scc, n_scc = _strong_components(forward, backward)
    gscc_id = _largest_class(scc, n_scc, member_mask=in_gwcc)
    gscc_nodes = np.flatnonzero(scc == gscc_id)

    dist_from_gscc = _hops(forward, gscc_nodes)
    dist_to_gscc = _hops(backward, gscc_nodes)

    labels = np.full(n, OUTSIDE, dtype=np.int8)
    labels[in_gwcc] = TE
    labels[in_gwcc & (dist_to_gscc > 0)] = IN
    labels[in_gwcc & (dist_from_gscc > 0)] = OUT
    labels[scc == gscc_id] = GSCC
    return BowtiePartition(labels=labels)


@dataclass(frozen=True)
class DistanceProfile:
    """Hop-distance histograms between the core and its skins.

    ``in_to_gscc[d]`` counts IN nodes whose shortest directed path into
    the GSCC has d hops; ``gscc_to_out[d]`` counts OUT nodes at d hops
    from the GSCC.  Totals equal the component sizes and all d >= 1.
    """

    in_to_gscc: dict[int, int]
    gscc_to_out: dict[int, int]

    @staticmethod
    def _ratios(hist: dict[int, int]) -> dict[int, float]:
        total = sum(hist.values())
        if total == 0:
            return {}
        return {d: c / total for d, c in sorted(hist.items())}

    def in_ratios(self) -> dict[int, float]:
        return self._ratios(self.in_to_gscc)

    def out_ratios(self) -> dict[int, float]:
        return self._ratios(self.gscc_to_out)


def distance_profile(net: FlowNetwork, partition: BowtiePartition) -> DistanceProfile:
    """Shortest distances IN -> GSCC and GSCC -> OUT, as histograms.

    IN distances come from a multi-source BFS on reversed links seeded at
    the GSCC (so a hop count along reversed links equals the forward-path
    length into the core); OUT distances from the forward BFS.
    """
    gscc_nodes = partition.members(GSCC)
    forward, backward = _graphs(net)
    dist_to = _hops(backward, gscc_nodes)
    dist_from = _hops(forward, gscc_nodes)

    def _hist(nodes: np.ndarray, dist: np.ndarray) -> dict[int, int]:
        values, counts = np.unique(dist[nodes], return_counts=True)
        return {int(d): int(c) for d, c in zip(values, counts)}

    return DistanceProfile(
        in_to_gscc=_hist(partition.members(IN), dist_to),
        gscc_to_out=_hist(partition.members(OUT), dist_from),
    )
