"""Bowtie decomposition of a directed network into GSCC, IN, OUT and TE.

Every node of the giant weakly connected component (GWCC) is assigned to
exactly one of four classes: the largest strongly connected component
(GSCC), the upstream nodes that reach it (IN), the downstream nodes it
reaches (OUT), and the remaining tendrils (TE).  Nodes outside the GWCC
get their own label and are excluded from component reports.

All algorithms run on the unweighted adjacency with the
``scipy.sparse.csgraph`` primitives: strong and weak components from
``connected_components``, and IN/OUT membership plus hop distances from
an unweighted multi-source ``dijkstra`` (a BFS) out of the GSCC along
forward and reversed links.  csgraph is imported inside the functions
that use it, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .network import FlowNetwork

if TYPE_CHECKING:
    import scipy.sparse as sp

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

    csgraph numbers classes in an order of its own; this one makes labels
    deterministic, and ``_largest_class`` breaks ties by it.
    """
    first = np.unique(labels, return_index=True)[1]
    remap = np.empty(ncomp, dtype=np.int64)
    remap[np.argsort(first)] = np.arange(ncomp)
    return remap[labels], ncomp


def _components(adj: sp.spmatrix, **kwargs) -> tuple[np.ndarray, int]:
    """``connected_components(adj, **kwargs)`` as (labels, count), renumbered."""
    from scipy.sparse.csgraph import connected_components

    ncomp, labels = connected_components(adj, **kwargs)
    return _numbered_by_smallest_member(labels, ncomp)


def strongly_connected_components(net: FlowNetwork) -> tuple[np.ndarray, int]:
    """Maximal mutual-reachability classes: (label per node, class count).

    Labels are normalized by smallest member index, so the output is
    deterministic for a given network.
    """
    return _components(net.adjacency, connection="strong")


def weakly_connected_components(net: FlowNetwork) -> tuple[np.ndarray, int]:
    """Connected classes of the symmetrized adjacency: (labels, count)."""
    return _components(net.adjacency, connection="weak")


def _largest_class(labels: np.ndarray, ncomp: int, member_mask: np.ndarray | None = None) -> int:
    """Class id with the most members; ties go to the smallest id.

    Because ids are ordered by minimum member index, the tie winner is the
    class containing the smallest node index.
    """
    members = labels if member_mask is None else labels[member_mask]
    return int(np.argmax(np.bincount(members, minlength=ncomp)))


def _hops(adj: sp.spmatrix, sources: np.ndarray) -> np.ndarray:
    """Multi-source hop distance along the links of adj; unreachable -1."""
    from scipy.sparse.csgraph import dijkstra

    dist = dijkstra(adj, indices=sources, unweighted=True, min_only=True)
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


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

    scc, n_scc = strongly_connected_components(net)
    gscc_id = _largest_class(scc, n_scc, member_mask=in_gwcc)
    gscc_nodes = np.flatnonzero(scc == gscc_id)

    dist_from_gscc = _hops(net.adjacency, gscc_nodes)
    dist_to_gscc = _hops(net.adjacency.T, gscc_nodes)

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
    dist_to = _hops(net.adjacency.T, gscc_nodes)
    dist_from = _hops(net.adjacency, gscc_nodes)

    def _hist(nodes: np.ndarray, dist: np.ndarray) -> dict[int, int]:
        values, counts = np.unique(dist[nodes], return_counts=True)
        return {int(d): int(c) for d, c in zip(values, counts)}

    return DistanceProfile(
        in_to_gscc=_hist(partition.members(IN), dist_to),
        gscc_to_out=_hist(partition.members(OUT), dist_from),
    )
