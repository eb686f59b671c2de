"""Weighted directed flow network and its descriptive statistics.

A :class:`FlowNetwork` is the link table: the accounts appearing in an
aggregated link set, and the links as parallel arrays (source index,
destination index, flow in yen, transfer frequency).  :func:`build_network`
checks that a table is fit for analysis.  The graph analyses read the
links unweighted and free of self-loops; both weights live on the link
arrays.

Statistics follow the population convention throughout: moments divide by
n, skewness is m3 / m2^1.5 and kurtosis is the non-excess m4 / m2^2 (a
normal distribution scores 3, not 0).  CCDFs are computed over distinct
observed values with inclusive comparison, fraction(v) = P(x >= v).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "AggregatedLink",
    "FlowNetwork",
    "SummaryStats",
    "Ccdf",
    "build_network",
    "degree_stats",
    "net_flow_per_node",
    "ccdf",
    "summary",
    "degree_correlation",
]

INT64_MAX = 2**63 - 1


class DuplicateLinkError(ValueError):
    """An ordered pair appeared more than once in the link set."""


@dataclass(frozen=True)
class AggregatedLink:
    """Aggregate of all transfers for one ordered account pair.

    flow is the summed amount in yen, frequency the number of transfers;
    flow >= frequency >= 1 because every transfer moves at least 1 yen.
    """

    source: str
    destination: str
    flow: int
    frequency: int


def _exact_ints(values) -> np.ndarray:
    """int64 array, or an object array of Python ints past int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


@dataclass(frozen=True, eq=False, repr=False)
class FlowNetwork:
    """The link table: node-indexed weighted directed links.

    node_ids maps index -> account id (sorted lexicographically); src/dst/
    freq are int64 arrays of length M, flow int64 yen or, past int64, an
    object array of Python ints.  :func:`build_network` checks a network
    for analysis.  ``len`` is the link count, iteration yields one
    :class:`AggregatedLink` per link, and two networks are ``==`` when
    they hold the same links in the same order.
    """

    node_ids: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    flow: np.ndarray
    freq: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_links(self) -> int:
        return int(self.src.shape[0])

    def __len__(self) -> int:
        return self.n_links

    def __iter__(self) -> Iterator[AggregatedLink]:
        ids = self.node_ids
        columns = (col.tolist() for col in (self.src, self.dst, self.flow, self.freq))
        for s, d, f, q in zip(*columns):
            yield AggregatedLink(source=ids[s], destination=ids[d], flow=f, frequency=q)

    def __eq__(self, other):
        if not isinstance(other, FlowNetwork):
            return NotImplemented
        ids, other_ids = (np.array(net.node_ids, dtype=object) for net in (self, other))
        return all(np.array_equal(a, b) for a, b in (
            (ids[self.src], other_ids[other.src]), (ids[self.dst], other_ids[other.dst]),
            (self.flow, other.flow), (self.freq, other.freq),
        ))

    __hash__ = None

    def __repr__(self) -> str:
        return f"FlowNetwork({self.n_links} links, {self.n_nodes} accounts)"

    def weights(self, kind: str) -> np.ndarray:
        """Per-link weight array B: 'flow' -> f_ij, 'frequency' -> g_ij."""
        if kind == "flow":
            return self.flow
        if kind == "frequency":
            return self.freq
        raise ValueError(f"unknown weight kind {kind!r}")

    def blocks(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, "FlowNetwork"]:
        """(members, starts, union): the disjoint union of the induced
        subnetworks of modules 0..max(labels).

        Union node k is node members[k]; module m holds union nodes
        starts[m]:starts[m + 1], its members in ascending order.  The
        links with both ends in one module are grouped by module and keep
        their order in this network.  Nodes labelled -1 belong to no
        module and are left out.  One pass over the nodes and one over the
        links serve all modules.
        """
        labels = np.asarray(labels, dtype=np.int64)
        kept = np.flatnonzero(labels >= 0)
        order = kept[np.argsort(labels[kept], kind="stable")]
        starts = np.concatenate(([0], np.cumsum(np.bincount(labels[kept]))))
        pos = np.empty(self.n_nodes, dtype=np.int64)
        pos[order] = np.arange(order.size)
        module = labels[self.src]
        inner = np.flatnonzero((module == labels[self.dst]) & (module >= 0))
        inner = inner[np.argsort(module[inner], kind="stable")]
        ids = np.array(self.node_ids, dtype=object)[order].tolist()
        union = FlowNetwork(
            tuple(ids), pos[self.src[inner]], pos[self.dst[inner]],
            self.flow[inner], self.freq[inner],
        )
        return order, starts, union


def build_network(net: FlowNetwork) -> FlowNetwork:
    """The link table checked for analysis and sorted by (src, dst).

    A network that already passes is returned unchanged.  Raises
    :class:`DuplicateLinkError` on a repeated ordered pair (broken
    aggregation upstream) and ValueError on a self-loop or a flow beyond
    int64.
    """
    ids = net.node_ids
    loops = np.flatnonzero(net.src == net.dst)
    if loops.size:
        raise ValueError(f"self-loop link {ids[net.src[loops[0]]]!r} -> itself")
    try:
        flow = np.asarray(net.flow, dtype=np.int64)
    except OverflowError:
        k = next(k for k, f in enumerate(net.flow.tolist()) if not -(2**63) <= f < 2**63)
        raise ValueError(
            f"link {ids[net.src[k]]!r} -> {ids[net.dst[k]]!r}: "
            f"flow {net.flow[k]} exceeds the int64 range"
        ) from None
    key = net.src * max(net.n_nodes, 1) + net.dst
    if np.all(key[1:] > key[:-1]):
        return net if flow is net.flow else replace(net, flow=flow)
    order = np.argsort(key, kind="stable")
    dup = np.flatnonzero(np.diff(key[order]) == 0)
    if dup.size:
        k = order[dup[0]]
        raise DuplicateLinkError(f"duplicate link {ids[net.src[k]]!r} -> {ids[net.dst[k]]!r}")
    return FlowNetwork(ids, net.src[order], net.dst[order], flow[order], net.freq[order])


def degree_stats(net: FlowNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node (in_degree, out_degree, net_degree = in - out)."""
    out_deg = np.bincount(net.src, minlength=net.n_nodes).astype(np.int64)
    in_deg = np.bincount(net.dst, minlength=net.n_nodes).astype(np.int64)
    return in_deg, out_deg, in_deg - out_deg


def net_flow_per_node(net: FlowNetwork, kind: str = "flow") -> np.ndarray:
    """Per-node incoming minus outgoing weight, exact.

    Sums in int64 when no balance can pass INT64_MAX (the largest weight
    times the link count does not), else in Python ints, an object array.
    Sums to zero over all nodes because every link contributes once with
    each sign.
    """
    w = net.weights(kind)
    wide = bool(w.size) and max(int(w.max()), -int(w.min())) * w.size > INT64_MAX
    if wide:
        w = w.astype(object)
    bal = np.zeros(net.n_nodes, dtype=object if wide else np.int64)
    np.add.at(bal, net.dst, w)
    np.subtract.at(bal, net.src, w)
    return bal


@dataclass(frozen=True)
class Ccdf:
    """Complementary cumulative distribution over distinct observed values.

    fraction[k] = P(x >= value[k]); fractions are non-increasing, start at
    1.0 for the minimum observed value, and stay strictly positive.
    """

    values: np.ndarray
    fractions: np.ndarray


def ccdf(values: Iterable[float] | np.ndarray) -> Ccdf:
    """CCDF of a nonempty multiset, inclusive convention."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if arr.size == 0:
        raise ValueError("ccdf of an empty multiset is undefined")
    uniq, counts = np.unique(arr, return_counts=True)
    # count of x >= v for each distinct v: total minus count of strictly smaller
    below = np.concatenate(([0], np.cumsum(counts)[:-1]))
    frac = (arr.size - below) / arr.size
    return Ccdf(values=uniq, fractions=frac)


@dataclass(frozen=True)
class SummaryStats:
    """Population-convention summary of a multiset.

    skewness/kurtosis are None when the variance is zero (undefined, not 0).
    """

    n: int
    minimum: float
    maximum: float
    median: float
    mean: float
    std: float
    skewness: float | None
    kurtosis: float | None

    def as_dict(self) -> dict[str, float | int | None]:
        return {
            "n": self.n,
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
            "mean": self.mean,
            "std": self.std,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
        }


def summary(values: Iterable[float] | np.ndarray) -> SummaryStats:
    """Min/max/median plus population moments of a multiset.

    Moments divide by n; skewness = m3 / m2^1.5, kurtosis = m4 / m2^2
    (non-excess).  Requires at least 1 value; one value has std 0.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("summary requires at least 1 value")
    mean = float(arr.mean())
    centered = arr - mean
    square = centered * centered
    m2 = float(np.mean(square))
    skew: float | None
    kurt: float | None
    if m2 == 0.0:
        skew = None
        kurt = None
    else:
        # products, not powers: numpy's AVX-512 loop computes x**4 as
        # (x x)(x x) and its baseline loop as ((x x) x) x
        m3 = float(np.mean(square * centered))
        m4 = float(np.mean(square * square))
        skew = m3 / m2**1.5
        kurt = m4 / m2**2
    return SummaryStats(
        n=int(arr.size),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=float(np.median(arr)),
        mean=mean,
        std=float(np.sqrt(m2)),
        skewness=skew,
        kurtosis=kurt,
    )


def _tie_pairs(counts: np.ndarray) -> int:
    """Pairs within groups of the given sizes."""
    return int((counts * (counts - 1) // 2).sum())


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall tau-b of two integer arrays from exact pair counts.

    The pairs are counted from the contingency table of the distinct
    values of x and y: a point in cell (a, b) is discordant with every
    point ranked above a in x and below b in y.  For the degrees of a
    network each side has at most sqrt(2 links) + 1 distinct values, so
    the table stays small.  The final expression is scipy.stats.kendalltau's,
    so the value is the same float; only the counting differs.
    """
    xv, xi = np.unique(x, return_inverse=True)
    yv, yi = np.unique(y, return_inverse=True)
    nx, ny = xv.size, yv.size
    table = np.bincount(xi * ny + yi, minlength=nx * ny).reshape(nx, ny)
    # above[a, b]: the points in rows after a and columns before b, for
    # every row a but the last
    above = np.cumsum(table[:0:-1], axis=0)[::-1]
    above = np.cumsum(above, axis=1) - above
    dis = int((table[:-1] * above).sum())
    ntie = _tie_pairs(table)
    xtie = _tie_pairs(table.sum(axis=1))
    ytie = _tie_pairs(table.sum(axis=0))
    size = x.size
    tot = size * (size - 1) // 2
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson r of two float64 arrays; nan below 2 values or at zero variance.

    The sums of products are ``np.sum`` reductions, not dot products, so no
    BLAS kernel and hence no CPU-dependent summation order reaches r.
    """
    if x.size < 2:
        return float("nan")
    sx = x - x.mean()
    sy = y - y.mean()
    denom = np.sqrt(float(np.sum(sx * sx)) * float(np.sum(sy * sy)))
    if denom == 0.0:
        return float("nan")
    return float(np.sum(sx * sy)) / denom


def degree_correlation(net: FlowNetwork) -> tuple[float, float]:
    """(Pearson r, Kendall tau-b) between per-node in- and out-degree.

    Tau-b is the tie-corrected variant; integer degrees tie heavily.
    Returns (nan, nan) when either margin has zero variance.
    """
    if net.n_nodes < 2:
        raise ValueError("degree correlation requires at least 2 nodes")
    in_deg, out_deg, _ = degree_stats(net)
    x = in_deg.astype(np.float64)
    y = out_deg.astype(np.float64)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return (float("nan"), float("nan"))
    return (_pearson(x, y), _kendall_tau_b(in_deg, out_deg))
