"""Synthetic transfer logs with planted, recoverable structure.

Two wiring modes share the record/coordinate machinery.  The walnut mode
builds a strongly connected core (one seeded cycle plus heavy-tailed
extra edges), wires IN skins into the core and OUT skins from it at
distance 1 or 2, hangs tendrils off the skins, and leaves a remainder in
tiny components outside the GWCC, so every planted class is exact by
construction.  The block mode plants flat or two-level community blocks
instead.  Either way nodes get coordinates (clustered cities over a
bounding box plus uniform background), links get periodic or one-off
schedules over a fixed 29-month window, and amounts are lognormal yen.

Everything is drawn from one seeded generator: an identical spec yields
a byte-identical log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bowtie import COMPONENT_NAMES
from .geonmf import DEFAULT_BOUNDS
from .ingest import TIME_DTYPE, TransferTable, write_records

__all__ = [
    "MONTHS_IN_WINDOW",
    "MONTHLY_EVENTS",
    "BIWEEKLY_EVENTS",
    "CitySpec",
    "ScenarioSpec",
    "GroundTruth",
    "generate",
    "write_records",
    "walnut_scenario",
    "cities_scenario",
    "blocks_scenario",
]

MONTHS_IN_WINDOW = 29  # March 2017 through July 2019
MONTHLY_EVENTS = MONTHS_IN_WINDOW
BIWEEKLY_EVENTS = 2 * MONTHS_IN_WINDOW

_WINDOW_START = np.datetime64("2017-03", "M")
# the minute each month of the window starts at, counted from its start
_MONTH_STARTS = (
    (_WINDOW_START + np.arange(MONTHS_IN_WINDOW)).astype("datetime64[m]") - _WINDOW_START
).astype(np.int64)

_LINKS_PER_CORE_NODE = 3.0  # heavy-tailed extra core edges per core node
_SKIN_DIRECT_FRACTION = 0.96  # IN/OUT skin nodes at distance 1 from the core
_HUB_LINKS = 300  # targets the hub pays monthly, capped by the pool
_AMOUNT_LOG_MEAN = 11.5  # lognormal yen amounts
_AMOUNT_LOG_SIGMA = 2.0


@dataclass(frozen=True)
class CitySpec:
    """A gaussian population cluster: center, spread in km, node share."""

    lat: float
    lon: float
    spread_km: float
    share: float


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything the generator needs; block mode overrides walnut wiring.

    gscc/in/out/te fractions must sum to at most 1, the remainder living
    in 2-3 node components outside the GWCC.  degree_exponent is the
    density exponent of the planted core degree tail (CCDF slope is
    1 - exponent).  community_blocks, when nonempty, switches to block
    wiring: a flat tuple of sizes, or tuples of sub-block sizes for one
    extra hierarchy level; sizes must sum to the node count.
    """

    n_nodes: int = 2000
    gscc_frac: float = 0.382
    in_frac: float = 0.149
    out_frac: float = 0.373
    te_frac: float = 0.096
    degree_exponent: float = 2.5
    periodic_share: float = 0.25
    biweekly_fraction: float = 0.5
    cities: tuple[CitySpec, ...] = ()
    intra_city_bias: float = 0.85
    hub_outflow: bool = False
    community_blocks: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("need at least two accounts")
        fracs = (self.gscc_frac, self.in_frac, self.out_frac, self.te_frac)
        if any(not 0.0 <= f <= 1.0 for f in fracs):
            raise ValueError("walnut fractions must lie in [0, 1]")
        if sum(fracs) > 1.0 + 1e-9:
            raise ValueError("walnut fractions must sum to at most 1")
        for share in (self.periodic_share, self.biweekly_fraction, self.intra_city_bias):
            if not 0.0 <= share <= 1.0:
                raise ValueError("shares must lie in [0, 1]")
        if self.degree_exponent <= 1.0:
            raise ValueError("degree exponent must exceed 1")
        if sum(c.share for c in self.cities) > 1.0 + 1e-9:
            raise ValueError("city shares must sum to at most 1")
        if self.community_blocks:
            total = sum(
                sum(b) if isinstance(b, (tuple, list)) else b
                for b in self.community_blocks
            )
            if total != self.n_nodes:
                raise ValueError("block sizes must sum to the node count")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def walnut_sizes(self) -> tuple[int, int, int, int, int]:
        """Accounts in the GSCC, IN, OUT, TE and outside the GWCC, each fraction's
        share of n_nodes rounded; ValueError when no walnut can be wired from them."""
        n = self.n_nodes
        fracs = (self.gscc_frac, self.in_frac, self.out_frac, self.te_frac)
        sizes = [int(round(f * n)) for f in fracs]
        while sum(sizes) > n:
            sizes[sizes.index(max(sizes))] -= 1
        # one node left over by the rounding, where the fractions ask for none
        # outside the GWCC, joins the largest class
        if n - sum(sizes) == 1 and round((1.0 - sum(fracs)) * n) == 0:
            sizes[sizes.index(max(sizes))] += 1
        n_core, n_in, n_out, n_te = sizes
        n_outside = n - sum(sizes)
        if self.gscc_frac > 0 and n_core < 2:
            raise ValueError("GSCC fraction leaves fewer than 2 nodes; no cycle fits")
        if n_core < 2:
            raise ValueError("walnut wiring needs a core of at least 2 nodes")
        if n_te > 0 and n_in == 0 and n_out == 0:
            raise ValueError("tendrils need a nonempty IN or OUT side to hang from")
        if n_outside == 1:
            raise ValueError("exactly one node outside the GWCC cannot form a component; "
                             "adjust fractions")
        return n_core, n_in, n_out, n_te, n_outside


@dataclass(frozen=True)
class GroundTruth:
    """Planted structure, keyed by account id.

    bowtie maps nodes to GSCC/IN/OUT/TE/outside_GWCC (walnut mode only);
    communities maps nodes to their block path, one int per level (block
    mode only); city is the city index, -1 for background nodes.
    """

    mode: str
    n_nodes: int
    bowtie: dict[str, str] | None
    skin_distance: dict[str, int] | None
    communities: dict[str, tuple[int, ...]] | None
    city: dict[str, int]
    hub: str | None
    hub_targets: int
    monthly_links: int
    biweekly_links: int
    component_counts: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_nodes": self.n_nodes,
            "bowtie": self.bowtie,
            "skin_distance": self.skin_distance,
            "communities": {k: list(v) for k, v in self.communities.items()}
            if self.communities is not None
            else None,
            "city": self.city,
            "hub": self.hub,
            "hub_targets": self.hub_targets,
            "monthly_links": self.monthly_links,
            "biweekly_links": self.biweekly_links,
            "component_counts": self.component_counts,
        }


def _node_name(i: int) -> str:
    return f"F{i:06d}"


def _pareto_weights(rng: np.random.Generator, n: int, exponent: float) -> np.ndarray:
    # attractiveness with tail index exponent - 1 gives degrees with
    # density exponent ~ exponent
    u = rng.random(n)
    return (1.0 - u) ** (-1.0 / (exponent - 1.0))


def _cdf(weights: np.ndarray) -> np.ndarray:
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _walnut_edges(spec: ScenarioSpec, rng, city_of: np.ndarray):
    """Edges, skin distances and class sizes, nodes numbered class by class."""
    n = spec.n_nodes
    n_core, n_in, n_out, n_te, n_outside = sizes = spec.walnut_sizes()

    core = np.arange(n_core)
    in_lo, in_hi = n_core, n_core + n_in
    out_lo, out_hi = in_hi, in_hi + n_out
    te_lo, te_hi = out_hi, out_hi + n_te
    outside_lo = te_hi

    biased = bool(spec.cities) and spec.intra_city_bias > 0
    core_cities = {
        int(c): np.flatnonzero(city_of[:n_core] == c) for c in np.unique(city_of[:n_core])
    } if biased else {}

    # One Hamiltonian cycle through the core guarantees the SCC.  With
    # cities the visiting order groups nodes by city, so only the few
    # boundary hops cross city lines and flows stay geographically local.
    if biased:
        perm = np.concatenate([rng.permutation(members) for members in core_cities.values()])
    else:
        perm = rng.permutation(n_core)
    edges: set[tuple[int, int]] = set(zip(perm.tolist(), np.roll(perm, -1).tolist()))

    attract = _pareto_weights(rng, n_core, spec.degree_exponent)
    prob = attract / attract.sum()
    # inverse-cdf sampling instead of rng.choice(p=...): choice rebuilds
    # the cumsum on every call, which is quadratic over the whole wiring
    # pass; searchsorted on a shared cdf draws the identical sequence
    cdf_core = _cdf(attract)
    by_city = {c: (members, _cdf(attract[members])) for c, members in core_cities.items()}

    def core_target(city: int) -> int:
        """Attractiveness-weighted core pick, preferring the given city."""
        if city in by_city:
            members, cdf = by_city[city]
            if members.size > 1 and rng.random() < spec.intra_city_bias:
                k = cdf.searchsorted(rng.random(), side="right")
                return int(members[min(int(k), members.size - 1)])
        k = cdf_core.searchsorted(rng.random(), side="right")
        return min(int(k), n_core - 1)

    n_extra = int(round(_LINKS_PER_CORE_NODE * n_core))
    for s in rng.choice(core, size=n_extra, p=prob, replace=True).tolist():
        t = core_target(int(city_of[s]))
        if t != s:
            edges.add((s, t))

    # most skin nodes link the core directly, the rest link a direct one
    skin_distance: dict[int, int] = {}
    for lo, hi, inward in ((in_lo, in_hi, True), (out_lo, out_hi, False)):
        n_direct = min(hi - lo, max(1, int(round(_SKIN_DIRECT_FRACTION * (hi - lo)))))
        for i in range(lo, hi):
            if i - lo < n_direct:
                other, skin_distance[i] = core_target(int(city_of[i])), 1
            else:
                other, skin_distance[i] = int(rng.integers(lo, lo + n_direct)), 2
            edges.add((i, other) if inward else (other, i))

    def side_parent(lo: int, hi: int, city: int) -> int:
        """Uniform pick from [lo, hi), preferring same-city members."""
        if biased:
            members = np.flatnonzero(city_of[lo:hi] == city)
            if members.size and rng.random() < spec.intra_city_bias:
                return lo + int(rng.choice(members))
        return int(rng.integers(lo, hi))

    te_in = n_te // 2 if n_in > 0 else 0
    if n_out == 0:
        te_in = n_te
    for i in range(te_lo, te_lo + te_in):
        edges.add((side_parent(in_lo, in_hi, int(city_of[i])), i))
    for i in range(te_lo + te_in, te_hi):
        edges.add((i, side_parent(out_lo, out_hi, int(city_of[i]))))

    # the nodes outside the GWCC pair up; an odd one out joins the last pair
    edges.update((i, i + 1) for i in range(outside_lo, n - 1, 2))
    if n_outside % 2:
        edges.add((n - 2, n - 1))
    return edges, skin_distance, dict(zip(COMPONENT_NAMES, sizes))


def _block_edges(spec: ScenarioSpec, rng):
    blocks = spec.community_blocks
    nested = isinstance(blocks[0], (tuple, list))
    edges: set[tuple[int, int]] = set()
    paths: dict[int, tuple[int, ...]] = {}
    all_nodes = np.arange(spec.n_nodes)
    start = 0
    for gi, entry in enumerate(blocks):
        sizes = list(entry) if nested else [entry]
        group_nodes = np.arange(start, start + sum(sizes))
        for si, size in enumerate(sizes):
            members = np.arange(start, start + size)
            start += size
            pool = group_nodes[~np.isin(group_nodes, members)]
            for v in members.tolist():
                paths[v] = (gi, si) if nested else (gi,)
                others = members[members != v]
                # dense blocks, sparse bridges: the split of a two-sub-block
                # group only pays inside the group's own codebook when the
                # crossing share stays well under ~0.2
                k = min(12, others.size)
                if k:
                    for t in rng.choice(others, size=k, replace=False).tolist():
                        edges.add((v, int(t)))
                if nested and pool.size:
                    for t in rng.choice(pool, size=min(2, pool.size), replace=False).tolist():
                        edges.add((v, int(t)))
                if rng.random() < 0.3:
                    t = int(rng.choice(all_nodes))
                    if t != v:
                        edges.add((v, t))
    return edges, paths


def _assign_coords(spec: ScenarioSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) lat/lon array plus per-node city index (-1 = background)."""
    n = spec.n_nodes
    lat_min, lat_max, lon_min, lon_max = DEFAULT_BOUNDS
    coords = np.empty((n, 2))
    coords[:, 0] = rng.uniform(lat_min, lat_max, size=n)
    coords[:, 1] = rng.uniform(lon_min, lon_max, size=n)
    city_of = np.full(n, -1, dtype=np.int64)
    if spec.cities:
        perm = rng.permutation(n)
        pos = 0
        for ci, city in enumerate(spec.cities):
            take = int(round(city.share * n))
            members = perm[pos : pos + take]
            pos += take
            sigma_lat = city.spread_km / 111.32
            sigma_lon = city.spread_km / (111.32 * math.cos(math.radians(city.lat)))
            coords[members, 0] = city.lat + rng.normal(0.0, sigma_lat, members.size)
            coords[members, 1] = city.lon + rng.normal(0.0, sigma_lon, members.size)
            city_of[members] = ci
        np.clip(coords[:, 0], lat_min, lat_max, out=coords[:, 0])
        np.clip(coords[:, 1], lon_min, lon_max, out=coords[:, 1])
    return coords, city_of


def _minute_of_month(day, hour, minute):
    return ((day - 1) * 24 + hour) * 60 + minute


def _event_minutes(rng, periodic: np.ndarray, biweekly: np.ndarray):
    """The edge index and the minute of the window of every event, edge by edge.

    A periodic edge fires every month at a fixed day, hour and minute, a
    biweekly one also 14 days later; a one-off edge fires a geometric
    number of times, each at a month, day, hour and minute of its own.
    Each is one draw over all edges or events, in this order: the fixed
    day, hour and minute of the periodic edges, the event counts of the
    one-off ones, then the month, day, hour and minute of every one-off
    event.
    """
    m = periodic.size
    n_periodic = int(periodic.sum())
    fixed = np.zeros(m, dtype=np.int64)
    fixed[periodic] = _minute_of_month(
        rng.integers(1, np.where(biweekly[periodic], 15, 29)),
        rng.integers(0, 24, size=n_periodic),
        rng.integers(0, 60, size=n_periodic),
    )
    events_per_edge = np.where(biweekly, BIWEEKLY_EVENTS, MONTHLY_EVENTS)
    events_per_edge[~periodic] = rng.geometric(0.75, size=m - n_periodic)

    edge_of = np.repeat(np.arange(m), events_per_edge)
    nth = np.arange(edge_of.size) - (np.cumsum(events_per_edge) - events_per_edge)[edge_of]
    bi = biweekly[edge_of]
    minutes = fixed[edge_of]
    minutes += _MONTH_STARTS[np.where(bi, nth // 2, nth)]
    minutes += 14 * 24 * 60 * (nth % 2) * bi
    one_off = ~periodic[edge_of]
    n_one_off = int(one_off.sum())
    month, day, hour, minute = (
        rng.integers(low, high, size=n_one_off)
        for low, high in ((0, MONTHS_IN_WINDOW), (1, 29), (0, 24), (0, 60))
    )
    minutes[one_off] = _MONTH_STARTS[month] + _minute_of_month(day, hour, minute)
    return edge_of, minutes


def generate(spec: ScenarioSpec) -> tuple[TransferTable, GroundTruth]:
    """Deterministically expand a spec into a transfer table + ground truth."""
    rng = np.random.default_rng(spec.seed)
    coords, city_of = _assign_coords(spec, rng)
    names = [_node_name(i) for i in range(spec.n_nodes)]

    if spec.community_blocks:
        mode = "blocks"
        edges, paths = _block_edges(spec, rng)
        bowtie = None
        skin_distance = None
        counts: dict[str, int] = {}
        hub_pool_hi = spec.n_nodes
    else:
        mode = "walnut"
        edges, dist, counts = _walnut_edges(spec, rng, city_of)
        bowtie = dict(zip(names, (c for c, size in counts.items() for _ in range(size))))
        skin_distance = {names[v]: d for v, d in dist.items()}
        paths = None
        hub_pool_hi = counts["GSCC"]

    hub_node = None
    hub_targets = np.empty(0, dtype=np.int64)
    if spec.hub_outflow:
        hub_node = 0
        lat_min, lat_max, lon_min, lon_max = DEFAULT_BOUNDS
        coords[0] = ((lat_min + lat_max) / 2.0, (lon_min + lon_max) / 2.0)
        pool = np.arange(1, hub_pool_hi)
        take = min(_HUB_LINKS, pool.size)
        hub_targets = rng.choice(pool, size=take, replace=False)
        edges.update((0, t) for t in hub_targets.tolist())

    edge_arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    m = len(edge_arr)
    periodic = rng.random(m) < spec.periodic_share
    biweekly = periodic & (rng.random(m) < spec.biweekly_fraction)
    # the hub pays each of its targets monthly
    on_hub = (edge_arr[:, 0] == 0) & np.isin(edge_arr[:, 1], hub_targets)
    periodic[on_hub] = True
    biweekly[on_hub] = False

    edge_of, minutes = _event_minutes(rng, periodic, biweekly)
    n_events = edge_of.size
    amounts = np.maximum(
        1, rng.lognormal(_AMOUNT_LOG_MEAN, _AMOUNT_LOG_SIGMA, n_events)
    ).astype(np.int64)

    # rows sorted by (time, src, dst, amount): edges are sorted by (src, dst),
    # so the edge index orders pairs, and lexsort is stable, so rows equal in
    # all three keys stay in edge order
    order = np.lexsort((amounts, edge_of, minutes))
    # one tail row per edge, so an event's edge index is its tail code; each
    # column is dropped once sorted, and the minutes become microseconds in
    # place
    tail = edge_of[order].astype(np.int32)
    del edge_of
    amounts = amounts[order]
    stamps = minutes[order]
    del minutes, order
    stamps *= 60_000_000
    stamps += _WINDOW_START.astype(TIME_DTYPE).astype(np.int64)
    src_of_edge, dst_of_edge = edge_arr.astype(np.int32).T
    records = TransferTable.from_codes(
        names,
        src_of_edge[tail],
        dst_of_edge[tail],
        amount=amounts,
        timestamp=stamps.view(TIME_DTYPE),
        tail=tail,
        kinds=np.zeros((m, 2), dtype=np.int8),
        coords=coords[edge_arr],
        has_coord=np.ones((m, 2), dtype=bool),
    )

    truth = GroundTruth(
        mode=mode,
        n_nodes=spec.n_nodes,
        bowtie=bowtie,
        skin_distance=skin_distance,
        communities={names[v]: p for v, p in paths.items()} if paths else None,
        city={names[v]: int(city_of[v]) for v in range(spec.n_nodes)},
        hub=names[hub_node] if hub_node is not None else None,
        hub_targets=len(hub_targets),
        monthly_links=int((periodic & ~biweekly).sum()),
        biweekly_links=int(biweekly.sum()),
        component_counts=counts,
    )
    return records, truth


def walnut_scenario(n_nodes: int = 2000, seed: int = 0, **overrides) -> ScenarioSpec:
    """Core-and-skins wiring at the reference class proportions."""
    return ScenarioSpec(n_nodes=n_nodes, seed=seed, **overrides)


def cities_scenario(
    n_nodes: int = 3000,
    seed: int = 0,
    n_cities: int = 6,
    hub: bool = True,
    **overrides,
) -> ScenarioSpec:
    """Walnut wiring plus clustered cities and an optional central hub.

    City centers sit far enough apart that a 10 km circle captures one
    city only; the hub sends monthly transfers to core nodes everywhere.
    """
    centers = [
        (34.12, 135.12),
        (34.12, 135.55),
        (34.16, 135.88),
        (34.50, 135.10),
        (34.52, 135.90),
        (34.85, 135.30),
        (34.85, 135.70),
        (34.48, 135.48),
    ]
    if not 1 <= n_cities <= len(centers):
        raise ValueError(f"supported city counts are 1..{len(centers)}")
    # nearly all accounts live in a city: a large diffuse background would
    # show up as its own delocalized factor next to the hub's
    share = 0.94 / n_cities
    cities = tuple(
        CitySpec(lat=lat, lon=lon, spread_km=2.5, share=share)
        for lat, lon in centers[:n_cities]
    )
    defaults = dict(
        cities=cities,
        hub_outflow=hub,
        periodic_share=0.4,
        intra_city_bias=0.9,
    )
    defaults.update(overrides)
    return ScenarioSpec(n_nodes=n_nodes, seed=seed, **defaults)


def blocks_scenario(
    n_nodes: int = 240,
    seed: int = 0,
    n_blocks: int = 4,
    nested: bool = False,
    **overrides,
) -> ScenarioSpec:
    """Equal community blocks; nested=True groups them pairwise."""
    if n_blocks < 1:
        raise ValueError("blocks scenario needs at least one block")
    if n_nodes % n_blocks:
        raise ValueError("node count must divide evenly into blocks")
    size = n_nodes // n_blocks
    if nested:
        if n_blocks % 2:
            raise ValueError("nested layout pairs blocks; use an even count")
        blocks = tuple((size, size) for _ in range(n_blocks // 2))
    else:
        blocks = tuple(size for _ in range(n_blocks))
    # no periodic links here: a 29x-weight payroll link inside an otherwise
    # uniform block reads as a module of its own and shreds the planting
    defaults = dict(periodic_share=0.0)
    defaults.update(overrides)
    return ScenarioSpec(
        n_nodes=n_nodes, seed=seed, community_blocks=blocks, **defaults
    )
