"""Geographic origin-destination factorization on a square grid.

Transfers are binned by endpoint coordinates onto a K x K lattice over a
bounding box.  Cell (p, q) counts longitude step p and latitude step q,
both 1-based, and flattens to m = p + (q - 1) K.  The cell-pair count
alpha feeds a log-clamped matrix V_mn = ln(max{1, alpha}) whose rows are
origin cells and columns destination cells.  Non-negative factorization
V ~ W H (HALS from an NNDSVD start) yields paired patterns: column w_k
of W lives on origin cells, row h_k of H on destination cells.

Localization scores a pattern by the largest share of its mass inside a
fixed-radius circle centered on any cell center (great-circle distance),
summed as one longitude band per latitude row from cumulative sums;
cosine similarity between w_k and h_k tells whether a factor moves money
within one place or between places.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .network import FlowNetwork

# scipy.sparse is imported inside the functions that build sparse matrices,
# so importing the package does not load it
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "EARTH_RADIUS_KM",
    "DEFAULT_BOUNDS",
    "GAMMA_THRESHOLD",
    "SIMILARITY_THRESHOLD",
    "GeoGrid",
    "GeoFlowMatrix",
    "NmfFactorization",
    "LocalizationResult",
    "LocalizationSummary",
    "SweepRow",
    "haversine_km",
    "bin_transfers",
    "heatmap_of",
    "nmf",
    "localization",
    "similarity_matrix",
    "d_sweep",
    "write_matrix",
    "read_matrix",
    "write_sparse_matrix",
    "read_sparse_matrix",
]

EARTH_RADIUS_KM = 6371.0088

# (lat_min, lat_max, lon_min, lon_max): roughly a 110 km x 90 km box,
# large against the default 10 km localization radius.
DEFAULT_BOUNDS = (34.0, 35.0, 135.0, 136.0)

GAMMA_THRESHOLD = 0.23
SIMILARITY_THRESHOLD = 0.9
_SVD_EXTRA, _SVD_TOL, _SVD_MAX_ROUNDS = 10, 1e-13, 1000


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km; accepts scalars or broadcast arrays."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


@dataclass(frozen=True)
class GeoGrid:
    """K x K cells over a lat/lon bounding box.

    p in 1..K indexes longitude (west to east), q in 1..K latitude (south
    to north); the flat 0-based index is (p - 1) + (q - 1) K.  Points on
    the top/right boundary fall into the last cell.  The box is finite,
    within latitudes [-90, 90] and at most 180 degrees wide.
    """

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    k: int

    def __post_init__(self):
        # false for nan and inf too; localization needs the 180 degree cap
        lat_ok = -90.0 <= self.lat_min < self.lat_max <= 90.0
        if not (lat_ok and 0.0 < self.lon_max - self.lon_min <= 180.0):
            box = (self.lat_min, self.lat_max, self.lon_min, self.lon_max)
            raise ValueError(f"bounding box {box} needs -90 <= S < N <= 90 and 0 < E - W <= 180")
        if self.k < 1:
            raise ValueError("grid needs at least one cell per side")

    @property
    def n_cells(self) -> int:
        return self.k * self.k

    def cells(self, lat, lon) -> np.ndarray:
        """Flat 0-based cell index per point; -1 when out of bounds or nan."""
        lat, lon = np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64)
        inside = (self.lat_min <= lat) & (lat <= self.lat_max)
        inside &= (self.lon_min <= lon) & (lon <= self.lon_max)
        p = (np.where(inside, lon, self.lon_min) - self.lon_min) / (self.lon_max - self.lon_min)
        q = (np.where(inside, lat, self.lat_min) - self.lat_min) / (self.lat_max - self.lat_min)
        p, q = (np.minimum((x * self.k).astype(np.int64), self.k - 1) for x in (p, q))
        return np.where(inside, p + q * self.k, -1)

    def cell_of(self, lat: float, lon: float) -> tuple[int, int] | None:
        """(p, q) of the containing cell, or None when out of bounds."""
        m = int(self.cells(lat, lon))
        return None if m < 0 else (m % self.k + 1, m // self.k + 1)

    def flat_index(self, p: int, q: int) -> int:
        if not (1 <= p <= self.k and 1 <= q <= self.k):
            raise ValueError(f"cell ({p}, {q}) outside 1..{self.k}")
        return (p - 1) + (q - 1) * self.k

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """(latitudes by q, longitudes by p), each length K."""
        step_lat = (self.lat_max - self.lat_min) / self.k
        step_lon = (self.lon_max - self.lon_min) / self.k
        lats = self.lat_min + (np.arange(self.k) + 0.5) * step_lat
        lons = self.lon_min + (np.arange(self.k) + 0.5) * step_lon
        return lats, lons

    def center_of(self, p: int, q: int) -> tuple[float, float]:
        lats, lons = self.centers()
        self.flat_index(p, q)
        return float(lats[q - 1]), float(lons[p - 1])


@dataclass(frozen=True)
class GeoFlowMatrix:
    """Binned cell-pair counts alpha and V = ln(max{1, alpha}).

    Both matrices are K^2 x K^2 sparse, rows = origin cell, columns =
    destination cell.  included/excluded count transfer events (link
    frequencies), the excluded ones having an endpoint out of bounds or
    without coordinates.
    """

    grid: GeoGrid
    alpha: sp.csr_matrix
    V: sp.csr_matrix
    included: int
    excluded: int


def bin_transfers(
    net: FlowNetwork, grid: GeoGrid, coords: Mapping[str, tuple[float, float]]
) -> GeoFlowMatrix:
    """Accumulate transfer frequency between grid cells.

    Links draw endpoint coordinates from ``coords``, looked up once per
    account, and count their full frequency.  Events with an endpoint out
    of bounds or without a coordinate are excluded and tallied.  Counts
    are exact int64 sums over each cell pair's links.
    """
    import scipy.sparse as sp

    missing = repeat((np.nan, np.nan))
    ll = np.array(list(map(coords.get, net.node_ids, missing)), dtype=np.float64).reshape(-1, 2)
    node_cell = grid.cells(ll[:, 0], ll[:, 1])
    src, dst, weight = node_cell[net.src], node_cell[net.dst], net.freq
    n = grid.n_cells
    ok = (src >= 0) & (dst >= 0)
    included, excluded = int(weight[ok].sum()), int(weight[~ok].sum())
    alpha = sp.csr_matrix((weight[ok], (src[ok], dst[ok])), shape=(n, n))
    alpha.sum_duplicates()
    V = alpha.astype(np.float64)
    np.log(np.maximum(1.0, V.data), out=V.data)
    V.eliminate_zeros()
    return GeoFlowMatrix(grid=grid, alpha=alpha, V=V, included=included, excluded=excluded)


def heatmap_of(vec: np.ndarray, grid: GeoGrid) -> np.ndarray:
    """Reshape a K^2 cell vector to a K x K array indexed [q-1, p-1]."""
    return np.asarray(vec, dtype=np.float64).reshape(grid.k, grid.k)


@dataclass(frozen=True)
class NmfFactorization:
    """Result of V ~ W H with factors ordered by descending W column mass.

    iterations counts the updates made; hit_cap is True when they stopped
    at max_iters before the relative change fell to tol.
    """

    d: int
    W: np.ndarray
    H: np.ndarray
    objective: float
    history: tuple[float, ...]
    iterations: int
    hit_cap: bool


def _as_matrix(V) -> sp.csr_matrix:
    import scipy.sparse as sp

    A = V.V if isinstance(V, GeoFlowMatrix) else V if sp.issparse(V) else np.asarray(V, np.float64)
    if A.ndim != 2:
        raise ValueError("V must be a 2-d matrix")
    A = sp.csr_matrix(A, dtype=np.float64)  # one form of V, whatever form it came in
    if not np.isfinite(A.data).all():
        raise ValueError("V must be finite")
    if (A.data < 0).any():
        raise ValueError("V must be non-negative")
    return A


def _nndsvd(A: sp.csr_matrix, d: int) -> tuple[np.ndarray, np.ndarray]:
    """NNDSVD start (Boutsidis & Gallopoulos 2008): W^T and H from A's top d singular triplets.

    Subspace iteration (Halko, Martinsson & Tropp 2011) on A's nonempty rows and columns from
    d + _SVD_EXTRA DCT-II vectors, the first all ones, until every top-d residual |A^T u - s v|
    is within _SVD_TOL of s_1, or for _SVD_MAX_ROUNDS rounds.  Each triplet keeps the larger of
    its positive and negative parts; a pair whose parts are both zero, as past rank(A), is zero.
    """
    rows, cols = np.flatnonzero(A.getnnz(axis=1)), np.flatnonzero(A.getnnz(axis=0))
    B, n = A[rows][:, cols], cols.size
    Q = np.cos(np.pi * np.outer(np.arange(n) + 0.5, np.arange(min(d + _SVD_EXTRA, *B.shape))) / n)
    for _ in range(_SVD_MAX_ROUNDS):
        Q = np.linalg.qr(Q)[0]
        U, s, Zt = np.linalg.svd(B @ Q, full_matrices=False)
        V, Q = Q @ Zt.T, B.T @ U  # B V = U diag(s); B^T U spans the next basis
        if np.all(np.linalg.norm(Q[:, :d] - V[:, :d] * s[:d], axis=0) <= _SVD_TOL * s[:1]):
            break
    Wt, H = np.zeros((d, A.shape[0])), np.zeros((d, A.shape[1]))
    for k in range(min(d, s.size)):
        best = 0.0
        for sign in (1.0, -1.0):
            x, y = np.maximum(sign * U[:, k], 0.0), np.maximum(sign * V[:, k], 0.0)
            nx, ny = np.linalg.norm(x), np.linalg.norm(y)
            if nx * ny > best:
                best, scale = nx * ny, np.sqrt(s[k] * nx * ny)
                Wt[k, rows], H[k, cols] = scale * x / nx, scale * y / ny
    return Wt, H


def _hals_rows(X: np.ndarray, XtV: np.ndarray, XtX: np.ndarray) -> None:
    """Set each row of X in turn, in place, to its clamped least-squares
    value given the rest; X, XtV, XtX is H, W^T V, W^T W or W^T, H V^T, H H^T."""
    for k in range(X.shape[0]):
        X[k] += (XtV[k] - XtX[k] @ X) / max(XtX[k, k], 1e-12)
        np.maximum(X[k], 0.0, out=X[k])


def nmf(V, d: int, max_iters: int = 500, tol: float = 1e-12) -> NmfFactorization:
    """HALS NMF (Cichocki & Phan 2009) minimizing ||V - WH||_F^2 from an NNDSVD start.

    Each iteration updates every row of H, then every column of W; the
    start draws no random numbers.  The objective history includes the
    value before the first update and after each iteration; it is
    non-increasing.  Stops when the relative objective change drops below
    tol.  V may be a GeoFlowMatrix, a scipy sparse matrix, or a dense array.
    """
    A = _as_matrix(V)
    if not 1 <= d <= min(A.shape):
        raise ValueError(f"d={d} outside 1..{min(A.shape)}")
    Wt, H = _nndsvd(A, d)
    norm_v2 = float(A.multiply(A).sum())

    def objective(HVt: np.ndarray, HHt: np.ndarray) -> float:
        # the W update's own products: two sparse products per iteration
        return norm_v2 - 2.0 * float(np.sum(Wt * HVt)) + float(np.sum((Wt @ Wt.T) * HHt))

    history = [objective((A @ H.T).T, H @ H.T)]
    hit_cap = True
    At = A.T
    for _ in range(max_iters):
        _hals_rows(H, (At @ Wt.T).T, Wt @ Wt.T)
        HVt, HHt = (A @ H.T).T, H @ H.T
        _hals_rows(Wt, HVt, HHt)
        history.append(objective(HVt, HHt))
        if abs(history[-2] - history[-1]) <= tol * max(1.0, abs(history[-2])):
            hit_cap = False
            break
    order = np.argsort(-Wt.sum(axis=1), kind="stable")
    return NmfFactorization(
        d=d,
        W=np.ascontiguousarray(Wt[order].T),
        H=H[order],
        objective=history[-1],
        history=tuple(history),
        iterations=len(history) - 1,
        hit_cap=hit_cap,
    )


def _circle_masses(grid: GeoGrid, radius_km: float, X: np.ndarray) -> np.ndarray:
    """Per cell m, the sums of X's columns over the cells within radius_km of m.

    X holds one K^2 cell vector per column.  Center distance depends only
    on the two latitude rows and grows with the longitude offset up to 180
    degrees, so row q2's cells within reach of row q1 form one band
    |dp| <= L(q1, q2).  A K^3 distance table gives every L, and a
    cumulative sum along p gives each band's sum as one difference.
    """
    k = grid.k
    lats, lons = grid.centers()
    # dist[q1, q2, p]: from the westmost cell of row q1 to cell p of row q2
    dist = haversine_km(lats[:, None, None], lons[0], lats[None, :, None], lons)
    half = (dist <= radius_km).sum(axis=2) - 1  # L(q1, q2); -1: row q2 out of reach
    X = np.asarray(X, dtype=np.float64).reshape(k, k, -1)
    csum = np.zeros((k, k + 1, X.shape[2]))
    np.cumsum(X, axis=1, out=csum[:, 1:])
    p, q2 = np.arange(k)[:, None], np.arange(k)[None, :]
    masses = np.empty_like(X)
    for q1 in range(k):
        lo = np.maximum(p - half[q1], 0)
        hi = np.maximum(np.minimum(p + half[q1] + 1, k), lo)
        masses[q1] = (csum[q2, hi] - csum[q2, lo]).sum(axis=1)
    return masses.reshape(k * k, -1)


@dataclass(frozen=True)
class LocalizationResult:
    """Best 10 km-style circle for one basis vector.

    gamma and center are None when the vector has no mass; center is the
    1-based (p, q) of the winning cell, ties resolved to the smallest
    (p, q) lexicographically.
    """

    index: int
    gamma: float | None
    center: tuple[int, int] | None
    heatmap: np.ndarray


@dataclass(frozen=True)
class LocalizationSummary:
    origin: tuple[LocalizationResult, ...]
    destination: tuple[LocalizationResult, ...]
    radius_km: float


def _localize_vector(
    index: int, vec: np.ndarray, grid: GeoGrid, masses: np.ndarray
) -> LocalizationResult:
    total = float(vec.sum())
    heat = heatmap_of(vec, grid)
    if total <= 0.0:
        return LocalizationResult(index=index, gamma=None, center=None, heatmap=heat)
    best = float(masses.max())
    # flat index iterates p fastest; lexicographic (p, q) needs explicit keys
    ties = np.flatnonzero(masses == best).tolist()
    center = min((m % grid.k + 1, m // grid.k + 1) for m in ties)
    return LocalizationResult(index=index, gamma=best / total, center=center, heatmap=heat)


def localization(
    fact: NmfFactorization, grid: GeoGrid, radius_km: float = 10.0
) -> LocalizationSummary:
    """Score every origin column of W and destination row of H.

    All 2d circle masses come from band sums over latitude-row pairs:
    O(K^3 d) time, no array above K^2 x 2d besides a K^3 distance table.
    """
    d = fact.d
    vectors = [*fact.W.T, *fact.H]  # origin columns, then destination rows
    masses = _circle_masses(grid, float(radius_km), np.column_stack(vectors))
    scores = tuple(
        _localize_vector(j % d, vec, grid, masses[:, j]) for j, vec in enumerate(vectors)
    )
    return LocalizationSummary(origin=scores[:d], destination=scores[d:], radius_km=radius_km)


def similarity_matrix(fact: NmfFactorization) -> np.ndarray:
    """S[n, m] = cosine(w_m, h_n); NaN rows/columns mark zero-norm vectors."""
    w_norm = np.linalg.norm(fact.W, axis=0)
    h_norm = np.linalg.norm(fact.H, axis=1)
    S = fact.H @ fact.W
    with np.errstate(invalid="ignore", divide="ignore"):
        S = S / (h_norm[:, None] * w_norm[None, :])
    S[:, w_norm == 0] = np.nan
    S[h_norm == 0, :] = np.nan
    return S


@dataclass(frozen=True)
class SweepRow:
    """Localization and pairing summary for one factor count d."""

    d: int
    objective: float
    gamma_origin: tuple[float | None, ...]
    gamma_destination: tuple[float | None, ...]
    localized_origin: int
    localized_destination: int
    matched_pairs: int
    diagonal_similarity: tuple[float, ...]


def _sweep_row(
    fact: NmfFactorization,
    loc: LocalizationSummary,
    sims: np.ndarray,
) -> SweepRow:
    """Localized factors per side and matched pairs of one factorization."""
    diag = tuple(float(sims[i, i]) for i in range(fact.d))
    g_o = tuple(r.gamma for r in loc.origin)
    g_d = tuple(r.gamma for r in loc.destination)
    return SweepRow(
        d=fact.d,
        objective=fact.objective,
        gamma_origin=g_o,
        gamma_destination=g_d,
        localized_origin=sum(1 for g in g_o if g is not None and g > GAMMA_THRESHOLD),
        localized_destination=sum(1 for g in g_d if g is not None and g > GAMMA_THRESHOLD),
        matched_pairs=sum(1 for s in diag if np.isfinite(s) and s >= SIMILARITY_THRESHOLD),
        diagonal_similarity=diag,
    )


def d_sweep(
    gfm: GeoFlowMatrix,
    d_range: tuple[int, int],
    radius_km: float = 10.0,
    max_iters: int = 500,
    tol: float = 1e-12,
) -> tuple[SweepRow, ...]:
    """Run nmf + localization + similarity for each d in [d_min, d_max].

    nmf draws no random numbers, so each row is the single-d run.
    """
    d_min, d_max = d_range
    if d_min < 1 or d_max < d_min:
        raise ValueError(f"invalid d range [{d_min}, {d_max}]")
    rows = []
    for d in range(d_min, d_max + 1):
        fact = nmf(gfm, d, max_iters=max_iters, tol=tol)
        loc = localization(fact, gfm.grid, radius_km=radius_km)
        sims = similarity_matrix(fact)
        rows.append(_sweep_row(fact, loc, sims))
    return tuple(rows)


def write_matrix(path, M: np.ndarray) -> None:
    """Dense text export: one 'rows cols' header line, then rows of values.

    A matrix with no rows or no columns is its header line alone.
    """
    from .ingest import _write_table

    M = np.asarray(M, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        # one column of no rows writes no line after the header
        _write_table(fh, tuple(map(str, M.shape)), M.T if M.size else np.empty((1, 0)), " ")


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        rows, cols = int(header[0]), int(header[1])
        if rows and cols:
            M = np.loadtxt(fh, ndmin=2)
        elif fh.read().strip():
            raise ValueError(f"matrix header {(rows, cols)} has no cells, but values follow")
        else:
            # loadtxt would read no lines as shape (0, 1), and warn
            M = np.zeros((rows, cols))
    if M.shape != (rows, cols):
        raise ValueError(f"matrix shape {M.shape} does not match header {(rows, cols)}")
    return M


def write_sparse_matrix(path, M: sp.spmatrix) -> None:
    """Triplet text export: 'rows cols nnz' header, then 'i j value' lines."""
    from .ingest import _write_table

    coo = M.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        header = tuple(map(str, (*coo.shape, coo.nnz)))
        _write_table(fh, header, (coo.row[order], coo.col[order], coo.data[order]), " ")


def read_sparse_matrix(path) -> sp.csr_matrix:
    import scipy.sparse as sp

    with open(path, "r", encoding="utf-8") as fh:
        rows, cols, nnz = (int(x) for x in fh.readline().split())
        # loadtxt warns on an empty table, so nnz = 0 skips it
        T = np.loadtxt(fh, ndmin=2) if nnz else np.zeros((0, 3))
    if T.shape != (nnz, 3):
        raise ValueError(f"triplet table shape {T.shape} does not match nnz {nnz}")
    index = T[:, :2]
    if not (np.isfinite(index).all() and (index == np.floor(index)).all()):
        raise ValueError("triplet row or column index is not a whole number")
    i, j = index.astype(np.int64).T
    return sp.csr_matrix((T[:, 2], (i, j)), shape=(rows, cols))
