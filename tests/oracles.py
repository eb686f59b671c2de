"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, direct way (dense
matrices, explicit loops, textbook formulas) and shares no code with the
library.  Tests freeze expectations against these.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

# ---------------------------------------------------------------------------
# statistics


def pearson_r(x, y) -> float:
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return float("nan")
    return sxy / math.sqrt(sxx * syy)


def kendall_tau_b(x, y) -> float:
    """O(n^2) tau-b with explicit concordant/discordant/tie counting."""
    n = len(x)
    conc = disc = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        return float("nan")
    return (conc - disc) / denom


def moments(values) -> dict:
    """Population mean/std/skewness/kurtosis via plain fsum passes."""
    xs = [float(v) for v in values]
    n = len(xs)
    mean = math.fsum(xs) / n
    m2 = math.fsum((v - mean) ** 2 for v in xs) / n
    out = {
        "n": n,
        "min": min(xs),
        "max": max(xs),
        "mean": mean,
        "std": math.sqrt(m2),
    }
    if m2 == 0.0:
        out["skewness"] = None
        out["kurtosis"] = None
    else:
        m3 = math.fsum((v - mean) ** 3 for v in xs) / n
        m4 = math.fsum((v - mean) ** 4 for v in xs) / n
        out["skewness"] = m3 / m2**1.5
        out["kurtosis"] = m4 / m2**2
    return out


def ccdf_points(values) -> list[tuple[float, float]]:
    """(v, P(X >= v)) for each distinct v, by direct counting."""
    xs = [float(v) for v in values]
    n = len(xs)
    return [(v, sum(1 for u in xs if u >= v) / n) for v in sorted(set(xs))]


def adjusted_rand_index(a, b) -> float:
    a = list(a)
    b = list(b)
    n = len(a)
    table: dict[tuple, int] = {}
    row: dict = {}
    col: dict = {}
    for x, y in zip(a, b):
        table[(x, y)] = table.get((x, y), 0) + 1
        row[x] = row.get(x, 0) + 1
        col[y] = col.get(y, 0) + 1
    idx = sum(math.comb(c, 2) for c in table.values())
    ra = sum(math.comb(c, 2) for c in row.values())
    rb = sum(math.comb(c, 2) for c in col.values())
    total = math.comb(n, 2)
    expected = ra * rb / total if total else 0.0
    maximum = (ra + rb) / 2
    if maximum == expected:
        return 1.0
    return (idx - expected) / (maximum - expected)


# ---------------------------------------------------------------------------
# graph structure


def reachability(n: int, edges) -> np.ndarray:
    """Boolean closure R[i, j] = path i -> j (including i == j)."""
    R = np.eye(n, dtype=bool)
    A = np.zeros((n, n), dtype=bool)
    for s, t in edges:
        A[s, t] = True
    while True:
        nxt = R | (R @ A)
        if (nxt == R).all():
            return R
        R = nxt


def bowtie_classes(n: int, edges) -> dict[str, set[int]] | None:
    """Walnut classes from dense reachability; None if the largest GWCC
    or the largest SCC inside it is tied (classification ambiguous)."""
    und: list[set[int]] = [set() for _ in range(n)]
    for s, t in edges:
        und[s].add(t)
        und[t].add(s)
    seen = [False] * n
    comps = []
    for v in range(n):
        if seen[v]:
            continue
        comp = set()
        queue = deque([v])
        seen[v] = True
        while queue:
            u = queue.popleft()
            comp.add(u)
            for w in und[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(comp)
    sizes = sorted((len(c) for c in comps), reverse=True)
    if len(sizes) > 1 and sizes[0] == sizes[1]:
        return None
    gwcc = max(comps, key=len)

    R = reachability(n, edges)
    mutual = R & R.T
    sccs = []
    assigned = [False] * n
    for v in range(n):
        if assigned[v]:
            continue
        members = {u for u in range(n) if mutual[v, u]}
        for u in members:
            assigned[u] = True
        sccs.append(members)
    in_gwcc = [s for s in sccs if next(iter(s)) in gwcc]
    in_gwcc.sort(key=len, reverse=True)
    if len(in_gwcc) > 1 and len(in_gwcc[0]) == len(in_gwcc[1]):
        return None
    gscc = in_gwcc[0]

    some = next(iter(gscc))
    into = {v for v in gwcc if R[v, some]} - gscc
    outof = {v for v in gwcc if R[some, v]} - gscc
    te = gwcc - gscc - into - outof
    outside = set(range(n)) - gwcc
    return {"GSCC": gscc, "IN": into, "OUT": outof, "TE": te, "outside": outside}


def hop_distances(n: int, edges, classes) -> tuple[dict, dict]:
    """IN -> GSCC and GSCC -> OUT shortest hop histograms via plain BFS."""
    fwd: list[list[int]] = [[] for _ in range(n)]
    rev: list[list[int]] = [[] for _ in range(n)]
    for s, t in edges:
        fwd[s].append(t)
        rev[t].append(s)

    def bfs(sources, adj):
        dist = {v: 0 for v in sources}
        queue = deque(sources)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    from_gscc = bfs(classes["GSCC"], fwd)
    to_gscc = bfs(classes["GSCC"], rev)
    in_hist: dict[int, int] = {}
    for v in classes["IN"]:
        d = to_gscc[v]
        in_hist[d] = in_hist.get(d, 0) + 1
    out_hist: dict[int, int] = {}
    for v in classes["OUT"]:
        d = from_gscc[v]
        out_hist[d] = out_hist.get(d, 0) + 1
    return in_hist, out_hist


# ---------------------------------------------------------------------------
# Helmholtz decomposition


def hodge_dense(n: int, edges, weights):
    """Potentials and flow split from dense linear algebra.

    edges are directed (s, t) with positive weights b.  w counts directed
    links per unordered pair (1 or 2), independent of the weights.
    Returns (phi, F, F_gradient, F_circular) as dense arrays; phi is the
    minimum-norm pseudo-inverse solution, which is mean-free on a
    connected graph.
    """
    B = np.zeros((n, n))
    C = np.zeros((n, n))
    for (s, t), b in zip(edges, weights):
        B[s, t] += b
        C[s, t] = 1.0
    F = B - B.T
    w = C + C.T
    L = np.diag(w.sum(axis=1)) - w
    div = F.sum(axis=1)
    phi = np.linalg.pinv(L) @ div
    grad = w * (phi[:, None] - phi[None, :])
    return phi, F, grad, F - grad


# ---------------------------------------------------------------------------
# map equation


def _entropy(probs) -> float:
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


def dense_walk(n: int, edges, weights, tau: float):
    """Stationary state of the teleporting walk from a dense transition
    matrix, solved as a linear system (not power iteration).

    Returns (p, tau_eff, t, step) where step[i, j] is the stationary rate
    of recorded link steps i -> j.
    """
    W = np.zeros((n, n))
    for (s, t_), b in zip(edges, weights):
        W[s, t_] += b
    s_out = W.sum(axis=1)
    t = s_out / s_out.sum()
    tau_eff = np.where(s_out > 0, tau, 1.0)
    P = np.zeros((n, n))
    for i in range(n):
        if s_out[i] > 0:
            P[i] = (1.0 - tau) * W[i] / s_out[i] + tau * t
        else:
            P[i] = t
    # stationary p: solve (P^T - I) p = 0 with sum(p) = 1
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    p, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    step = np.zeros((n, n))
    for i in range(n):
        if s_out[i] > 0:
            step[i] = p[i] * (1.0 - tau) * W[i] / s_out[i]
    return p, tau_eff, t, step


def map_equation_entropy(n: int, edges, weights, labels, tau: float) -> float:
    """Two-level map equation in the literal entropy form.

    L = q H(exit distribution) + sum_m (q_m + p_m) H(module codebook),
    module exits counting both outward link steps and teleport jumps that
    land outside the module.
    """
    p, tau_eff, t, step = dense_walk(n, edges, weights, tau)
    modules = sorted(set(labels))
    q = []
    inner = []
    for m in modules:
        members = [v for v in range(n) if labels[v] == m]
        outside = [v for v in range(n) if labels[v] != m]
        t_in = sum(t[v] for v in members)
        exit_rate = sum(p[v] * tau_eff[v] for v in members) * (1.0 - t_in)
        exit_rate += sum(step[u, v] for u in members for v in outside)
        q.append(exit_rate)
        inner.append((exit_rate, [p[v] for v in members]))
    q_tot = math.fsum(q)
    value = q_tot * _entropy([x / q_tot for x in q]) if q_tot > 0 else 0.0
    for exit_rate, visits in inner:
        total = exit_rate + math.fsum(visits)
        if total > 0:
            value += total * _entropy([x / total for x in [exit_rate] + visits])
    return value


def all_partitions(n: int) -> np.ndarray:
    """Every set partition of n items as restricted growth strings.

    Row-by-row: labels[0] = 0 and labels[i] <= max(labels[:i]) + 1.
    Built by vectorized extension, one position at a time.
    """
    rows = np.zeros((1, 1), dtype=np.int8)
    maxes = np.zeros(1, dtype=np.int8)
    for _ in range(n - 1):
        counts = maxes.astype(np.int64) + 2
        total = int(counts.sum())
        reps = np.repeat(np.arange(rows.shape[0]), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        vals = (np.arange(total) - starts).astype(np.int8)
        rows = np.concatenate([rows[reps], vals[:, None]], axis=1)
        maxes = np.maximum(maxes[reps], vals)
    return rows


class BatchMapEquation:
    """Vectorized map-equation evaluation over many label rows at once.

    Built from the same dense walk as :func:`map_equation_entropy` (whose
    per-partition output it must reproduce; a test asserts that) but
    evaluated with array arithmetic so exhaustive enumeration stays
    feasible up to n = 12.
    """

    def __init__(self, n: int, edges, weights, tau: float):
        p, tau_eff, t, step = dense_walk(n, edges, weights, tau)
        self.n = n
        self.p = p
        self.a = p * tau_eff
        self.t = t
        src, dst, flow = [], [], []
        for i in range(n):
            for j in range(n):
                if step[i, j] > 0 and i != j:
                    src.append(i)
                    dst.append(j)
                    flow.append(step[i, j])
        # self-steps never cross a module boundary, so they are dropped
        self.src = np.array(src, dtype=np.int64)
        self.dst = np.array(dst, dtype=np.int64)
        self.flow = np.array(flow)
        self.node_term = float(np.sum(self.p[self.p > 0] * np.log2(self.p[self.p > 0])))

    @staticmethod
    def _plogp(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = x[pos] * np.log2(x[pos])
        return out

    def values(self, labels: np.ndarray) -> np.ndarray:
        """Map-equation bits for each row of a (rows, n) label matrix."""
        labels = np.asarray(labels, dtype=np.int64)
        rows, n = labels.shape
        k = int(labels.max()) + 1
        onehot = labels[:, :, None] == np.arange(k)[None, None, :]
        P = np.einsum("rnk,n->rk", onehot, self.p)
        A = np.einsum("rnk,n->rk", onehot, self.a)
        T = np.einsum("rnk,n->rk", onehot, self.t)
        if self.src.size:
            ls = labels[:, self.src]
            ext = ls != labels[:, self.dst]
            flat = (np.arange(rows)[:, None] * k + ls).ravel()
            OUT = np.bincount(
                flat, weights=(self.flow[None, :] * ext).ravel(), minlength=rows * k
            ).reshape(rows, k)
        else:
            OUT = np.zeros((rows, k))
        q = A * (1.0 - T) + OUT
        return (
            self._plogp(q.sum(axis=1))
            - 2.0 * self._plogp(q).sum(axis=1)
            + self._plogp(q + P).sum(axis=1)
            - self.node_term
        )


def neighbour_flows(n: int, src, dst, flow) -> list[dict[int, float]]:
    """Per node, every node it links to in either direction, ascending,
    mapped to f(v -> u) + f(u -> v), from one loop over the links."""
    around: list[dict[int, float]] = [{} for _ in range(n)]
    for s, d, f in zip(src, dst, flow):
        around[s][d] = around[s].get(d, 0.0) + f
        around[d][s] = around[d].get(s, 0.0) + f
    return [dict(sorted(nbrs.items())) for nbrs in around]


# ---------------------------------------------------------------------------
# geography


def haversine_reference(lat1, lon1, lat2, lon2) -> float:
    """Great-circle km via the spherical law of cosines (not haversine)."""
    r = 6371.0088
    a1, b1, a2, b2 = map(math.radians, (lat1, lon1, lat2, lon2))
    cosc = math.sin(a1) * math.sin(a2) + math.cos(a1) * math.cos(a2) * math.cos(
        b2 - b1
    )
    return r * math.acos(min(1.0, max(-1.0, cosc)))


def brute_localization(vec, centers, radius_km: float):
    """gamma and best center by looping every candidate circle.

    centers is a list of ((p, q), (lat, lon)) over all cells; vec is the
    K^2 mass vector in the same order.  Ties pick the smallest (p, q).
    """
    total = math.fsum(float(v) for v in vec)
    if total <= 0.0:
        return None, None
    best_gamma = -1.0
    best_pq = None
    for (pq, (clat, clon)) in centers:
        mass = math.fsum(
            float(v)
            for v, (_, (lat, lon)) in zip(vec, centers)
            if haversine_reference(clat, clon, lat, lon) <= radius_km
        )
        gamma = mass / total
        if gamma > best_gamma + 1e-15 or (
            abs(gamma - best_gamma) <= 1e-15 and best_pq is not None and pq < best_pq
        ):
            best_gamma = gamma
            best_pq = pq
    return best_gamma, best_pq


def grid_bin_counts(links, coords, bounds, k: int):
    """Cell-pair event counts of weighted links by a plain loop over links.

    links are (source, destination, weight) triples and coords maps an id
    to (lat, lon).  A point belongs to the grid when it lies inside the
    closed box; its cell is (p - 1) + (q - 1) k with p counting longitude
    steps and q latitude steps, the top and right edges folded into the
    last cell.  Returns ({(origin, destination): count}, included,
    excluded), where an event is excluded when either endpoint has no
    coordinate or falls outside the box.
    """
    lat_min, lat_max, lon_min, lon_max = bounds

    def cell(point):
        if point is None:
            return None
        lat, lon = point
        if not (lat_min <= lat <= lat_max and lon_min <= lon <= lon_max):
            return None
        p = min(math.floor((lon - lon_min) / (lon_max - lon_min) * k), k - 1)
        q = min(math.floor((lat - lat_min) / (lat_max - lat_min) * k), k - 1)
        return p + q * k

    counts: dict[tuple[int, int], int] = {}
    included = excluded = 0
    for source, destination, weight in links:
        origin = cell(coords.get(source))
        target = cell(coords.get(destination))
        if origin is None or target is None:
            excluded += weight
            continue
        counts[(origin, target)] = counts.get((origin, target), 0) + weight
        included += weight
    return counts, included, excluded


# ---------------------------------------------------------------------------
# NMF start


def nndsvd_dense(V, d: int) -> tuple[np.ndarray, np.ndarray]:
    """NNDSVD start (Boutsidis & Gallopoulos 2008) from a full dense SVD.

    Pair k is sqrt(s_k |x| |y|) times the unit vectors of x and y, the
    non-negative parts of the k-th singular vectors taken with the sign
    (+ on a tie) whose parts have the larger norm product; a pair whose
    parts are both zero is zero.  Returns (W^T, H).
    """
    U, s, Vt = np.linalg.svd(np.asarray(V, dtype=np.float64), full_matrices=False)
    Wt, H = np.zeros((d, U.shape[0])), np.zeros((d, Vt.shape[1]))
    for k in range(d):
        best = None
        for sign in (1.0, -1.0):
            x = [max(sign * float(u), 0.0) for u in U[:, k]]
            y = [max(sign * float(v), 0.0) for v in Vt[k]]
            nx = math.sqrt(math.fsum(a * a for a in x))
            ny = math.sqrt(math.fsum(b * b for b in y))
            if best is None or nx * ny > best[0]:
                best = (nx * ny, x, y, nx, ny)
        product, x, y, nx, ny = best
        if product > 0.0:
            scale = math.sqrt(float(s[k]) * product)
            Wt[k] = [scale * a / nx for a in x]
            H[k] = [scale * b / ny for b in y]
    return Wt, H


# ---------------------------------------------------------------------------
# record layer


def first_coordinates(records) -> tuple[dict, int]:
    """(account -> coordinate, conflicts) by a plain loop over transfer records.

    Endpoints are visited in event order, a transfer's source before its
    destination, and an endpoint without a coordinate is skipped.  The
    first coordinate of an account wins; every later one that differs from
    it in either component by float comparison (so nan never matches)
    counts as a conflict.
    """
    first: dict = {}
    conflicts = 0
    for record in records:
        for account, point in (
            (record.source, record.source_coord),
            (record.destination, record.destination_coord),
        ):
            if point is None:
                continue
            if account not in first:
                first[account] = point
            elif point[0] != first[account][0] or point[1] != first[account][1]:
                conflicts += 1
    return first, conflicts


def coordinate_fields(records) -> list[list[str]]:
    """The four coordinate fields of each record's log line.

    A coordinate is written as the repr of its latitude and longitude, a
    missing one as two empty fields.
    """
    fields = []
    for record in records:
        row = []
        for point in (record.source_coord, record.destination_coord):
            row += ["", ""] if point is None else [repr(point[0]), repr(point[1])]
        fields.append(row)
    return fields
