"""Grid binning, NMF updates, and localization against brute-force checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from moneyflow import (
    GeoGrid,
    bin_transfers,
    d_sweep,
    haversine_km,
    localization,
    nmf,
    similarity_matrix,
)
from moneyflow.geonmf import (
    DEFAULT_BOUNDS,
    GAMMA_THRESHOLD,
    SIMILARITY_THRESHOLD,
    NmfFactorization,
    _as_matrix,
    _circle_masses,
    _nndsvd,
    read_matrix,
    read_sparse_matrix,
    write_matrix,
    write_sparse_matrix,
)
from moneyflow.ingest import AggregatedLink

from conftest import link_table
from oracles import brute_localization, grid_bin_counts, haversine_reference, nndsvd_dense


def fake_fact(W, H):
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    return NmfFactorization(
        d=W.shape[1], W=W, H=H, objective=0.0, history=(0.0,), iterations=0, hit_cap=False
    )


def grid_centers(grid):
    """((p, q), (lat, lon)) per cell in flat-index order."""
    lats, lons = grid.centers()
    return [
        ((p + 1, q + 1), (float(lats[q]), float(lons[p])))
        for q in range(grid.k)
        for p in range(grid.k)
    ]


class TestHaversine:
    def test_matches_law_of_cosines(self, rng):
        for _ in range(50):
            lat1, lat2 = rng.uniform(-80, 80, size=2)
            lon1, lon2 = rng.uniform(-179, 179, size=2)
            want = haversine_reference(lat1, lon1, lat2, lon2)
            got = float(haversine_km(lat1, lon1, lat2, lon2))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-6)

    def test_tokyo_osaka(self):
        d = float(haversine_km(35.6762, 139.6503, 34.6937, 135.5023))
        assert 390.0 < d < 405.0

    def test_zero_and_symmetry(self):
        assert float(haversine_km(34.5, 135.5, 34.5, 135.5)) == 0.0
        a = float(haversine_km(34.0, 135.0, 35.0, 136.0))
        b = float(haversine_km(35.0, 136.0, 34.0, 135.0))
        assert a == pytest.approx(b, rel=1e-14)

    def test_broadcasts(self):
        lats = np.array([34.0, 34.5, 35.0])
        out = haversine_km(lats, 135.0, 34.0, 135.0)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert np.all(np.diff(out) > 0)


class TestGrid:
    def test_cell_of_corners(self):
        grid = GeoGrid(34.0, 35.0, 135.0, 136.0, k=10)
        assert grid.cell_of(34.0, 135.0) == (1, 1)
        assert grid.cell_of(35.0, 136.0) == (10, 10)  # top edge clamps in
        assert grid.cell_of(34.05, 135.95) == (10, 1)
        assert grid.cell_of(34.95, 135.05) == (1, 10)

    def test_cell_of_out_of_bounds(self):
        grid = GeoGrid(34.0, 35.0, 135.0, 136.0, k=10)
        assert grid.cell_of(33.999, 135.5) is None
        assert grid.cell_of(35.001, 135.5) is None
        assert grid.cell_of(34.5, 134.999) is None
        assert grid.cell_of(34.5, 136.001) is None

    def test_flat_index(self):
        grid = GeoGrid(0.0, 1.0, 0.0, 1.0, k=5)
        assert grid.flat_index(1, 1) == 0
        assert grid.flat_index(2, 1) == 1
        assert grid.flat_index(1, 2) == 5
        assert grid.flat_index(5, 5) == 24
        with pytest.raises(ValueError):
            grid.flat_index(0, 1)
        with pytest.raises(ValueError):
            grid.flat_index(1, 6)

    def test_centers(self):
        grid = GeoGrid(34.0, 35.0, 135.0, 136.0, k=4)
        lats, lons = grid.centers()
        assert lats[0] == pytest.approx(34.125)
        assert lons[-1] == pytest.approx(135.875)
        assert grid.center_of(2, 3) == (pytest.approx(34.625), pytest.approx(135.375))

    def test_validation(self):
        with pytest.raises(ValueError):
            GeoGrid(35.0, 34.0, 135.0, 136.0, k=10)
        with pytest.raises(ValueError):
            GeoGrid(34.0, 35.0, 135.0, 136.0, k=0)

    @pytest.mark.parametrize("box", [
        (34.0, 35.0, 135.0, math.inf),
        (math.nan, 35.0, 135.0, 136.0),
        (34.0, 35.0, -math.inf, 136.0),
        (-100.0, 100.0, 135.0, 136.0),
        (-90.5, 0.0, 135.0, 136.0),
        (0.0, 90.5, 135.0, 136.0),
        (34.0, 35.0, 0.0, 180.5),
        (34.0, 35.0, -120.0, 120.0),
    ])
    def test_rejects_impossible_box(self, box):
        with pytest.raises(ValueError):
            GeoGrid(*box, k=3)

    def test_accepts_widest_box(self):
        # the whole latitude range and half the longitudes are valid
        grid = GeoGrid(-90.0, 90.0, -90.0, 90.0, k=3)
        assert grid.cell_of(90.0, 90.0) == (3, 3)

    def test_cell_center_consistency(self, rng):
        grid = GeoGrid(*DEFAULT_BOUNDS, k=7)
        for _ in range(100):
            lat = float(rng.uniform(34.0, 35.0))
            lon = float(rng.uniform(135.0, 136.0))
            p, q = grid.cell_of(lat, lon)
            clat, clon = grid.center_of(p, q)
            # the point lies within half a cell of its cell's center
            assert abs(lat - clat) <= 0.5 / 7 + 1e-12
            assert abs(lon - clon) <= 0.5 / 7 + 1e-12


class TestBinning:
    grid = GeoGrid(0.0, 2.0, 0.0, 2.0, k=2)

    def test_links_hand_counts(self):
        coords = {
            "a": (0.5, 0.5),   # p=1 q=1 -> 0
            "b": (1.5, 1.5),   # p=2 q=2 -> 3
            "c": (0.5, 1.7),   # p=2 q=1 -> 1
        }
        links = [
            AggregatedLink("a", "b", flow=900, frequency=3),
            AggregatedLink("c", "a", flow=40, frequency=2),
            AggregatedLink("a", "c", flow=10, frequency=1),
        ]
        gfm = bin_transfers(link_table(links), self.grid, coords=coords)
        assert gfm.included == 6
        assert gfm.excluded == 0
        alpha = gfm.alpha.toarray()
        assert alpha[0, 3] == 3
        assert alpha[1, 0] == 2
        assert alpha[0, 1] == 1
        assert alpha.sum() == 6
        V = gfm.V.toarray()
        assert V[0, 3] == pytest.approx(math.log(3))
        assert V[1, 0] == pytest.approx(math.log(2))
        assert V[0, 1] == 0.0  # ln(max(1, 1)) drops out of the sparse V
        assert gfm.V.nnz == 2

    def test_excluded_tally(self):
        coords = {"a": (0.5, 0.5), "b": (2.5, 0.5)}  # b out of bounds
        links = [
            AggregatedLink("a", "b", flow=10, frequency=4),
            AggregatedLink("a", "zz", flow=10, frequency=2),  # no coords
            AggregatedLink("a", "a", flow=10, frequency=5),
        ]
        gfm = bin_transfers(link_table(links), self.grid, coords=coords)
        assert gfm.included == 5
        assert gfm.excluded == 6
        assert gfm.alpha[0, 0] == 5

    def test_conservation(self, rng):
        # included + excluded always accounts for every event
        names = [f"x{i}" for i in range(12)]
        coords = {
            name: (float(rng.uniform(-0.5, 2.5)), float(rng.uniform(-0.5, 2.5)))
            for name in names[:10]  # two nodes lack coordinates entirely
        }
        links = [
            AggregatedLink(
                names[int(rng.integers(12))],
                names[int(rng.integers(12))],
                flow=int(rng.integers(1, 100)),
                frequency=int(rng.integers(1, 9)),
            )
            for _ in range(60)
        ]
        gfm = bin_transfers(link_table(links), self.grid, coords=coords)
        assert gfm.included + gfm.excluded == sum(l.frequency for l in links)
        assert gfm.alpha.sum() == gfm.included


BIN_BOUNDS = (0.0, 2.0, 10.0, 13.0)


def _axis(lo, hi):
    """Values on one axis: both edges, just outside them, inner cell
    boundaries of small grids, nan, and anything near the box."""
    width = hi - lo
    special = [lo, hi, lo - 1e-9, hi + 1e-9, math.nan]
    special += [lo + width * j / n for n in (2, 3, 4) for j in range(1, n)]
    return st.sampled_from(special) | st.floats(lo - 0.5 * width, hi + 0.5 * width)


# "f" never has a coordinate; the others may lack one too
@given(
    links=st.lists(
        st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef"), st.integers(1, 4)),
        max_size=25,
    ),
    coords=st.dictionaries(
        st.sampled_from("abcde"), st.tuples(_axis(*BIN_BOUNDS[:2]), _axis(*BIN_BOUNDS[2:]))
    ),
    k=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_binning_matches_per_link_oracle(links, coords, k):
    # duplicate pairs and self-loops are binned like any other link
    grid = GeoGrid(*BIN_BOUNDS, k=k)
    counts, included, excluded = grid_bin_counts(links, coords, BIN_BOUNDS, k)
    agg = [AggregatedLink(s, d, flow=7 * w, frequency=w) for s, d, w in links]
    gfm = bin_transfers(link_table(agg), grid, coords=coords)
    alpha = gfm.alpha.tocoo()
    got = {(int(i), int(j)): int(v) for i, j, v in zip(alpha.row, alpha.col, alpha.data)}
    assert got == counts
    assert (gfm.included, gfm.excluded) == (included, excluded)
    dense = gfm.alpha.toarray().astype(np.float64)
    assert np.array_equal(gfm.V.toarray(), np.log(np.maximum(1.0, dense)))


def _halving_v(shape, rank, empty=False):
    """V = L diag(2^-k) R from uniform L and R: the top singular values stand well apart.

    With empty, most entries of L and R and some whole rows and columns of V are zero.
    """
    rng = np.random.default_rng(rank)
    L = rng.uniform(0.0, 1.0, size=(shape[0], rank)) * 0.5 ** np.arange(rank)
    R = rng.uniform(0.0, 1.0, size=(rank, shape[1]))
    if empty:
        L[rng.random(L.shape) < 0.8] = 0.0
        R[rng.random(R.shape) < 0.8] = 0.0
        L[:10], R[:, 5:15] = 0.0, 0.0
    return L @ R


def _flat_v(shape, directions, decay):
    """A constant plus orthonormal directions orthogonal to it, scaled decay^k, made >= 0."""
    rng = np.random.default_rng(directions)
    Uo, Vo = (np.linalg.qr(np.column_stack([np.ones(m), rng.standard_normal((m, directions))]))[0]
              for m in shape)
    S = (Uo[:, 1:] * decay ** np.arange(directions)) @ Vo[:, 1:].T
    return S - S.min()


class TestNmf:
    def test_objective_non_increasing(self, rng):
        for _ in range(10):
            V = rng.uniform(0.0, 3.0, size=(8, 7))
            fact = nmf(V, d=3, max_iters=200)
            hist = np.asarray(fact.history)
            slack = 1e-9 * np.maximum(1.0, np.abs(hist[:-1]))
            assert np.all(np.diff(hist) <= slack)
            assert fact.objective == hist[-1]

    # (4, (4, 6)) takes d = min(shape): the start spans V's whole row space
    @pytest.mark.parametrize("d,shape,seed", [(2, (9, 7), 0), (3, (12, 10), 1),
                                              (5, (15, 11), 2), (4, (4, 6), 3)])
    def test_exact_rank_d_recovery(self, d, shape, seed):
        rng = np.random.default_rng(seed)
        V = rng.uniform(0.1, 1.0, size=(shape[0], d)) @ rng.uniform(
            0.1, 1.0, size=(d, shape[1])
        )
        fact = nmf(V, d, max_iters=50000, tol=1e-16)
        rel = np.linalg.norm(V - fact.W @ fact.H) / np.linalg.norm(V)
        assert rel <= 1e-6

    def test_factors_non_negative_and_ordered(self, rng):
        V = rng.uniform(0.0, 2.0, size=(10, 9))
        fact = nmf(V, d=4, max_iters=150)
        assert np.all(fact.W >= 0)
        assert np.all(fact.H >= 0)
        mass = fact.W.sum(axis=0)
        assert np.all(np.diff(mass) <= 1e-12)

    def test_sparse_dense_agree(self, rng):
        V = rng.uniform(0.0, 2.0, size=(9, 9))
        V[V < 1.0] = 0.0
        dense = nmf(V, d=3, max_iters=80, tol=0.0)
        # nmf holds V as one CSR, whatever form it came in
        for form in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            sparse = nmf(form(V), d=3, max_iters=80, tol=0.0)
            assert np.array_equal(sparse.W, dense.W) and np.array_equal(sparse.H, dense.H)
            assert sparse.history == dense.history
        # the start draws no random numbers: a second call repeats every bit
        again = nmf(sp.csr_matrix(V), d=3, max_iters=80, tol=0.0)
        assert np.array_equal(again.W, dense.W) and np.array_equal(again.H, dense.H)

    @pytest.mark.parametrize("V,d", [
        (_halving_v((60, 45), 45), 5),
        (_halving_v((12, 10), 10), 10),
        (_halving_v((6, 9), 6), 6),
        (_halving_v((1, 30), 1), 1),
        (_halving_v((80, 70), 10, empty=True), 7),
        # s_21 / s_10 = 0.85: 30 fixed rounds of iteration left this start ~1e-5 off
        (_flat_v((80, 60), 40, 0.985), 10),
    ], ids=["d-below-min", "d-min-tall", "d-min-wide", "one-row", "sparse-empty-lines",
            "flat-spectrum"])
    def test_start_matches_dense_svd_oracle(self, V, d):
        Wt, H = _nndsvd(_as_matrix(V), d)
        ref_Wt, ref_H = nndsvd_dense(V, d)
        # pair k's norms multiply to s_k |x| |y|: the singular value it uses
        used = np.linalg.norm(Wt, axis=1) * np.linalg.norm(H, axis=1)
        ref = np.linalg.norm(ref_Wt, axis=1) * np.linalg.norm(ref_H, axis=1)
        np.testing.assert_allclose(used, ref, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(Wt, ref_Wt, rtol=0.0, atol=1e-8 * np.abs(ref_Wt).max())
        np.testing.assert_allclose(H, ref_H, rtol=0.0, atol=1e-8 * np.abs(ref_H).max())

    # HALS from the NNDSVD start reaches tol 1e-6 on this V after 70
    # updates, and tol 1e-12 after 189
    @pytest.mark.parametrize("max_iters,tol,iterations,hit_cap", [
        (100, 1e-12, 100, True),
        (5000, 1e-6, 70, False),
        # tol reached on the last allowed update is no cap hit
        (70, 1e-6, 70, False),
        (69, 1e-6, 69, True),
    ])
    def test_iterations_and_cap_hit(self, max_iters, tol, iterations, hit_cap):
        V = np.random.default_rng(0).uniform(0.0, 3.0, size=(8, 7))
        fact = nmf(V, d=3, max_iters=max_iters, tol=tol)
        assert fact.iterations == iterations == len(fact.history) - 1
        assert fact.hit_cap is hit_cap

    @pytest.mark.parametrize("form", [np.array, sp.csr_matrix])
    @pytest.mark.parametrize("entries,d", [
        ({}, 2),
        ({(0, 1): 2.0, (3, 2): 1.0}, 3),
        ({(0, 1): 2.0, (3, 2): 1.0}, 4),
    ], ids=["zero-V", "rank-2-d-3", "rank-2-d-4"])
    def test_pairs_past_the_rank_stay_zero(self, form, entries, d):
        # NNDSVD starts a pair past rank(V) at zero, and HALS keeps it there
        V = np.zeros((4, 4))
        for at, value in entries.items():
            V[at] = value
        rank = len(entries)
        fact = nmf(form(V), d)
        assert fact.objective == pytest.approx(0.0, abs=1e-12)
        assert not fact.W[:, rank:].any() and not fact.H[rank:].any()
        S = similarity_matrix(fact)
        assert np.isnan(S[rank:]).all() and np.isnan(S[:, rank:]).all()
        loc = localization(fact, GeoGrid(*DEFAULT_BOUNDS, k=2))
        gammas = [r.gamma for r in (*loc.origin, *loc.destination)]
        assert gammas == ([1.0] * rank + [None] * (d - rank)) * 2

    def test_d_validation(self):
        V = np.ones((4, 6))
        with pytest.raises(ValueError):
            nmf(V, d=0)
        with pytest.raises(ValueError):
            nmf(V, d=5)

    def test_rejects_bad_v(self):
        with pytest.raises(ValueError):
            nmf(np.array([1.0, 2.0]), d=1)
        with pytest.raises(ValueError):
            nmf(-np.ones((3, 3)), d=1)

    @pytest.mark.parametrize("form", [np.array, sp.csr_matrix, sp.coo_matrix])
    @pytest.mark.parametrize("bad, message", [
        (-1.0, "non-negative"), (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
    ])
    def test_rejects_negative_or_non_finite_entry(self, form, bad, message):
        # one stored entry is enough: sparse input used to run on negative
        # entries and rise in objective, and either form took NaN silently
        V = np.eye(4)
        V[1, 2] = bad
        with pytest.raises(ValueError, match=message):
            nmf(form(V), d=2)


@pytest.fixture(scope="module")
def grid():
    return GeoGrid(*DEFAULT_BOUNDS, k=8)


class TestLocalization:
    def test_radii_are_well_posed(self, grid):
        # keep the comparison radii clear of any center-to-center distance
        centers = grid_centers(grid)
        dists = {
            haversine_reference(a[1][0], a[1][1], b[1][0], b[1][1])
            for a in centers
            for b in centers
        }
        for radius in (12.0, 20.0, 300.0):
            assert min(abs(d - radius) for d in dists) > 1e-3

    @pytest.mark.parametrize("radius", [12.0, 20.0, 300.0])
    def test_matches_brute_force(self, grid, radius, rng):
        centers = grid_centers(grid)
        for trial in range(12):
            vec = rng.uniform(0.0, 1.0, size=64)
            if trial == 1:
                vec[:] = 0.0
                vec[19] = 2.5
            if trial >= 6:
                # factor-like: at most 9 of 64 cells nonzero, many tied circles
                vec[rng.permutation(64)[rng.integers(1, 10):]] = 0.0
                assert (vec == 0.0).mean() >= 0.85
            g_ref, pq_ref = brute_localization(vec.tolist(), centers, radius)
            loc = localization(fake_fact(vec[:, None], vec[None, :]), grid,
                               radius_km=radius)
            for r in (loc.origin[0], loc.destination[0]):
                assert r.gamma == pytest.approx(g_ref, abs=1e-12)
                assert r.center == pq_ref

    def test_gamma_scale_invariant(self, grid, rng):
        vec = rng.uniform(0.0, 1.0, size=64)
        a = localization(fake_fact(vec[:, None], vec[None, :]), grid)
        b = localization(fake_fact(7.3 * vec[:, None], 7.3 * vec[None, :]), grid)
        assert b.origin[0].gamma == pytest.approx(a.origin[0].gamma, rel=1e-12)
        assert b.origin[0].center == a.origin[0].center

    def test_zero_vector(self, grid):
        zero = np.zeros(64)
        loc = localization(fake_fact(zero[:, None], zero[None, :]), grid)
        assert loc.origin[0].gamma is None
        assert loc.origin[0].center is None

    def test_point_mass(self, grid):
        vec = np.zeros(64)
        vec[grid.flat_index(3, 5)] = 4.0
        loc = localization(fake_fact(vec[:, None], vec[None, :]), grid)
        assert loc.origin[0].gamma == 1.0
        assert loc.origin[0].center == (3, 5)
        assert loc.origin[0].heatmap[4, 2] == 4.0  # heatmap is [q-1, p-1]

    def test_memory_stays_below_cell_pair_table(self, rng):
        # a 300 km circle covers the whole k = 40 box: 2.56e6 cell pairs
        big = GeoGrid(*DEFAULT_BOUNDS, k=40)
        fact = fake_fact(rng.uniform(size=(1600, 2)), rng.uniform(size=(2, 1600)))
        tracemalloc.start()
        try:
            localization(fact, big, radius_km=300.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("k", range(1, 7))
    def test_radius_table_matches_pairwise_distances(self, k):
        # radii: none, between one and two row spacings, the whole box
        small = GeoGrid(*DEFAULT_BOUNDS, k=k)
        centers = [ll for _, ll in grid_centers(small)]
        row_km = haversine_reference(34.0, 135.0, 34.0 + 1.0 / k, 135.0)
        dist = np.array([
            [haversine_reference(a[0], a[1], b[0], b[1]) for b in centers]
            for a in centers
        ])
        apart = ~np.eye(k * k, dtype=bool)
        for radius in (0.0, 1.5 * row_km, 300.0):
            # the law of cosines is accurate to ~1e-4 km near zero distance
            assert (np.abs(dist[apart] - radius) > 1e-3).all()
            want = (dist <= radius + 1e-3).astype(np.float64)
            # the circle masses of the unit vectors are the indicator itself
            got = _circle_masses(small, radius, np.eye(k * k))
            np.testing.assert_array_equal(got, want)
        assert want.all()

    def test_thresholds(self):
        assert GAMMA_THRESHOLD == 0.23
        assert SIMILARITY_THRESHOLD == 0.9


class TestSimilarity:
    def test_matches_loop_cosine(self, rng):
        W = rng.uniform(0.0, 1.0, size=(20, 4))
        H = rng.uniform(0.0, 1.0, size=(4, 20))
        S = similarity_matrix(fake_fact(W, H))
        for n in range(4):
            for m in range(4):
                want = math.fsum(H[n, :] * W[:, m]) / (
                    np.linalg.norm(H[n, :]) * np.linalg.norm(W[:, m])
                )
                assert S[n, m] == pytest.approx(want, rel=1e-12)

    def test_identical_pair_has_unit_diagonal(self, rng):
        vec = rng.uniform(0.1, 1.0, size=16)
        S = similarity_matrix(fake_fact(vec[:, None], vec[None, :]))
        assert S[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_marks_nan(self, rng):
        W = rng.uniform(0.1, 1.0, size=(8, 2))
        H = rng.uniform(0.1, 1.0, size=(2, 8))
        W[:, 1] = 0.0
        S = similarity_matrix(fake_fact(W, H))
        assert np.isnan(S[:, 1]).all()
        assert np.isfinite(S[:, 0]).all()


@pytest.fixture(scope="module")
def gfm():
    rng = np.random.default_rng(4)
    grid = GeoGrid(*DEFAULT_BOUNDS, k=5)
    names = [f"x{i}" for i in range(30)]
    coords = {
        name: (float(rng.uniform(34.0, 35.0)), float(rng.uniform(135.0, 136.0)))
        for name in names
    }
    links = [
        AggregatedLink(
            names[int(rng.integers(30))],
            names[int(rng.integers(30))],
            flow=int(rng.integers(1, 500)),
            frequency=int(rng.integers(1, 30)),
        )
        for _ in range(120)
    ]
    return bin_transfers(link_table(links), grid, coords=coords)


class TestSweep:
    def test_rows_reproduce_single_runs(self, gfm):
        rows = d_sweep(gfm, (1, 3), radius_km=15.0)
        assert [r.d for r in rows] == [1, 2, 3]
        for row in rows:
            fact = nmf(gfm, row.d)
            assert row.objective == fact.objective
            sims = similarity_matrix(fact)
            assert row.diagonal_similarity == tuple(
                float(sims[i, i]) for i in range(row.d)
            )

    def test_counts_follow_thresholds(self, gfm):
        (row,) = d_sweep(gfm, (4, 4), radius_km=15.0)
        want = sum(1 for g in row.gamma_origin if g is not None and g > 0.23)
        assert row.localized_origin == want
        want = sum(
            1
            for s in row.diagonal_similarity
            if np.isfinite(s) and s >= 0.9
        )
        assert row.matched_pairs == want

    def test_single_d(self, gfm):
        rows = d_sweep(gfm, (1, 1))
        assert len(rows) == 1
        assert rows[0].d == 1

    def test_bad_range(self, gfm):
        with pytest.raises(ValueError):
            d_sweep(gfm, (0, 2))
        with pytest.raises(ValueError):
            d_sweep(gfm, (3, 2))


class TestMatrixIO:
    def test_dense_roundtrip(self, tmp_path, rng):
        M = rng.normal(size=(6, 4))
        path = tmp_path / "m.txt"
        write_matrix(path, M)
        back = read_matrix(path)
        np.testing.assert_array_equal(back, M)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 3), (3, 1)])
    def test_dense_roundtrip_of_every_shape(self, tmp_path, rng, shape):
        M = rng.normal(size=shape)
        path = tmp_path / "m.txt"
        write_matrix(path, M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_matrix(path)
        assert back.shape == shape
        np.testing.assert_array_equal(back, M)

    @pytest.mark.parametrize("text", ["0 3\n1.0 2.0 3.0\n", "3 0\n1.0\n"])
    def test_dense_values_after_an_empty_header(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="no cells"):
            read_matrix(path)

    def test_dense_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n1.0 2.0\n3.0 4.0\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_sparse_roundtrip(self, tmp_path, rng):
        M = sp.random(9, 9, density=0.2, random_state=7, format="csr")
        path = tmp_path / "s.txt"
        write_sparse_matrix(path, M)
        back = read_sparse_matrix(path)
        assert back.shape == M.shape
        assert (back != M).nnz == 0

    def test_sparse_empty(self, tmp_path):
        M = sp.csr_matrix((3, 3))
        path = tmp_path / "e.txt"
        write_sparse_matrix(path, M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_sparse_matrix(path)
        assert back.nnz == 0
        assert back.shape == (3, 3)

    def test_sparse_nnz_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 3 2\n0 1 0.5\n")
        with pytest.raises(ValueError):
            read_sparse_matrix(path)

    @pytest.mark.parametrize("row", ["1.5 0 0.5", "0 2.9 0.5", "nan 0 0.5", "0 inf 0.5"])
    def test_sparse_fractional_index(self, tmp_path, row):
        path = tmp_path / "bad.txt"
        path.write_text(f"3 3 1\n{row}\n")
        with pytest.raises(ValueError):
            read_sparse_matrix(path)
