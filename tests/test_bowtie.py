import numpy as np
import pytest

from moneyflow import build_network, classify_bowtie, distance_profile
from moneyflow.bowtie import (
    COMPONENT_NAMES,
    GSCC,
    IN,
    OUT,
    OUTSIDE,
    TE,
    strongly_connected_components,
    weakly_connected_components,
)

from conftest import link_table, net_from_edges, random_edges
from oracles import bowtie_classes, hop_distances, reachability


def oracle_graphs(seed, count, max_n):
    """Random digraphs with an unambiguous largest WCC and SCC.

    A planted cycle makes a dominant core likely; graphs where the oracle
    reports a tie are resampled so both sides classify the same object.
    """
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        n = int(rng.integers(4, max_n + 1))
        cycle_len = int(rng.integers(3, max(4, n // 2 + 2)))
        nodes = rng.permutation(n)[:cycle_len]
        edges = {(int(nodes[i]), int(nodes[(i + 1) % cycle_len])) for i in range(cycle_len)}
        extra = int(rng.integers(0, 2 * n))
        while len(edges) < cycle_len + extra:
            s, t = rng.integers(0, n, size=2)
            if s != t:
                edges.add((int(s), int(t)))
        touched = {v for e in edges for v in e}
        for v in range(n):
            if v not in touched:
                u = int(rng.integers(0, n - 1))
                u = u if u < v else u + 1
                edges.add((v, u) if rng.random() < 0.5 else (u, v))
        classes = bowtie_classes(n, sorted(edges))
        if classes is None:
            continue
        produced += 1
        yield n, sorted(edges), classes


class TestComponents:
    def test_scc_matches_mutual_reachability(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 30))
            edges = random_edges(rng, n, int(rng.integers(n, 3 * n)))
            net = net_from_edges(n, edges)
            labels, _ = strongly_connected_components(net)
            R = reachability(n, edges)
            mutual = R & R.T
            for i in range(n):
                for j in range(n):
                    assert (labels[i] == labels[j]) == bool(mutual[i, j])

    def test_wcc_matches_undirected_components(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 30))
            edges = random_edges(rng, n, int(rng.integers(n - 1, 2 * n)))
            net = net_from_edges(n, edges)
            labels, _ = weakly_connected_components(net)
            und = [(s, t) for s, t in edges] + [(t, s) for s, t in edges]
            R = reachability(n, und)
            for i in range(n):
                for j in range(n):
                    assert (labels[i] == labels[j]) == bool(R[i, j])

    def test_labels_numbered_by_smallest_member(self, rng):
        # csgraph numbers classes in an order of its own; the tie-breaks
        # below and the per-component Hodge solve rely on this numbering
        for _ in range(20):
            n = int(rng.integers(3, 40))
            edges = random_edges(rng, n, int(rng.integers(1, 2 * n)))
            net = net_from_edges(n, edges)
            for find in (strongly_connected_components, weakly_connected_components):
                labels, count = find(net)
                assert labels.dtype == np.int64
                assert sorted(set(labels.tolist())) == list(range(count))
                firsts = [int(np.flatnonzero(labels == k)[0]) for k in range(count)]
                assert firsts == sorted(firsts)

    def test_empty_network(self):
        net = build_network(link_table([]))
        for find in (strongly_connected_components, weakly_connected_components):
            labels, count = find(net)
            assert labels.dtype == np.int64 and labels.size == 0
            assert count == 0


class TestTieBreaks:
    """Equal-size classes: the one holding the smallest node index wins."""

    def test_gscc_tie_core_upstream(self):
        # SCCs {0, 3} and {1, 2} of equal size; {0, 3} feeds {1, 2}
        net = net_from_edges(4, [(0, 3), (3, 0), (1, 2), (2, 1), (3, 2)])
        part = classify_bowtie(net)
        assert part.labels.tolist() == [GSCC, OUT, OUT, GSCC]

    def test_gscc_tie_core_downstream(self):
        # same SCCs, now {1, 2} feeds {0, 3}
        net = net_from_edges(4, [(0, 3), (3, 0), (1, 2), (2, 1), (1, 0)])
        part = classify_bowtie(net)
        assert part.labels.tolist() == [GSCC, IN, IN, GSCC]

    def test_gwcc_tie(self):
        net = net_from_edges(4, [(0, 3), (3, 0), (1, 2), (2, 1)])
        part = classify_bowtie(net)
        assert part.labels.tolist() == [GSCC, OUTSIDE, OUTSIDE, GSCC]


class TestClassification:
    def test_two_cycle_with_skins(self):
        # c -> (a <-> b) -> d, plus a detached pair e -> f
        edges = [(0, 1), (1, 0), (2, 0), (1, 3), (4, 5)]
        net = net_from_edges(6, edges)
        part = classify_bowtie(net)
        assert part.labels.tolist() == [GSCC, GSCC, IN, OUT, OUTSIDE, OUTSIDE]
        assert part.sizes == {
            "GSCC": 2, "IN": 1, "OUT": 1, "TE": 0, "outside_GWCC": 2,
        }
        assert part.gwcc_size == 4

    def test_tendril_node(self):
        # IN-node 2 also feeds node 4, which never reaches the core: TE
        edges = [(0, 1), (1, 0), (2, 0), (1, 3), (2, 4)]
        net = net_from_edges(5, edges)
        part = classify_bowtie(net)
        assert part.labels.tolist() == [GSCC, GSCC, IN, OUT, TE]

    def test_matches_dense_oracle(self):
        code = {"GSCC": GSCC, "IN": IN, "OUT": OUT, "TE": TE, "outside": OUTSIDE}
        for n, edges, classes in oracle_graphs(seed=5, count=60, max_n=40):
            net = net_from_edges(n, edges)
            part = classify_bowtie(net)
            want = np.empty(n, dtype=int)
            for name, members in classes.items():
                for v in members:
                    want[v] = code[name]
            assert part.labels.tolist() == want.tolist(), (n, edges)

    def test_identity_on_random_graphs(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 60))
            edges = random_edges(rng, n, int(rng.integers(n, 4 * n)))
            net = net_from_edges(n, edges)
            part = classify_bowtie(net)
            sizes = part.sizes
            assert (
                sizes["GSCC"] + sizes["IN"] + sizes["OUT"] + sizes["TE"]
                == part.gwcc_size
            )
            assert part.gwcc_size + sizes["outside_GWCC"] == n

    def test_component_name_round_trip(self):
        net = net_from_edges(3, [(0, 1), (1, 0), (1, 2)])
        part = classify_bowtie(net)
        for i in range(3):
            assert part.component_name(i) == COMPONENT_NAMES[part.labels[i]]


class TestDistances:
    def test_hand_example_with_distance_two(self):
        # 3 -> 2 -> core(0, 1) -> 4 -> 5
        edges = [(0, 1), (1, 0), (2, 0), (3, 2), (1, 4), (4, 5)]
        net = net_from_edges(6, edges)
        part = classify_bowtie(net)
        profile = distance_profile(net, part)
        assert profile.in_to_gscc == {1: 1, 2: 1}
        assert profile.gscc_to_out == {1: 1, 2: 1}
        assert profile.in_ratios() == {1: 0.5, 2: 0.5}

    def test_matches_bfs_oracle(self):
        for n, edges, classes in oracle_graphs(seed=9, count=40, max_n=30):
            net = net_from_edges(n, edges)
            part = classify_bowtie(net)
            profile = distance_profile(net, part)
            in_hist, out_hist = hop_distances(n, edges, classes)
            assert profile.in_to_gscc == in_hist
            assert profile.gscc_to_out == out_hist

    def test_totals_equal_side_sizes(self):
        for n, edges, _ in oracle_graphs(seed=13, count=20, max_n=40):
            net = net_from_edges(n, edges)
            part = classify_bowtie(net)
            profile = distance_profile(net, part)
            assert sum(profile.in_to_gscc.values()) == part.sizes["IN"]
            assert sum(profile.gscc_to_out.values()) == part.sizes["OUT"]
            assert all(d >= 1 for d in profile.in_to_gscc)
            assert all(d >= 1 for d in profile.gscc_to_out)
