import numpy as np
import pytest

from moneyflow import FlowNetwork, build_network, classify_bowtie, distance_profile
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

from conftest import link_table, net_from_edges, node_name, random_edges
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
        # the kernels number classes in an order of their own; the tie-breaks
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


def network(n, edges):
    """The checked network of edges on nodes 0..n-1; untouched nodes stay
    as isolated nodes."""
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    ones = np.ones(src.size, dtype=np.int64)
    return build_network(FlowNetwork(tuple(map(node_name, range(n))), src, dst, ones, ones))


def assert_matches_oracle(n, edges):
    """Components, classes and distances equal the dense oracle's."""
    net = network(n, edges)
    R = reachability(n, edges)
    und = reachability(n, [*edges, *((t, s) for s, t in edges)])
    for find, together in (
        (strongly_connected_components, R & R.T),
        (weakly_connected_components, und),
    ):
        labels, _ = find(net)
        assert np.array_equal(labels[:, None] == labels[None, :], together)
    classes = bowtie_classes(n, edges)
    assert classes is not None, "the oracle needs a unique GWCC and GSCC"
    code = {"GSCC": GSCC, "IN": IN, "OUT": OUT, "TE": TE, "outside": OUTSIDE}
    want = np.empty(n, dtype=np.int8)
    for name, members in classes.items():
        want[list(members)] = code[name]
    part = classify_bowtie(net)
    assert part.labels.tolist() == want.tolist()
    profile = distance_profile(net, part)
    assert (profile.in_to_gscc, profile.gscc_to_out) == hop_distances(n, edges, classes)


class TestGraphKernels:
    """Inputs that reach each branch of the numpy graph kernels: the trim
    pass, the pivot's forward-backward reach, the Tarjan search over the
    rest, and BFS and pointer jumping over many levels."""

    @pytest.mark.parametrize("downstream", ["falls", "rises"])
    def test_long_chain(self, downstream):
        # every node is its own strong class; only the two ends are
        # trimmed, and node 0, the smallest of the tied classes, is the core
        n = 2000
        edges = [(k + 1, k) if downstream == "falls" else (k, k + 1) for k in range(n - 1)]
        net = net_from_edges(n, edges)
        scc, count = strongly_connected_components(net)
        assert count == n and scc.tolist() == list(range(n))
        wcc, count = weakly_connected_components(net)
        assert count == 1 and not wcc.any()
        side = IN if downstream == "falls" else OUT
        part = classify_bowtie(net)
        assert part.labels.tolist() == [GSCC] + [side] * (n - 1)
        classes = {
            "GSCC": {0}, "IN": set(), "OUT": set(), "TE": set(), "outside": set(),
            COMPONENT_NAMES[side]: set(range(1, n)),
        }
        profile = distance_profile(net, part)
        hist = dict.fromkeys(range(1, n), 1)
        assert (profile.in_to_gscc, profile.gscc_to_out) == hop_distances(n, edges, classes)
        assert (profile.in_to_gscc or profile.gscc_to_out) == hist

    def test_chain_of_two_cycles(self):
        # one strong class reached over n - 1 levels from the pivot
        n = 60
        assert_matches_oracle(n, [e for k in range(n - 1) for e in ((k, k + 1), (k + 1, k))])

    def test_chain_of_linked_two_cycles(self):
        # pairs {2k, 2k + 1} linked one way, 2k + 1 -> 2k + 2: nothing is
        # trimmed, the pivot's class is the first pair, and the Tarjan
        # search goes down the rest of the chain; the first pair wins the tie
        n = 60
        edges = [(k, k + 1) for k in range(n - 1)] + [(k + 1, k) for k in range(0, n - 1, 2)]
        net = net_from_edges(n, edges)
        scc, count = strongly_connected_components(net)
        assert count == n // 2 and scc.tolist() == [k // 2 for k in range(n)]
        part = classify_bowtie(net)
        assert part.labels.tolist() == [GSCC, GSCC] + [OUT] * (n - 2)
        assert distance_profile(net, part).gscc_to_out == dict.fromkeys(range(1, n - 1), 1)

    def test_disjoint_cycles_and_isolated_nodes(self):
        # cycles of 3..12 nodes on shuffled ids; every fifth id is isolated
        rng = np.random.default_rng(3)
        n = 120
        free = rng.permutation([v for v in range(n) if v % 5])
        edges, start = [], 0
        for length in range(3, 13):
            ring = free[start:start + length].tolist()
            edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
            start += length
        assert_matches_oracle(n, edges)
        _, count = weakly_connected_components(network(n, edges))
        assert count == 10 + n - start

    def test_equal_largest_classes_pivot_loses_the_tie(self):
        # {1, 2, 3, 4} is complete, so its nodes have the largest in x out
        # degree and hold the pivot; the 4-cycle 0 -> 5 -> 6 -> 7 -> 0 is
        # as large and holds the smallest index, so it is the core
        edges = [(s, t) for s in range(1, 5) for t in range(1, 5) if s != t]
        edges += [(0, 5), (5, 6), (6, 7), (7, 0), (4, 7)]
        net = net_from_edges(8, edges)
        part = classify_bowtie(net)
        assert part.labels.tolist() == [GSCC, IN, IN, IN, IN, GSCC, GSCC, GSCC]
        assert distance_profile(net, part).in_to_gscc == {1: 1, 2: 3}

    def test_largest_class_is_not_the_pivots(self):
        # hub 0 <-> 1 has 8 in-links and 8 out-links, the 12-cycle on
        # 18..29 only one of each; the cycle feeds the hub pair
        edges = [(0, 1), (1, 0)]
        edges += [(v, 0) for v in range(2, 10)] + [(0, v) for v in range(10, 18)]
        edges += [(v, v + 1) for v in range(18, 29)] + [(29, 18), (25, 1)]
        assert_matches_oracle(30, edges)
