import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moneyflow import (
    AggregatedLink,
    DuplicateLinkError,
    FlowNetwork,
    GeoGrid,
    TransferRecord,
    aggregate,
    bin_transfers,
    build_network,
    ccdf,
    degree_correlation,
    degree_stats,
    net_flow_per_node,
    read_links,
    summary,
    write_links,
)

from moneyflow.network import _kendall_tau_b

from conftest import (
    link_table,
    make_links,
    net_from_edges,
    random_connected_edges,
    random_edges,
    split,
    transfer_table,
)
from oracles import ccdf_points, kendall_tau_b, moments, pearson_r


class TestBuild:
    def test_nodes_sorted_and_links_indexed(self):
        net = net_from_edges(3, [(2, 0), (0, 1)], flows=[7, 5], freqs=[2, 1])
        assert net.n_nodes == 3
        assert net.n_links == 2
        # links sorted by (source index, destination index)
        assert net.src.tolist() == [0, 2]
        assert net.dst.tolist() == [1, 0]
        assert net.weights("flow").tolist() == [5, 7]
        assert net.weights("frequency").tolist() == [1, 2]

    def test_duplicate_pair_rejected(self):
        links = make_links([(0, 1), (0, 1)])
        with pytest.raises(DuplicateLinkError):
            build_network(links)

    def test_opposite_directions_are_distinct_links(self):
        net = net_from_edges(2, [(0, 1), (1, 0)])
        assert net.n_links == 2

    def test_weights_rejects_unknown_kind(self):
        net = net_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            net.weights("volume")

    def test_checked_network_returned_unchanged(self):
        net = net_from_edges(3, [(2, 0), (0, 1), (1, 2)])
        assert build_network(net) is net

    def test_unsorted_network_is_sorted(self):
        net = make_links([(1, 0), (0, 2), (0, 1)], flows=[5, 6, 7])
        built = build_network(net)
        assert built.src.tolist() == [0, 0, 1] and built.dst.tolist() == [1, 2, 0]
        assert built.flow.tolist() == [7, 6, 5]
        assert list(built) == sorted(net, key=lambda l: (l.source, l.destination))

    def test_self_loop_rejected(self):
        net = make_links([(0, 1), (1, 1)])
        with pytest.raises(ValueError, match="self-loop link 'n0001' -> itself"):
            build_network(net)

    def test_flow_beyond_int64_names_the_link(self):
        links = make_links([(0, 1), (1, 0)], flows=[2**64, 3])
        with pytest.raises(ValueError, match="'n0000' -> 'n0001': flow 18446744073709551616"):
            build_network(links)

    def test_object_flow_within_int64_becomes_int64(self):
        net = make_links([(0, 1)])
        wide = FlowNetwork(net.node_ids, net.src, net.dst, net.flow.astype(object), net.freq)
        built = build_network(wide)
        assert built.flow.dtype == np.int64 and built == net


class TestLinkTable:
    """A network iterates as AggregatedLink rows and compares link by link."""

    LINKS = [
        AggregatedLink("b", "a", 5, 1),
        AggregatedLink("a", "c", 2**70, 3),
        AggregatedLink("c", "c", 9, 2),
    ]

    def test_sequence_of_links(self):
        net = link_table(self.LINKS)
        assert len(net) == 3 and net.n_nodes == 3
        assert list(net) == self.LINKS

    def test_networks_compare_link_by_link(self):
        net = link_table(self.LINKS)
        # the same links over a vocabulary with an unused account
        wide = FlowNetwork(("a", "b", "c", "d"), net.src, net.dst, net.flow, net.freq)
        assert wide == net
        assert link_table(self.LINKS[::-1]) != net
        assert type(list(net)[1].flow) is int


def test_link_layer_builds_no_link_objects(monkeypatch):
    # aggregate, write_links, read_links, build_network and bin_transfers
    # work on the columns
    from datetime import datetime

    records = [
        TransferRecord(datetime(2018, 1, 5), s, d, amount)
        for s, d, amount in (("a", "b", 3), ("b", "c", 4), ("a", "b", 5), ("c", "a", 1))
    ]

    def refuse(self, *args, **kwargs):
        raise AssertionError("an AggregatedLink was built")

    monkeypatch.setattr(AggregatedLink, "__init__", refuse)
    net = aggregate(transfer_table(records))
    buf = io.StringIO()
    write_links(net, buf)
    back = build_network(read_links(io.StringIO(buf.getvalue())))
    gfm = bin_transfers(back, GeoGrid(0.0, 1.0, 0.0, 1.0, k=2), coords={"a": (0.2, 0.2)})
    assert back.flow.tolist() == [8, 4, 1] and gfm.excluded == 4


class TestDegrees:
    def test_hand_counted(self):
        net = net_from_edges(3, [(0, 1), (0, 2), (1, 2), (2, 0)])
        in_deg, out_deg, net_deg = degree_stats(net)
        assert in_deg.tolist() == [1, 1, 2]
        assert out_deg.tolist() == [2, 1, 1]
        assert net_deg.tolist() == [-1, 0, 1]

    def test_net_flow_hand_example(self):
        net = net_from_edges(3, [(0, 1), (1, 2)], flows=[100, 30], freqs=[4, 2])
        nf = net_flow_per_node(net, "flow")
        assert nf.tolist() == [-100, 70, 30]
        assert net_flow_per_node(net, "frequency").tolist() == [-4, 2, 2]

    def test_net_flow_sums_to_zero_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 30))
            edges = random_edges(rng, n, int(rng.integers(n, 3 * n)))
            flows = rng.integers(1, 10_000, size=len(edges))
            freqs = rng.integers(1, 50, size=len(edges))
            net = net_from_edges(n, edges, flows=flows, freqs=freqs)
            assert net_flow_per_node(net, "flow").sum() == 0
            assert net_flow_per_node(net, "frequency").sum() == 0

    def test_net_flow_past_int64_is_exact(self):
        # two links of 2**62 + 5 yen into one node: its balance is past
        # int64, and is neither wrapped nor rounded
        big = 2**62 + 5
        net = net_from_edges(3, [(0, 2), (1, 2)], flows=[big, big])
        assert net.flow.dtype == np.int64
        assert net_flow_per_node(net, "flow").tolist() == [-big, -big, 2 * big]
        assert net_flow_per_node(net, "frequency").dtype == np.int64


class TestCcdf:
    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=80)
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_counting_oracle(self, values):
        dist = ccdf(values)
        expected = ccdf_points(values)
        assert dist.values.tolist() == [v for v, _ in expected]
        assert dist.fractions.tolist() == pytest.approx(
            [f for _, f in expected], abs=1e-12
        )

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=60)
    )
    @settings(max_examples=60, deadline=None)
    def test_inclusive_and_monotone(self, values):
        dist = ccdf(values)
        assert dist.fractions[0] == 1.0
        assert np.all(np.diff(dist.fractions) <= 0)
        assert dist.fractions[-1] > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf([])


class TestSummary:
    def test_matches_two_pass_oracle(self, rng):
        values = rng.lognormal(3.0, 1.5, size=500)
        got = summary(values).as_dict()
        want = moments(values)
        for key in ("n", "min", "max", "mean", "std", "skewness", "kurtosis"):
            assert got[key] == pytest.approx(want[key], rel=1e-9)

    def test_median_even_and_odd(self):
        assert summary([1, 3, 2]).median == 2
        assert summary([1, 2, 3, 10]).median == 2.5

    def test_zero_variance_has_no_shape_moments(self):
        stats = summary([5.0, 5.0, 5.0])
        assert stats.std == 0.0
        assert stats.skewness is None
        assert stats.kurtosis is None

    def test_one_value(self):
        stats = summary([7])
        assert (stats.n, stats.minimum, stats.maximum, stats.median, stats.mean) == (1, 7, 7, 7, 7)
        assert stats.std == 0.0
        assert stats.skewness is None and stats.kurtosis is None
        with pytest.raises(ValueError, match="at least 1 value"):
            summary([])

    def test_kurtosis_is_not_excess(self):
        # a large normal sample has kurtosis near 3 under the plain convention
        values = np.random.default_rng(1).normal(size=200_000)
        assert summary(values).kurtosis == pytest.approx(3.0, abs=0.1)


class TestDegreeCorrelation:
    def test_matches_oracles_on_random_graphs(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 40))
            edges = random_edges(rng, n, int(rng.integers(n, 4 * n)))
            net = net_from_edges(n, edges)
            in_deg, out_deg, _ = degree_stats(net)
            r, tau = degree_correlation(net)
            assert r == pytest.approx(pearson_r(in_deg, out_deg), abs=1e-9, nan_ok=True)
            assert tau == pytest.approx(
                kendall_tau_b(in_deg.tolist(), out_deg.tolist()), abs=1e-9, nan_ok=True
            )

    def test_single_link_is_perfectly_anticorrelated(self):
        net = net_from_edges(2, [(0, 1)])
        r, tau = degree_correlation(net)
        assert r == pytest.approx(-1.0)
        assert tau == pytest.approx(-1.0)

    def test_two_cycle_has_no_variance(self):
        net = net_from_edges(2, [(0, 1), (1, 0)])
        r, tau = degree_correlation(net)
        assert np.isnan(r) and np.isnan(tau)


_tied_ints = st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=80)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_kendall_tau_b_is_scipys_value(data):
    # pair counting in numpy must give scipy's float bit for bit
    from scipy import stats

    x = np.array(data.draw(_tied_ints))
    y = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=6), min_size=x.size, max_size=x.size
    )))
    assume(np.ptp(x) > 0 and np.ptp(y) > 0)
    want = float(stats.kendalltau(x.astype(float), y.astype(float), variant="b").statistic)
    assert _kendall_tau_b(x, y) == want


def test_kendall_tau_b_is_scipys_value_at_scale():
    from scipy import stats

    rng = np.random.default_rng(5)
    x = rng.zipf(2.0, 50_000) % 500
    y = (x + rng.integers(0, 4, x.size)) * (rng.random(x.size) < 0.7)
    want = float(stats.kendalltau(x.astype(float), y.astype(float), variant="b").statistic)
    assert _kendall_tau_b(x, y) == want


class TestSubnetwork:
    """Every module that FlowNetwork.blocks returns, against brute force."""

    def test_induced_links_exact(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 25))
            edges = random_edges(rng, n, int(rng.integers(n, 3 * n)))
            net = net_from_edges(n, edges)
            labels = rng.integers(0, int(rng.integers(1, n)), size=n)
            modules = split(net, labels)
            assert len(modules) == labels.max() + 1
            for m, (members, sub) in enumerate(modules):
                assert members.tolist() == np.flatnonzero(labels == m).tolist()
                assert sub.node_ids == tuple(net.node_ids[i] for i in members)
                kept = set(members.tolist())
                want = [(s, t) for s, t in edges if s in kept and t in kept]
                back = [
                    (int(members[s]), int(members[t]))
                    for s, t in zip(sub.src, sub.dst)
                ]
                # links keep the parent's (src, dst) order
                assert back == want

    def test_blocks_leave_out_unlabelled_nodes(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 25))
            edges = random_edges(rng, n, int(rng.integers(n, 3 * n)))
            net = net_from_edges(n, edges)
            labels = rng.integers(-1, 3, size=n)
            members, starts, union = net.blocks(labels)
            modules = range(int(labels.max()) + 1)
            assert starts[-1] == np.count_nonzero(labels >= 0)
            for m in modules:
                want = np.flatnonzero(labels == m).tolist()
                assert members[starts[m]:starts[m + 1]].tolist() == want
            back = [(int(members[s]), int(members[t])) for s, t in zip(union.src, union.dst)]
            want = [(s, t) for m in modules for s, t in edges if labels[s] == labels[t] == m]
            assert back == want

    def test_weights_preserved(self, rng):
        net = net_from_edges(4, [(0, 1), (1, 2), (2, 3)], flows=[5, 7, 9])
        (_, outer), (_, inner) = split(net, np.array([0, 1, 1, 0]))
        assert inner.weights("flow").tolist() == [7]
        assert outer.n_nodes == 2 and outer.n_links == 0
        for _ in range(10):
            n = int(rng.integers(6, 25))
            edges = random_edges(rng, n, int(rng.integers(n, 3 * n)))
            flows = rng.integers(1, 10**6, size=len(edges)).tolist()
            freqs = rng.integers(1, 50, size=len(edges)).tolist()
            net = net_from_edges(n, edges, flows=flows, freqs=freqs)
            weight = {e: (f, q) for e, f, q in zip(edges, flows, freqs)}
            for members, sub in split(net, rng.integers(0, 3, size=n)):
                for s, t, f, q in zip(sub.src, sub.dst, sub.flow, sub.freq):
                    assert weight[int(members[s]), int(members[t])] == (f, q)


def test_edge_helpers_refuse_more_edges_than_pairs():
    # n nodes hold n(n-1) distinct non-loop pairs; asking for more used
    # to make the helpers draw forever
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_edges(rng, 2, 3)
    with pytest.raises(ValueError):
        random_connected_edges(rng, 1, 1)
    with pytest.raises(ValueError):
        random_connected_edges(rng, 3, 5)
    assert len(random_edges(rng, 3, 6)) == 6
    assert len(random_connected_edges(rng, 3, 4)) == 6
