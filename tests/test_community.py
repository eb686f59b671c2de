"""Community detection: value oracle agreement, optimality, planted recovery."""

import hashlib
import json
import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moneyflow import (
    ConvergenceError,
    aggregate,
    blocks_scenario,
    build_network,
    cities_scenario,
    community_report,
    detect_communities,
    flat_table,
    generate,
    hodge_decompose,
    map_equation_value,
    walnut_scenario,
)
from moneyflow import community
from moneyflow.community import (
    _EXACT_MAX,
    _MIN_GAIN,
    _PATIENCE,
    EmptyModuleError,
    LevelSearch,
    _aggregate,
    _block_walk,
    _exact_partitions,
    _flag_moves,
    _local_moves,
    _search,
    _Search,
    _set_partitions,
    _share,
    _take_blocks,
    _TrialPool,
    _value_for,
    build_walk,
)
from moneyflow.hodge import WEIGHT_KINDS

from conftest import make_links, net_from_edges, random_edges, split, workers_die
from oracles import (
    BatchMapEquation,
    adjusted_rand_index,
    all_partitions,
    dense_walk,
    map_equation_entropy,
    neighbour_flows,
)


def walk_inputs(net):
    """(n, edges, weights) for the reference walk, frequency-weighted."""
    edges = list(zip(net.src.tolist(), net.dst.tolist()))
    return net.n_nodes, edges, net.freq.astype(float).tolist()


class TestValueOracle:
    def test_two_cycle_single_module(self):
        # balanced 2-cycle in one module: no exit traffic, value is the
        # one-bit entropy of the uniform visit distribution
        net = net_from_edges(2, [(0, 1), (1, 0)], freqs=[3, 3])
        assert map_equation_value(net, [0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_batch_evaluator_matches_entropy_form(self, rng):
        # the acceptance enumeration leans on the batch evaluator, so the
        # batch arithmetic must agree with the literal codebook entropies
        edges = random_edges(rng, 5, 9)
        net = net_from_edges(5, edges)
        n, eds, wts = walk_inputs(net)
        batch = BatchMapEquation(n, eds, wts, tau=0.15)
        parts = all_partitions(5)
        got = batch.values(parts)
        for row, labels in enumerate(parts):
            want = map_equation_entropy(n, eds, wts, labels.tolist(), tau=0.15)
            assert got[row] == pytest.approx(want, abs=1e-10)

    def test_package_value_matches_entropy_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 26))
            edges = random_edges(rng, n, int(2.2 * n))
            net = net_from_edges(n, edges)
            labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
            _, labels = np.unique(labels, return_inverse=True)
            want = map_equation_entropy(*walk_inputs(net), labels.tolist(), tau=0.15)
            got = map_equation_value(net, labels.tolist())
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_two_cliques_split_beats_merge(self):
        edges = [
            (b + i, b + j)
            for b in (0, 5)
            for i in range(5)
            for j in range(5)
            if i != j
        ]
        net = net_from_edges(10, edges, freqs=[2] * len(edges))
        one = map_equation_value(net, [0] * 10)
        two = map_equation_value(net, [0] * 5 + [1] * 5)
        assert one == pytest.approx(math.log2(10), abs=1e-12)
        assert two < one
        # same comparison through the independent formula
        n, eds, wts = walk_inputs(net)
        assert map_equation_entropy(
            n, eds, wts, [0] * 10, tau=0.15
        ) > map_equation_entropy(n, eds, wts, [0] * 5 + [1] * 5, tau=0.15)

    def test_empty_module_raises(self):
        net = net_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(EmptyModuleError):
            map_equation_value(net, [0, 2, 2])

    def test_bad_partitions(self):
        net = net_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError):
            map_equation_value(net, [0, 0])
        with pytest.raises(ValueError):
            map_equation_value(net, [0, -1, 0])
        with pytest.raises(ValueError):
            map_equation_value(net, [["n0000", "n0001"]])

    def test_zero_link_walk_undefined(self):
        net = net_from_edges(3, [(0, 1), (1, 2)])
        (_, sub), _ = split(net, np.array([0, 1, 0]))
        with pytest.raises(ValueError, match="no links"):
            map_equation_value(sub, [0, 0])


class TestOptimizer:
    def test_attains_enumerated_minimum(self, rng):
        # exhaustive check on 20 small graphs; the acceptance suite repeats
        # this at larger sizes
        parts_cache = {}
        for case in range(20):
            n = 4 + case % 5
            edges = random_edges(rng, n, int(rng.integers(n, 2 * n + 1)))
            net = net_from_edges(n, edges)
            tree = detect_communities(net, seed=case, trials=10)
            if n not in parts_cache:
                parts_cache[n] = all_partitions(n)
            batch = BatchMapEquation(*walk_inputs(net), tau=0.15)
            best = float(batch.values(parts_cache[n]).min())
            assert tree.value == pytest.approx(best, abs=1e-9)
            top = map_equation_value(net, tree.top_labels().tolist())
            assert top == pytest.approx(best, abs=1e-9)

    def test_history_monotone(self, rng):
        for case in range(5):
            n = int(rng.integers(10, 40))
            edges = random_edges(rng, n, 3 * n)
            net = net_from_edges(n, edges)
            tree = detect_communities(net, seed=case, trials=4)
            hist = np.asarray(tree.history)
            assert np.all(np.diff(hist) <= 1e-12)
            assert hist[-1] == pytest.approx(tree.value, abs=1e-6)

    def test_deterministic_per_seed(self, rng):
        edges = random_edges(rng, 30, 90)
        net = net_from_edges(30, edges)
        a = detect_communities(net, seed=7, trials=5)
        b = detect_communities(net, seed=7, trials=5)
        assert a.as_dict() == b.as_dict()
        assert a.history == b.history

    def test_seed_validation(self):
        net = net_from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            detect_communities(net, seed=-1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_validation(self, trials):
        net = net_from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="trials"):
            detect_communities(net, trials=trials)

    @pytest.mark.parametrize("n", range(1, _EXACT_MAX + 1))
    def test_set_partitions_match_oracle_enumeration(self, n):
        assert np.array_equal(_set_partitions(n), all_partitions(n))


@st.composite
def _small_digraphs(draw, max_nodes=14):
    """Up to max_nodes nodes, random links and frequencies; often
    disconnected."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = sorted(draw(st.sets(pairs, min_size=1, max_size=3 * n)))
    freqs = draw(st.lists(
        st.integers(min_value=1, max_value=50), min_size=len(edges), max_size=len(edges)
    ))
    return build_network(make_links(edges, freqs=freqs))


@given(_small_digraphs(), st.integers(0, 3), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_running_value_matches_exact_value(net, seed, trials):
    # the last history entry is built move by move from cached per-module
    # terms; tree.value is recomputed from scratch for the final labels
    tree = detect_communities(net, seed=seed, trials=trials)
    hist = tree.history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert hist[-1] == pytest.approx(tree.value, abs=1e-12)


@given(_small_digraphs(max_nodes=_EXACT_MAX), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_tiny_networks_reach_exhaustive_optimum(net, seed):
    tree = detect_communities(net, seed=seed, trials=1)
    batch = BatchMapEquation(*walk_inputs(net), tau=0.15)
    best = float(batch.values(all_partitions(net.n_nodes)).min())
    assert tree.value == pytest.approx(best, abs=1e-9)


@given(_small_digraphs(max_nodes=_EXACT_MAX))
@settings(max_examples=200, deadline=None)
def test_tiny_walk_solve_matches_dense_oracle(net):
    p, *_ = dense_walk(*walk_inputs(net), tau=0.15)
    np.testing.assert_allclose(build_walk(net).p, p, rtol=0, atol=1e-12)


def _one_move_neighbours(labels):
    """Every labelling one node move away, a move to a new module included."""
    for v in range(labels.size):
        for m in range(int(labels.max()) + 2):
            if m != labels[v]:
                moved = labels.copy()
                moved[v] = m
                yield np.unique(moved, return_inverse=True)[1]


def _assert_local_optimum(net, seed, from_singletons):
    walk = build_walk(net)
    rng = np.random.default_rng(seed)
    if from_singletons:
        start, labels = None, np.arange(walk.n)
    else:
        start = labels = np.unique(rng.integers(0, 3, size=walk.n), return_inverse=True)[1]
    labels, _ = _local_moves(_Search(walk), start, [rng], [_value_for(walk, labels)], [[]])
    labels = np.unique(labels, return_inverse=True)[1]
    value = _value_for(walk, labels)
    for moved in _one_move_neighbours(labels):
        assert _value_for(walk, moved) >= value - _MIN_GAIN


# a loop that stopped when the first pass's queue empties fails this
@given(_small_digraphs(max_nodes=30), st.integers(0, 3), st.booleans())
@settings(max_examples=500, deadline=None)
def test_local_moves_end_at_local_optimum(net, seed, from_singletons):
    _assert_local_optimum(net, seed, from_singletons)


# the same graphs on the scan path, which every walk now takes
@given(_small_digraphs(max_nodes=30), st.integers(0, 3), st.booleans())
@settings(max_examples=500, deadline=None)
def test_scan_ends_at_local_optimum(net, seed, from_singletons):
    _assert_local_optimum(net, seed, from_singletons)


@pytest.mark.parametrize("from_singletons", [True, False])
def test_scan_ends_at_local_optimum_above_scan_min(from_singletons):
    # a walk larger than any the hypothesis graphs above draw
    records, _ = generate(cities_scenario(n_nodes=300, seed=1))
    net = build_network(aggregate(records))
    assert net.n_nodes >= 40
    _assert_local_optimum(net, 0, from_singletons)


def test_scan_flags_exactly_the_improvable_nodes():
    # every node with a single move that gains over _MIN_GAIN, by exact
    # re-evaluation over the candidates the node-mover scores, is flagged,
    # and no node whose best move gains under _MIN_GAIN / 4 is
    records, _ = generate(cities_scenario(n_nodes=300, seed=2))
    walk = build_walk(build_network(aggregate(records)))
    search = _Search(walk)
    rng = np.random.default_rng(0)
    optimum, _ = _local_moves(search, None, [rng], [_value_for(walk, np.arange(walk.n))], [[]])
    perturbed = optimum.copy()
    few = rng.choice(walk.n, size=walk.n // 20, replace=False)
    perturbed[few] = perturbed[rng.permutation(few)]
    states = [rng.integers(0, k, size=walk.n) for k in (1, 3, 30)] + [optimum, perturbed]
    for labels in states:
        labels = np.unique(labels, return_inverse=True)[1]
        flagged = set(_flag_moves(search, labels.tolist(), *search.modules(labels)).tolist())
        value = _value_for(walk, labels)
        for v in range(walk.n):
            around = np.concatenate((walk.dst[walk.src == v], walk.src[walk.dst == v]))
            targets = set(labels[around].tolist()) - {labels[v]}
            if np.count_nonzero(labels == labels[v]) > 1:
                targets.add(int(labels.max()) + 1)
            gain = np.inf
            for m in targets:
                moved = labels.copy()
                moved[v] = m
                moved = np.unique(moved, return_inverse=True)[1]
                gain = min(gain, _value_for(walk, moved) - value)
            if gain < -_MIN_GAIN:
                assert v in flagged
            if gain > -_MIN_GAIN / 4:
                assert v not in flagged


@st.composite
def _block_unions(draw):
    """(network, block offsets): three to five random digraphs side by
    side, one each of at most _EXACT_MAX, 9-30 and 40-50 nodes and up to
    two more of any of those sizes, in random order."""
    kinds = (st.integers(2, _EXACT_MAX), st.integers(9, 30), st.integers(40, 50))
    sizes = [draw(kind) for kind in kinds]
    sizes += draw(st.lists(st.one_of(*kinds), max_size=2))
    sizes = draw(st.permutations(sizes))
    return _union(sizes, draw(st.integers(0, 2**32 - 1)))


def _union(sizes, seed):
    """(network, block offsets): a random digraph of each size side by side."""
    rng = np.random.default_rng(seed)
    edges, offsets = [], [0]
    for n in sizes:
        m = int(rng.integers(n, min(3 * n, n * (n - 1)) + 1))
        edges += [(offsets[-1] + s, offsets[-1] + t) for s, t in random_edges(rng, n, m)]
        offsets.append(offsets[-1] + n)
    net = net_from_edges(offsets[-1], edges, freqs=rng.integers(1, 50, len(edges)).tolist())
    return net, np.array(offsets)


def _blocks_alone(net, offsets):
    """Each block's own subnetwork."""
    labels = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    return [sub for _, sub in split(net, labels)]


def _one_block(walk, b):
    return _take_blocks(walk, np.arange(walk.offsets.size - 1) == b)


@given(_block_unions())
@settings(max_examples=100, deadline=None)
def test_block_walk_matches_each_walk_alone(union):
    # every per-block sum, a lone block's included, is one np.add.reduceat
    # over the block's range, so each block's walk is bit for bit its walk
    # alone, whatever its size
    net, offsets = union
    walk = _block_walk(net, offsets, "frequency")
    for b, sub in enumerate(_blocks_alone(net, offsets)):
        alone = build_walk(sub)
        lo, hi = offsets[b], offsets[b + 1]
        links = slice(walk.link_offsets[b], walk.link_offsets[b + 1])
        assert walk.p[lo:hi].tobytes() == alone.p.tobytes()
        assert walk.t[lo:hi].tobytes() == alone.t.tobytes()
        assert walk.node_term[b:b + 1].tobytes() == alone.node_term.tobytes()
        assert walk.flow[links].tobytes() == alone.flow.tobytes()


@given(_block_unions(), st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_level_search_decomposes_into_blocks(union, seed, trials):
    # one search over K blocks gives every block the labels, value,
    # history and kept restarts of a search of that block's walk alone
    # with the same entropy
    net, offsets = union
    walk = _block_walk(net, offsets, "frequency")
    entropies = [(seed, b) for b in range(offsets.size - 1)]
    with _TrialPool(trials) as pool:
        labels, values, histories, kept = _search(walk, entropies, pool)
        for b, entropy in enumerate(entropies):
            alone, (value,), (history,), (restarts,) = _search(
                _one_block(walk, b), [entropy], pool
            )
            assert labels[offsets[b]:offsets[b + 1]].tolist() == alone.tolist()
            assert values[b] == value
            assert histories[b] == history
            assert kept[b] == restarts


@given(_block_unions(), st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_level_search_matches_each_network_alone(union, seed, trials):
    # one search over the union walk gives every block, bit for bit, the
    # labels, value, history and kept restarts of a search of the walk of
    # its own subnetwork with the same entropy
    net, offsets = union
    walk = _block_walk(net, offsets, "frequency")
    entropies = [(seed, b) for b in range(offsets.size - 1)]
    with _TrialPool(trials) as pool:
        labels, values, histories, kept = _search(walk, entropies, pool)
        for b, sub in enumerate(_blocks_alone(net, offsets)):
            alone, value, (history,), (restarts,) = _search(
                build_walk(sub), [entropies[b]], pool
            )
            assert labels[offsets[b]:offsets[b + 1]].tolist() == alone.tolist()
            assert values[b:b + 1].tobytes() == value.tobytes()
            assert histories[b] == history
            assert kept[b] == restarts


@given(_block_unions(), st.integers(0, 3), st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_level_search_does_not_depend_on_the_pool_size(union, seed, trials):
    # one process, or a share of the trials in each of 2 or 3 processes:
    # the same labels, values, histories and kept restarts, bit for bit
    net, offsets = union
    walk = _block_walk(net, offsets, "frequency")
    entropies = [(seed, b) for b in range(offsets.size - 1)]
    got = []
    for cpus in (1, 2, 3):
        with mock.patch.object(community, "_cpus", return_value=cpus), \
                _TrialPool(trials) as pool:
            assert pool.size == min(cpus, trials)
            got.append(_search(walk, entropies, pool))
    assert multiprocessing.active_children() == []
    for labels, values, histories, kept in got[1:]:
        assert labels.tolist() == got[0][0].tolist()
        assert values.tobytes() == got[0][1].tobytes()
        assert histories == got[0][2]
        assert kept.tolist() == got[0][3].tolist()


def _restarts_one_at_a_time(walk, entropies, trials):
    """The stopping rule by hand: every trial of every block, one trial at
    a time; per block, in trial order, a trial becomes the best when its
    value is lower by more than _MIN_GAIN, and the block stops after
    _PATIENCE trials in a row that are not, or after the last trial.  Returns the labels,
    values, histories and the number of trials each block took."""
    runs = [_share(walk, entropies, range(t, t + 1))[0] for t in range(trials)]
    labels = np.empty(walk.n, dtype=np.int64)
    values, histories, taken = [], [], []
    for b in range(walk.offsets.size - 1):
        best, stale, count = 0, 0, 0
        for t in range(trials):
            count += 1
            if runs[t][1][b] < runs[best][1][b] - _MIN_GAIN:
                best, stale = t, 0
            elif t > 0:
                stale += 1
            if stale == _PATIENCE:
                break
        lo, hi = walk.offsets[b], walk.offsets[b + 1]
        labels[lo:hi] = runs[best][0][lo:hi]
        values.append(runs[best][1][b])
        histories.append(runs[best][2][b])
        taken.append(count)
    return labels, values, histories, taken


def _assert_restarts_match_one_at_a_time(union, seed, trials):
    net, offsets = union
    walk = _block_walk(net, offsets, "frequency")
    entropies = [(seed, b) for b in range(offsets.size - 1)]
    small = np.diff(offsets) <= _EXACT_MAX
    big = np.flatnonzero(~small)
    want = _restarts_one_at_a_time(
        _take_blocks(walk, ~small), [entropies[b] for b in big.tolist()], trials
    )
    for cpus in (1, 2, 3):
        with mock.patch.object(community, "_cpus", return_value=cpus), \
                _TrialPool(trials) as pool:
            labels, values, histories, kept = _search(walk, entropies, pool)
        assert labels[np.repeat(~small, np.diff(offsets))].tolist() == want[0].tolist()
        assert values[big].tolist() == want[1]
        assert [histories[b] for b in big.tolist()] == want[2]
        assert kept[big].tolist() == want[3]
        assert not kept[small].any()
    assert multiprocessing.active_children() == []


@given(_block_unions(), st.integers(0, 3), st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_restarts_match_the_rule_applied_one_trial_at_a_time(union, seed, trials):
    _assert_restarts_match_one_at_a_time(union, seed, trials)


def test_restarts_past_a_stop_are_dropped():
    # the 40-node block stops at trial 2, as trials 1 and 2 fail to beat 0,
    # and trial 3, which 2 processes run in the same round as trial 2,
    # would beat them by 0.005 bits.  The 30-node block improves late: its
    # trial 4 is 0.23 bits below trials 0-3
    _assert_restarts_match_one_at_a_time(_union([40, 50, 25, 30], 41), 0, 10)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_restart_must_gain_over_min_gain_to_replace_the_best(monkeypatch, cpus):
    # each trial ends 1e-15 bits below the one before, as restarts that
    # reach one partition by different move orders do: rounding alone,
    # so trial 0 stays the best and trials 1 and 2 end the block
    def noisy(search, rngs, start):
        trial = rngs[0].bit_generator.seed_seq.entropy[-1]
        value = 5.0 - 1e-15 * trial
        return np.full(search.walk.n, trial), [value], [[value]]

    monkeypatch.setattr(community, "_cpus", lambda: cpus)
    monkeypatch.setattr(community, "_optimize_once", noisy)
    walk = build_walk(net_from_edges(3, [(0, 1), (1, 2), (2, 0)]))
    with _TrialPool(10) as pool:
        labels, values, histories, kept = pool.restarts(walk, [(0,)])
    assert labels.tolist() == [0, 0, 0]
    assert values.tolist() == [5.0] and histories == [[5.0]]
    assert kept.tolist() == [1 + _PATIENCE]


@given(_block_unions())
@settings(max_examples=60, deadline=None)
def test_batched_exact_pass_matches_each_block_and_the_optimum(union):
    net, offsets = union
    small = np.diff(offsets) <= _EXACT_MAX
    walk = _take_blocks(_block_walk(net, offsets, "frequency"), small)
    labels, values, histories = _exact_partitions(walk)
    subs = [sub for sub, keep in zip(_blocks_alone(net, offsets), small) if keep]
    for b, sub in enumerate(subs):
        lo, hi = walk.offsets[b], walk.offsets[b + 1]
        block = _one_block(walk, b)
        alone, (value,), (history,) = _exact_partitions(block)
        assert labels[lo:hi].tolist() == alone.tolist()
        assert values[b] == value
        assert histories[b] == history
        # scored by the one evaluator: bit for bit the block's own value,
        # and the history starts where a seeded restart would
        assert values[b] == _value_for(block, labels[lo:hi])
        assert histories[b] == [_value_for(block, np.arange(hi - lo)), values[b]]
        batch = BatchMapEquation(*walk_inputs(sub), tau=0.15)
        best = float(batch.values(all_partitions(sub.n_nodes)).min())
        assert value == pytest.approx(best, abs=1e-9)


def _assert_brackets(walk):
    # block b holds nodes offsets[b]:offsets[b + 1] and exactly the links
    # link_offsets[b]:link_offsets[b + 1], both ends inside its nodes
    sizes = np.diff(walk.offsets)
    assert walk.block.tolist() == [b for b, k in enumerate(sizes.tolist()) for _ in range(k)]
    assert walk.link_offsets.tolist() == [int(np.count_nonzero(walk.src < o)) for o in walk.offsets]
    for b in range(sizes.size):
        lo, hi = walk.link_offsets[b], walk.link_offsets[b + 1]
        for ends in (walk.src[lo:hi], walk.dst[lo:hi]):
            assert np.all((walk.offsets[b] <= ends) & (ends < walk.offsets[b + 1]))


@given(_block_unions(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_walk_block_index_brackets_nodes_and_links(union, seed):
    net, offsets = union
    walk = _block_walk(net, offsets, "frequency")
    _assert_brackets(walk)
    _assert_brackets(_aggregate_random_modules(walk, seed))


def _aggregate_random_modules(walk, seed):
    """An aggregation of random modules within each block, some blocks
    left out, as _optimize_once cuts the blocks that merged: the flows
    inside each module are dropped."""
    rng = np.random.default_rng(seed)
    offsets = walk.offsets
    sizes = np.diff(offsets)
    module = offsets[walk.block] + rng.integers(0, sizes[walk.block])
    uniq, inv = np.unique(module, return_inverse=True)
    counts = np.diff(np.searchsorted(uniq, offsets))
    keep = rng.random(sizes.size) < 0.6
    keep[rng.integers(sizes.size)] = True
    kept = np.repeat(keep, counts)
    new = np.cumsum(kept) - 1
    sub_offsets = np.concatenate(([0], np.cumsum(counts[keep])))
    inv = np.where(kept[inv], new[inv], sub_offsets[-1])
    return _aggregate(walk, inv, sub_offsets, walk.node_term[keep])


def _assert_adjacency_matches_oracle(walk):
    search = _Search(walk)
    want = neighbour_flows(walk.n, walk.src.tolist(), walk.dst.tolist(), walk.flow.tolist())
    assert search.ptr.tolist() == [0, *accumulate(len(around) for around in want)]
    assert search.nbr.tolist() == [u for around in want for u in around]
    flows = np.array([f for around in want for f in around.values()], dtype=np.float64)
    assert search.flow.tobytes() == flows.tobytes()
    lists = search.ptr.tolist(), search.nbr.tolist(), search.flow.tolist()
    assert (search.bounds, search.nbrs, search.flows) == lists


@given(_block_unions(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_search_adjacency_matches_neighbour_dict_oracle(union, seed):
    # the one CSR that the node-mover and the scan read: each node's
    # neighbours either way once, ascending, with the two directions'
    # flows summed.  A sum of two flows does not depend on their order,
    # so it is compared bit for bit, on a union walk and on an aggregate
    net, offsets = union
    walk = _block_walk(net, offsets, "frequency")
    _assert_adjacency_matches_oracle(walk)
    _assert_adjacency_matches_oracle(_aggregate_random_modules(walk, seed))


@given(_block_unions(), st.integers(0, 1), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_scan_of_some_blocks_matches_each_block_alone(union, first, seed):
    # every other block, so no two blocks scanned are adjacent and their
    # CSR entries are packed from ranges apart: the flags of each block,
    # shifted back, are those of a scan of its walk alone
    net, offsets = union
    walk = _block_walk(net, offsets, "frequency")
    sizes = np.diff(offsets)
    rng = np.random.default_rng(seed)
    labels = offsets[walk.block] + rng.integers(0, np.minimum(sizes, 4)[walk.block])
    search = _Search(walk)
    blocks = list(range(first, sizes.size, 2))
    flags = _flag_moves(search, labels.tolist(), *search.modules(labels), blocks)
    want = []
    for b in blocks:
        alone = _Search(_one_block(walk, b))
        local = labels[offsets[b]:offsets[b + 1]] - offsets[b]
        want += (_flag_moves(alone, local.tolist(), *alone.modules(local)) + offsets[b]).tolist()
    assert flags.tolist() == want


@given(_block_unions(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_take_blocks_is_a_gather(union, seed):
    net, offsets = union
    walk = _block_walk(net, offsets, "frequency")
    keep = np.random.default_rng(seed).random(offsets.size - 1) < 0.5
    keep[0] = True
    # the reference: each field gathered directly
    sizes = np.diff(walk.offsets)
    node = np.repeat(keep, sizes)
    index = np.cumsum(node) - 1
    link = node[walk.src]
    expected = {
        "n": int(node.sum()),
        "p": walk.p[node],
        "a": walk.a[node],
        "t": walk.t[node],
        "src": index[walk.src[link]],
        "dst": index[walk.dst[link]],
        "flow": walk.flow[link],
        "node_term": walk.node_term[keep],
        "offsets": np.concatenate(([0], np.cumsum(sizes[keep]))),
    }
    taken = _take_blocks(walk, keep)
    for name, value in expected.items():
        got = getattr(taken, name)
        assert np.asarray(got).dtype == np.asarray(value).dtype, name
        assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), name


def _link_table_by_reverse_key(decomp, net):
    """link_table's values found by looking each link's reverse up among
    the (src, dst)-sorted links."""
    b = net.weights(decomp.problem.weight_kind).astype(np.float64)
    key = net.src * net.n_nodes + net.dst
    rev_key = net.dst * net.n_nodes + net.src
    rev = np.minimum(np.searchsorted(key, rev_key), key.size - 1)
    has_rev = key[rev] == rev_key
    f_net = b - np.where(has_rev, b[rev], 0.0)
    grad = np.where(has_rev, 2.0, 1.0) * (decomp.phi[net.src] - decomp.phi[net.dst])
    return f_net, grad, f_net - grad


@given(_block_unions(), st.integers(0, 2**32 - 1), st.sampled_from(WEIGHT_KINDS))
@settings(max_examples=60, deadline=None)
def test_link_table_matches_reverse_key_lookup(union, seed, kind):
    net, _ = union
    # every third link gets a reverse, so the union has mutual links
    rng = np.random.default_rng(seed)
    pairs = set(zip(net.src.tolist(), net.dst.tolist()))
    edges = sorted(pairs | {(t, s) for s, t in sorted(pairs)[::3]})
    flows, freqs = (rng.integers(1, top, len(edges)).tolist() for top in (10**6, 50))
    net = net_from_edges(net.n_nodes, edges, flows=flows, freqs=freqs)
    decomp = hodge_decompose(net, kind)
    table = decomp.link_table(net)
    assert table.shape == (net.n_links, 3)
    assert table.dtype == np.float64
    for column, expected in zip(table.T, _link_table_by_reverse_key(decomp, net)):
        assert column.tobytes() == expected.tobytes()


def test_block_walk_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(community, "_WALK_MAX_ITER", 1)
    ring = [(i, (i + 1) % 10) for i in range(10)] + [(0, 5)]
    net = net_from_edges(12, ring + [(10, 11), (11, 10)])
    with pytest.raises(ConvergenceError, match="did not converge") as exc_info:
        community._block_walk(net, np.array([0, 10, 12]), "frequency")
    assert exc_info.value.residual > community._WALK_TOL


def test_walk_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(community, "_WALK_MAX_ITER", 1)
    net = net_from_edges(10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 5)])
    assert net.n_nodes > _EXACT_MAX
    with pytest.raises(ConvergenceError, match="did not converge") as exc_info:
        build_walk(net)
    assert exc_info.value.residual > community._WALK_TOL


# sha256 of the tree and history at seed 0, trials 10; any change to the
# optimizer's arithmetic or move order shows up here.  Re-pinned when the
# generator's schedule draws changed, which moves the link weights, when
# local moves became queue-driven, when a vectorised scan replaced the
# full re-passes, when the scan came to certify blocks under 40 nodes as
# well, each of which changes the order in which nodes are visited,
# when each community's restarts came to stop after _PATIENCE in a row
# fail to improve it, which changes the restart each community keeps, and
# when the node-mover came to sum each neighbour's flows both ways before
# summing them per module, and every block sum to be one np.add.reduceat,
# which change values in their last bits and so which restart is lowest,
# and when a restart came to replace the best only by a gain over
# _MIN_GAIN, which keeps the earlier of two restarts apart by rounding
PINNED_TREES = [
    (
        # one neighbour list and one block-sum rule: same communities at
        # every level and value to 1e-15 (5.815924 bits, 39 leaves); level
        # 1's trial 1 now ends 2e-15 bits below trial 0 on the same
        # partition, so the history is trial 1's and the level-1
        # communities come in its order.  A gain over _MIN_GAIN: trial 0
        # stays the best, so the history and the level-1 order are trial
        # 0's again, with the same communities at every level and value
        cities_scenario(n_nodes=300, seed=1, hub=True),
        "d4c909d7f8bac3ebc4085fde1b2c3d63b796463ed88124c8b0b15c5bd8b2c236",
    ),
    (
        # one neighbour list and one block-sum rule: same communities in
        # the same order, and value to 1e-15 (6.201344 bits, 12 leaves);
        # trial 0's history differs in the last bits
        blocks_scenario(n_nodes=240, seed=0, n_blocks=12, nested=True),
        "9c7d5e072c80e0f377810f39bf2dabe03801a5f781b1252d2f4d6add4fd489bc",
    ),
    (
        # one neighbour list and one block-sum rule: same communities in
        # the same order, and value to 1e-15 (6.143729 bits, 46 leaves);
        # trial 0's history differs in the last bits
        walnut_scenario(n_nodes=300, seed=3),
        "21494f00a6d91b81847a4982615b2759ee570b782ca6d24ffd7a5cdb58f04f08",
    ),
]


def _tree_digest(spec):
    records, _ = generate(spec)
    tree = detect_communities(build_network(aggregate(records)), seed=0, trials=10)
    blob = json.dumps({"tree": tree.as_dict(), "history": list(tree.history)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("spec,digest", PINNED_TREES, ids=["cities", "blocks", "walnut"])
def test_tree_pinned(spec, digest):
    assert _tree_digest(spec) == digest


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_pinned_trees_on_any_number_of_cpus(monkeypatch, cpus):
    monkeypatch.setattr(community, "_cpus", lambda: cpus)
    assert [_tree_digest(spec) for spec, _ in PINNED_TREES] == [d for _, d in PINNED_TREES]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_search_counts_on_any_number_of_cpus(monkeypatch, cpus):
    # per level: blocks searched, blocks solved exactly, restarts kept; a
    # restart that a round ran past its block's stop is not counted.
    # Re-pinned from 3, 44 and 5 restarts with the one neighbour list and
    # block-sum rule: level 1's trial 1 now beats trial 0 in the last bits
    # on the same partition, so the level-1 communities come in its order
    # and each is searched with the seeds of its new index.  Re-pinned
    # from 4 and 63 when a restart came to replace the best only by a gain
    # over _MIN_GAIN: level 1 stops after trials 1 and 2, and level-2
    # restarts that end a few ulps apart no longer reset the count
    monkeypatch.setattr(community, "_cpus", lambda: cpus)
    records, _ = generate(PINNED_TREES[0][0])
    tree = detect_communities(build_network(aggregate(records)), seed=0, trials=10)
    assert tree.searches == (
        LevelSearch(blocks=1, exact=0, restarts=3),
        LevelSearch(blocks=37, exact=25, restarts=36),
        LevelSearch(blocks=3, exact=2, restarts=3),
    )


def test_one_cpu_runs_only_the_restarts_it_keeps(monkeypatch):
    # one trial a round: no restart is speculative, and no round runs once
    # every block has stopped
    runs = []
    optimize_once = community._optimize_once
    monkeypatch.setattr(community, "_cpus", lambda: 1)
    monkeypatch.setattr(
        community, "_optimize_once", lambda *args: runs.append(args) or optimize_once(*args)
    )
    records, _ = generate(PINNED_TREES[0][0])
    tree = detect_communities(build_network(aggregate(records)), seed=0, trials=10)
    assert sum(len(rngs) for _, rngs, _ in runs) == sum(s.restarts for s in tree.searches)
    assert all(rngs for _, rngs, _ in runs)


@pytest.mark.parametrize("cpus,trials", [(3, 1), (1, 10)], ids=["one-trial", "one-cpu"])
def test_one_trial_or_one_cpu_starts_no_process(monkeypatch, cpus, trials):
    def refuse():
        raise AssertionError("a process was started")

    monkeypatch.setattr(community, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", refuse)
    records, _ = generate(PINNED_TREES[0][0])
    tree = detect_communities(build_network(aggregate(records)), seed=0, trials=trials)
    assert tree.value > 0


def test_dead_worker_ends_the_call_and_leaves_no_process(monkeypatch):
    # a worker that dies mid-restart breaks the pool: the call raises
    # instead of waiting for the lost result, and no worker outlives it
    workers_die(monkeypatch)
    records, _ = generate(PINNED_TREES[0][0])
    with pytest.raises(BrokenProcessPool):
        detect_communities(build_network(aggregate(records)), seed=0, trials=10)
    assert multiprocessing.active_children() == []


class TestPlantedStructure:
    def test_two_disconnected_cliques(self):
        edges = [
            (b + i, b + j)
            for b in (0, 5)
            for i in range(5)
            for j in range(5)
            if i != j
        ]
        net = net_from_edges(10, edges, freqs=[2] * len(edges))
        tree = detect_communities(net, seed=0, trials=5)
        assert len(tree.children) == 2
        assert all(c.irreducible for c in tree.children)
        assert sorted(len(c.members) for c in tree.children) == [5, 5]

    def test_four_blocks_recovered(self):
        spec = blocks_scenario(n_nodes=240, seed=5, n_blocks=4)
        records, truth = generate(spec)
        net = build_network(aggregate(records))
        tree = detect_communities(net, seed=0, trials=10)
        got = tree.top_labels().tolist()
        want = [truth.communities[name][0] for name in net.node_ids]
        assert adjusted_rand_index(got, want) >= 0.9

    def test_nested_blocks_refine(self):
        # six groups of two dense sub-blocks each; the optimizer keeps most
        # groups whole at the top and the recursion splits them
        spec = blocks_scenario(n_nodes=240, seed=0, n_blocks=12, nested=True)
        records, truth = generate(spec)
        net = build_network(aggregate(records))
        tree = detect_communities(net, seed=0, trials=10)

        levels = {c.level for c in tree.communities()}
        assert levels == {1, 2}
        deep = [c for c in tree.communities() if c.level == 2]
        assert len(deep) >= 2

        # every child community refines its parent
        for comm in tree.communities():
            for child in comm.children:
                assert set(child.members) <= set(comm.members)
                assert child.level == comm.level + 1

        # leaves tile the node set and recover the planted sub-blocks
        seen = [v for leaf in tree.leaves() for v in leaf.members]
        assert sorted(seen) == list(range(net.n_nodes))
        leaf_label = {}
        for m, leaf in enumerate(tree.leaves()):
            for v in leaf.members:
                leaf_label[v] = m
        got = [leaf_label[i] for i in range(net.n_nodes)]
        want = [tuple(truth.communities[name]) for name in net.node_ids]
        assert adjusted_rand_index(got, want) >= 0.9

    def test_zero_link_network(self):
        net = net_from_edges(3, [(0, 1), (1, 2)])
        (_, sub), _ = split(net, np.array([0, 1, 0]))
        tree = detect_communities(sub, seed=0)
        assert tree.value == 0.0
        assert len(tree.children) == 1
        assert tree.children[0].irreducible
        assert tree.children[0].members == (0, 1)

    def test_single_node_network(self):
        net = net_from_edges(2, [(0, 1)])
        (_, sub), _ = split(net, np.array([0, 1]))
        tree = detect_communities(sub, seed=0)
        assert len(tree.children) == 1
        assert tree.children[0].members == (0,)


@pytest.fixture(scope="module")
def nested_tree():
    spec = blocks_scenario(n_nodes=240, seed=0, n_blocks=12, nested=True)
    records, _ = generate(spec)
    net = build_network(aggregate(records))
    return detect_communities(net, seed=0, trials=10)


class TestReportAndTable:
    def test_report_levels(self, nested_tree):
        report = community_report(nested_tree)
        rows = {r.level: r for r in report.rows}
        assert sorted(rows) == [1, 2]
        n = nested_tree.n_nodes
        assert rows[1].accounts == n
        assert rows[1].ratio == pytest.approx(1.0)
        assert rows[1].communities == len(nested_tree.children)
        level2 = [c for c in nested_tree.communities() if c.level == 2]
        assert rows[2].communities == len(level2)
        assert rows[2].accounts == sum(c.size for c in level2)
        assert rows[2].ratio == pytest.approx(rows[2].accounts / n)
        total_irreducible = sum(r.irreducible for r in report.rows)
        assert total_irreducible == len(nested_tree.leaves())

    def test_size_rank(self, nested_tree):
        report = community_report(nested_tree)
        ranks = [rank for rank, _ in report.size_rank]
        sizes = [size for _, size in report.size_rank]
        assert ranks == list(range(1, len(sizes) + 1))
        assert sizes == sorted(sizes, reverse=True)
        assert sum(sizes) == nested_tree.n_nodes
        assert sizes == sorted(
            (len(c.members) for c in nested_tree.leaves()), reverse=True
        )

    def test_flat_table(self, nested_tree):
        rows = flat_table(nested_tree)
        header, body = rows[0], rows[1:]
        assert header == ["node_id", "level_1", "level_2", "irreducible"]
        assert len(body) == nested_tree.n_nodes
        assert [r[0] for r in body] == list(nested_tree.node_ids)

        by_node = {r[0]: r for r in body}
        leaf_ids = set()
        for leaf in nested_tree.leaves():
            trails = {
                tuple(by_node[nested_tree.node_ids[v]][1:]) for v in leaf.members
            }
            # all members of one leaf share one trail, distinct per leaf
            assert len(trails) == 1
            trail = trails.pop()
            assert trail[-1] not in leaf_ids
            leaf_ids.add(trail[-1])
            if leaf.level == 1:
                assert trail[1] == ""

    def test_report_dict_shape(self, nested_tree):
        as_dict = community_report(nested_tree).as_dict()
        assert set(as_dict) == {"levels", "size_rank"}
        assert all(
            set(row) == {"level", "communities", "irreducible", "accounts", "ratio"}
            for row in as_dict["levels"]
        )
        assert all(set(row) == {"rank", "size"} for row in as_dict["size_rank"])
