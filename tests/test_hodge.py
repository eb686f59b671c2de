import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moneyflow import (
    aggregate,
    assemble_problem,
    build_network,
    classify_bowtie,
    decompose,
    generate,
    hodge_decompose,
    potential_histograms,
    potential_vs_net,
    solve_potentials,
    walnut_scenario,
)
from moneyflow import hodge
from moneyflow.bowtie import weakly_connected_components
from moneyflow.hodge import WEIGHT_KINDS, ConvergenceError

from conftest import net_from_edges, random_connected_edges, random_edges
from oracles import hodge_dense, pearson_r


def dense_from(problem):
    return (
        problem.F.toarray(),
        problem.w.toarray(),
        problem.laplacian.toarray(),
    )


class TestAssembly:
    def test_matrices_hand_example(self):
        # one reciprocated pair plus a one-way link, frequency weights
        net = net_from_edges(3, [(0, 1), (1, 0), (1, 2)], freqs=[3, 1, 2])
        problem = assemble_problem(net, kind="frequency")
        F, w, L = dense_from(problem)
        assert F[0, 1] == 2 and F[1, 0] == -2
        assert F[1, 2] == 2 and F[2, 1] == -2
        # w counts directed links per pair: mutual -> 2, one-way -> 1
        assert w[0, 1] == w[1, 0] == 2
        assert w[1, 2] == w[2, 1] == 1
        assert np.allclose(L, np.diag(w.sum(axis=1)) - w)
        assert np.allclose(problem.divergence, F.sum(axis=1))

    def test_flow_and_frequency_differ(self):
        net = net_from_edges(2, [(0, 1)], flows=[500], freqs=[2])
        assert assemble_problem(net, "flow").F[0, 1] == 500
        assert assemble_problem(net, "frequency").F[0, 1] == 2

    def test_unknown_kind_rejected(self):
        net = net_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            assemble_problem(net, "volume")


class TestSolve:
    def test_matches_dense_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 50))
            edges = random_connected_edges(rng, n, int(rng.integers(0, 2 * n)))
            freqs = rng.integers(1, 40, size=len(edges))
            net = net_from_edges(n, edges, freqs=freqs)
            problem = assemble_problem(net, "frequency")
            phi = solve_potentials(problem)
            weights = net.weights("frequency").astype(float)
            pairs = list(zip(net.src.tolist(), net.dst.tolist()))
            phi_ref, _, grad_ref, circ_ref = hodge_dense(n, pairs, weights)
            scale = max(1.0, float(np.abs(phi_ref).max()))
            assert np.abs(phi - phi_ref).max() / scale < 1e-8
            decomp = decompose(problem, phi)
            assert np.allclose(decomp.gradient.toarray(), grad_ref, atol=1e-8)
            assert np.allclose(decomp.circular.toarray(), circ_ref, atol=1e-8)

    def test_single_link_half_potentials(self):
        net = net_from_edges(2, [(0, 1)])
        decomp = hodge_decompose(net, kind="frequency")
        assert decomp.phi == pytest.approx([0.5, -0.5], abs=1e-10)
        # the whole flow is gradient flow
        assert decomp.circular.toarray() == pytest.approx(np.zeros((2, 2)), abs=1e-10)

    @pytest.mark.parametrize("length", range(3, 11))
    def test_equal_flow_cycle_is_pure_circulation(self, length):
        edges = [(i, (i + 1) % length) for i in range(length)]
        net = net_from_edges(length, edges, freqs=[7] * length)
        decomp = hodge_decompose(net, kind="frequency")
        assert np.abs(decomp.phi).max() < 1e-10
        assert np.abs(decomp.gradient.toarray()).max() < 1e-10
        assert np.allclose(
            decomp.circular.toarray(), decomp.problem.F.toarray(), atol=1e-10
        )

    def test_reciprocal_pair_hand_computed(self):
        # F = 2, w = 2 -> phi gap solves 2(phi_a - phi_b) = 2
        net = net_from_edges(2, [(0, 1), (1, 0)], flows=[3, 1])
        decomp = hodge_decompose(net, kind="flow")
        assert decomp.phi == pytest.approx([0.5, -0.5], abs=1e-10)
        assert decomp.gradient[0, 1] == pytest.approx(2.0, abs=1e-10)
        assert decomp.circular[0, 1] == pytest.approx(0.0, abs=1e-10)

    def test_sum_of_potentials_is_zero(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 40))
            edges = random_connected_edges(rng, n, n)
            net = net_from_edges(n, edges)
            decomp = hodge_decompose(net)
            assert abs(decomp.phi.sum()) < 1e-8

    def test_circular_flow_is_divergence_free(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 60))
            edges = random_connected_edges(rng, n, 2 * n)
            freqs = rng.integers(1, 30, size=len(edges))
            net = net_from_edges(n, edges, freqs=freqs)
            decomp = hodge_decompose(net)
            F_norm = np.abs(decomp.problem.F.data).max()
            assert np.abs(decomp.circular_divergence()).max() <= 1e-6 * max(1.0, F_norm)

    def test_decomposition_is_exact_split(self, rng):
        n = 25
        edges = random_connected_edges(rng, n, 40)
        net = net_from_edges(n, edges)
        decomp = hodge_decompose(net)
        total = decomp.gradient.toarray() + decomp.circular.toarray()
        assert np.allclose(total, decomp.problem.F.toarray(), atol=1e-12)

    def test_disconnected_problem_solves_per_component(self):
        net = net_from_edges(4, [(0, 1), (2, 3)])
        phi = solve_potentials(assemble_problem(net))
        # per-component gauge; second dyad carries frequency 2, so F = 2, w = 1
        assert phi == pytest.approx([0.5, -0.5, 1.0, -1.0], abs=1e-10)
        assert phi.tobytes() == hodge_decompose(net).phi.tobytes()

    def test_interleaved_components_match_dense_oracle(self, rng):
        # each node joins one of four components at random, so every
        # component's indices are scattered over the whole node range
        n = 80
        owner = rng.permutation(np.arange(n) % 4)
        edges = []
        for comp in range(4):
            members = np.flatnonzero(owner == comp)
            for s, t in random_connected_edges(rng, members.size, members.size):
                edges.append((int(members[s]), int(members[t])))
        net = net_from_edges(n, edges)
        pairs = list(zip(net.src.tolist(), net.dst.tolist()))
        for kind in ("frequency", "flow"):
            decomp = hodge_decompose(net, kind=kind)
            assert decomp.problem.components[1] == 4
            assert decomp.cg_residual <= 1e-10
            phi_ref = hodge_dense(n, pairs, net.weights(kind).astype(float))[0]
            for comp in range(4):
                nodes = owner == comp
                scale = max(1.0, float(np.abs(phi_ref[nodes]).max()))
                assert np.abs(decomp.phi[nodes] - phi_ref[nodes]).max() / scale < 1e-8

    def test_cg_counters_on_a_fixed_walnut(self):
        # hodge_decompose counts the iterations of the solve that
        # solve_potentials runs, so phi is the same, bit for bit
        records, _ = generate(walnut_scenario(n_nodes=2000, seed=1))
        decomp = hodge_decompose(build_network(aggregate(records)))
        problem = decomp.problem
        assert decomp.phi.tobytes() == solve_potentials(problem).tobytes()
        assert decomp.cg_iterations == 49
        assert decomp.cg_residual == pytest.approx(9.3866145e-11, rel=1e-6)
        # one weak component: the residual of phi itself over the centred
        # divergence, which rescaling phi changes only in the last bits
        assert problem.components[1] == 1
        b = problem.divergence - problem.divergence.mean()
        r = problem.divergence - problem.laplacian @ decomp.phi
        assert np.linalg.norm(r) / np.linalg.norm(b) == pytest.approx(decomp.cg_residual, rel=1e-4)
        given = decompose(problem, decomp.phi)
        assert given.cg_iterations is None and given.cg_residual is None

    def test_convergence_error_carries_residual(self, rng, monkeypatch):
        edges = random_connected_edges(rng, 120, 240)
        net = net_from_edges(120, edges)
        problem = assemble_problem(net)
        monkeypatch.setattr(hodge, "_CG_ITER_PER_NODE", 0)
        monkeypatch.setattr(hodge, "_CG_MIN_ITER", 2)
        with pytest.raises(ConvergenceError) as exc_info:
            solve_potentials(problem, tol=1e-10)
        assert exc_info.value.residual > 0


@given(
    n=st.integers(min_value=2, max_value=40),
    links_per_node=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(WEIGHT_KINDS),
)
@settings(max_examples=150, deadline=None)
def test_split_on_random_digraphs(n, links_per_node, seed, kind):
    # at most one link per node, so many draws have several weak components
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, n, max(1, min(n * (n - 1), int(links_per_node * n))))
    m = len(edges)
    net = net_from_edges(
        n, edges, flows=rng.integers(1, 10**6, size=m), freqs=rng.integers(1, 40, size=m)
    )
    decomp = hodge_decompose(net, kind=kind)
    F = decomp.problem.F.toarray()
    f_scale = max(1.0, float(np.abs(F).max()))
    split = decomp.gradient.toarray() + decomp.circular.toarray()
    assert np.abs(split - F).max() <= 1e-12 * f_scale
    assert np.abs(decomp.circular_divergence()).max() <= 1e-6 * f_scale
    pairs = list(zip(net.src.tolist(), net.dst.tolist()))
    phi_ref = hodge_dense(n, pairs, net.weights(kind).astype(float))[0]
    labels, count = decomp.problem.components
    for comp in range(count):
        nodes = labels == comp
        scale = max(1.0, float(np.abs(phi_ref[nodes]).max()))
        assert abs(decomp.phi[nodes].sum()) <= 1e-10 * scale
        assert np.abs(decomp.phi[nodes] - phi_ref[nodes]).max() / scale < 1e-8


class TestComponents:
    def test_match_bowtie_weak_components(self, rng):
        # often disconnected: few links over many nodes
        for _ in range(20):
            n = int(rng.integers(3, 40))
            edges = random_edges(rng, n, int(rng.integers(1, 2 * n)))
            net = net_from_edges(n, edges)
            labels, count = assemble_problem(net).components
            want_labels, want_count = weakly_connected_components(net)
            assert count == want_count
            assert labels.dtype == want_labels.dtype
            assert labels.tolist() == want_labels.tolist()
            firsts = [int(np.flatnonzero(labels == k)[0]) for k in range(count)]
            assert firsts == sorted(firsts)


class TestLinkTable:
    def test_rows_consistent_with_matrices(self, rng):
        n = 12
        edges = random_connected_edges(rng, n, 20)
        freqs = rng.integers(1, 20, size=len(edges))
        net = net_from_edges(n, edges, freqs=freqs)
        decomp = hodge_decompose(net)
        table = decomp.link_table(net)
        assert table.shape == (net.n_links, 3)
        assert table.dtype == np.float64
        for i, j, (f_net, grad, circ) in zip(net.src, net.dst, table):
            assert f_net == decomp.problem.F[i, j]
            assert grad == decomp.gradient[i, j]
            assert circ == f_net - grad

    def test_one_way_and_mutual_links(self):
        # 0 <-> 1 is mutual (w = 2), 1 -> 2 one-way (w = 1)
        net = net_from_edges(3, [(0, 1), (1, 0), (1, 2)], freqs=[3, 1, 2])
        decomp = hodge_decompose(net)
        phi = decomp.phi
        table = decomp.link_table(net)
        # rows in link order
        assert list(zip(net.src.tolist(), net.dst.tolist())) == [(0, 1), (1, 0), (1, 2)]
        assert table[:, 0].tolist() == [2.0, -2.0, 2.0]
        assert table[:, 1].tolist() == [
            2.0 * (phi[0] - phi[1]), 2.0 * (phi[1] - phi[0]), 1.0 * (phi[1] - phi[2]),
        ]
        # float64 columns, so the CLI's repr() writes plain numbers
        assert table.dtype == np.float64


class TestAgainstStructure:
    def test_histograms_partition_the_gwcc(self):
        edges = [(0, 1), (1, 0), (2, 0), (1, 3), (4, 5)]
        net = net_from_edges(6, edges)
        part = classify_bowtie(net)
        decomp = hodge_decompose(net)
        bin_edges, counts = potential_histograms(decomp.phi, part)
        assert len(bin_edges) == hodge._POTENTIAL_BINS + 1
        assert set(counts) == {"GSCC", "IN", "OUT", "TE"}
        assert sum(c.sum() for c in counts.values()) == part.gwcc_size
        for name, hist in counts.items():
            assert hist.sum() == part.sizes[name]

    def test_sender_side_has_higher_potential(self):
        # chain of one-way links: upstream nodes sit at higher potential
        edges = [(0, 1), (1, 2), (2, 3)]
        net = net_from_edges(4, edges)
        decomp = hodge_decompose(net)
        phi = decomp.phi
        assert phi[0] > phi[1] > phi[2] > phi[3]

    def test_correlations_match_direct_pearson(self, rng):
        n = 30
        edges = random_connected_edges(rng, n, 60)
        net = net_from_edges(n, edges)
        decomp = hodge_decompose(net)
        corr = potential_vs_net(decomp.phi, net)
        assert corr.r_net_degree == pytest.approx(
            pearson_r(decomp.phi, corr.net_degree), abs=1e-9
        )
        assert corr.r_net_flow == pytest.approx(
            pearson_r(decomp.phi, corr.net_flow), abs=1e-9
        )
