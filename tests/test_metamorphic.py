"""Metamorphic properties: transformations of the input whose effect on
an analysis is known, checked without an oracle."""

import csv
import dataclasses
import io

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moneyflow import (
    FilterPolicy,
    TransferTable,
    aggregate,
    build_network,
    ccdf,
    classify_bowtie,
    collect_node_coords,
    degree_stats,
    detect_communities,
    filter_records,
    generate,
    hodge_decompose,
    map_equation_value,
    parse_log,
    walnut_scenario,
    write_links,
    write_node_coords,
    write_records,
)
from moneyflow.bowtie import COMPONENT_NAMES, IN, OUT
from moneyflow.hodge import WEIGHT_KINDS
from moneyflow.network import FlowNetwork

# the CLI's hodge --tol default, the relative residual of the solve
TOL = 1e-10


def _walnut(n_nodes, seed):
    # 3% of the accounts outside the GWCC, in components of two or three
    records, _ = generate(walnut_scenario(n_nodes=n_nodes, seed=seed, te_frac=0.066))
    return build_network(aggregate(records))


def _log(n_nodes, seed):
    """The header and the transfer lines of a walnut log."""
    records, _ = generate(walnut_scenario(n_nodes=n_nodes, seed=seed))
    text = io.StringIO()
    write_records(records, text)
    header, *lines = text.getvalue().splitlines(keepends=True)
    return header, lines


def _ingest(header, lines):
    """links.csv and nodes.csv as ingest writes them from a log."""
    parsed, rejected = parse_log(io.StringIO(header + "".join(lines)))
    assert rejected == []
    kept = filter_records(parsed, FilterPolicy())
    coords, conflicts = collect_node_coords(kept)
    # each account has one coordinate, so the first one seen is the only one
    assert conflicts == 0
    links, nodes = io.StringIO(), io.StringIO()
    write_links(aggregate(kept), links)
    write_node_coords(coords, nodes)
    return links.getvalue(), nodes.getvalue()


@given(st.integers(100, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_reversing_every_link(n_nodes, seed):
    # IN and OUT swap, and the potentials, the gradient part and the
    # circular part all change sign, for both weights
    net = _walnut(n_nodes, seed)
    rev = build_network(FlowNetwork(net.node_ids, net.dst, net.src, net.flow, net.freq))
    swap = np.arange(len(COMPONENT_NAMES))
    swap[[IN, OUT]] = OUT, IN
    assert classify_bowtie(rev).labels.tolist() == swap[classify_bowtie(net).labels].tolist()
    for kind in WEIGHT_KINDS:
        fwd, back = hodge_decompose(net, kind, TOL), hodge_decompose(rev, kind, TOL)
        atol = TOL * max(1.0, float(np.abs(fwd.phi).max()))
        np.testing.assert_allclose(back.phi, -fwd.phi, rtol=0, atol=atol)
        # a link's gradient is w (phi_i - phi_j) with w at most 2
        for part in ("gradient", "circular"):
            np.testing.assert_allclose(
                getattr(back, part).toarray(), -getattr(fwd, part).toarray(),
                rtol=0, atol=4.0 * atol,
            )


@given(st.integers(100, 300), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_shuffling_the_log_lines(n_nodes, seed, shuffle_seed):
    header, lines = _log(n_nodes, seed)
    order = np.random.default_rng(shuffle_seed).permutation(len(lines))
    assert _ingest(header, [lines[i] for i in order]) == _ingest(header, lines)


@given(st.integers(100, 300), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=20, deadline=None)
def test_splitting_one_transfer(n_nodes, seed, data):
    # two transfers with the endpoints and time of one, their amounts
    # summing to its amount: the link's flow stays, its frequency rises by 1
    header, lines = _log(n_nodes, seed)
    k = data.draw(st.integers(0, len(lines) - 1), label="transfer")
    fields = lines[k].split(",")
    amount = int(fields[3])
    assume(amount >= 2)  # a log holds no zero amounts
    part = data.draw(st.integers(1, amount - 1), label="part")
    halves = [",".join([*fields[:3], str(a), *fields[4:]]) for a in (part, amount - part)]
    links, nodes = _ingest(header, lines)
    split_links, split_nodes = _ingest(header, lines[:k] + halves + lines[k + 1:])
    assert split_nodes == nodes
    rows = list(csv.reader(io.StringIO(links)))
    bumped = [i for i, row in enumerate(rows) if row[:2] == fields[1:3]]
    assert len(bumped) == 1
    rows[bumped[0]][3] = str(int(rows[bumped[0]][3]) + 1)
    assert list(csv.reader(io.StringIO(split_links))) == rows


@given(st.integers(100, 300), st.integers(0, 2**32 - 1), st.integers(2, 1000))
@settings(max_examples=10, deadline=None)
def test_scaling_every_amount(n_nodes, seed, c):
    # amounts times an integer c: each link's flow is c times its flow and
    # its frequency stays, so the flow potentials scale by c, and whatever
    # reads only frequencies or links is unchanged bit for bit
    records, _ = generate(walnut_scenario(n_nodes=n_nodes, seed=seed))
    scaled = dataclasses.replace(records, amount=records.amount * c)
    net, net_c = build_network(aggregate(records)), build_network(aggregate(scaled))
    assert net_c.flow.tolist() == [f * c for f in net.flow.tolist()]
    assert net_c.freq.tobytes() == net.freq.tobytes()
    flow, flow_c = hodge_decompose(net, "flow", TOL), hodge_decompose(net_c, "flow", TOL)
    np.testing.assert_allclose(flow_c.phi, c * flow.phi, rtol=1e-9)
    freq, freq_c = hodge_decompose(net, "frequency", TOL), hodge_decompose(net_c, "frequency", TOL)
    assert freq_c.phi.tobytes() == freq.phi.tobytes()
    assert classify_bowtie(net_c).labels.tobytes() == classify_bowtie(net).labels.tobytes()
    assert detect_communities(net_c, seed=seed, trials=1, kind="frequency") == detect_communities(
        net, seed=seed, trials=1, kind="frequency"
    )


def _renamed(records, names):
    """The transfers of ``records`` with account ``records.ids[i]`` renamed
    ``names[i]``."""
    columns = {k: getattr(records, k) for k in ("amount", "timestamp", "tail", "kinds",
                                                 "coords", "has_coord")}
    return TransferTable.from_codes(names, records.src, records.dst, **columns)


def _new_names(n, prefix, names_seed):
    """n distinct ids, ascending: the prefix and nine digits."""
    rng = np.random.default_rng(names_seed)
    return [f"{prefix}{c:09d}" for c in np.sort(rng.choice(10**9, size=n, replace=False))]


# a prefix of any characters keeps the order of the fixed-width digits after it
PREFIXES = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=4)


@given(st.integers(100, 300), st.integers(0, 2**32 - 1), PREFIXES, st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_renaming_ids_in_their_order(n_nodes, seed, prefix, names_seed):
    # the analyses read ids only through their sort order, so a renaming
    # that keeps it changes nothing but the names, bit for bit
    records, _ = generate(walnut_scenario(n_nodes=n_nodes, seed=seed, te_frac=0.066))
    names = _new_names(len(records.ids), prefix, names_seed)
    net = build_network(aggregate(records))
    net_r = build_network(aggregate(_renamed(records, names)))
    rename = dict(zip(records.ids.tolist(), names))
    assert list(net_r.node_ids) == [rename[x] for x in net.node_ids]
    for column in ("src", "dst", "flow", "freq"):
        assert getattr(net_r, column).tobytes() == getattr(net, column).tobytes()
    assert classify_bowtie(net_r).labels.tobytes() == classify_bowtie(net).labels.tobytes()
    for kind in WEIGHT_KINDS:
        phi, phi_r = hodge_decompose(net, kind, TOL).phi, hodge_decompose(net_r, kind, TOL).phi
        assert phi_r.tobytes() == phi.tobytes()
    tree = detect_communities(net, seed=seed, trials=1)
    assert detect_communities(net_r, seed=seed, trials=1) == dataclasses.replace(
        tree, node_ids=tuple(net_r.node_ids)
    )


@given(st.integers(100, 300), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_renaming_ids_out_of_their_order(n_nodes, seed, names_seed):
    # a renaming that shuffles the id order renumbers the accounts: each
    # keeps its bowtie class and, within the solve's tolerance, its
    # potentials; distributions and the value of a partition do not move
    records, _ = generate(walnut_scenario(n_nodes=n_nodes, seed=seed, te_frac=0.066))
    names = _new_names(len(records.ids), "", names_seed)
    names = [names[i] for i in np.random.default_rng(names_seed).permutation(len(names))]
    net = build_network(aggregate(records))
    net_r = build_network(aggregate(_renamed(records, names)))
    rename = dict(zip(records.ids.tolist(), names))
    position = {name: i for i, name in enumerate(net_r.node_ids)}
    # account i of net is account moved[i] of net_r
    moved = np.array([position[rename[x]] for x in net.node_ids])
    assert sorted(moved.tolist()) == list(range(net.n_nodes))

    assert classify_bowtie(net_r).labels[moved].tolist() == classify_bowtie(net).labels.tolist()
    for values, values_r in (
        (net.weights("flow"), net_r.weights("flow")),
        (net.weights("frequency"), net_r.weights("frequency")),
        *zip(degree_stats(net)[:2], degree_stats(net_r)[:2]),
    ):
        dist, dist_r = ccdf(values), ccdf(values_r)
        assert dist_r.values.tobytes() == dist.values.tobytes()
        assert dist_r.fractions.tobytes() == dist.fractions.tobytes()
    for kind in WEIGHT_KINDS:
        phi, phi_r = hodge_decompose(net, kind, TOL).phi, hodge_decompose(net_r, kind, TOL).phi
        atol = TOL * max(1.0, float(np.abs(phi).max()))
        np.testing.assert_allclose(phi_r[moved], phi, rtol=0, atol=atol)
    labels = detect_communities(net, seed=seed, trials=1).top_labels()
    labels_r = np.empty_like(labels)
    labels_r[moved] = labels
    np.testing.assert_allclose(
        map_equation_value(net_r, labels_r), map_equation_value(net, labels), rtol=1e-12
    )
