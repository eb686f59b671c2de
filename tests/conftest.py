"""Shared builders for the test suite.

Nodes are named n0000, n0001, ... so that the package's lexicographic
node ordering coincides with the integer indices the oracles use.
Tests write transfers and links by hand as rows; :func:`transfer_table`
and :func:`link_table` turn those rows into the package's column tables.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from moneyflow import AggregatedLink, FlowNetwork, TransferTable, build_network
from moneyflow.ingest import KINDS
from moneyflow.network import _exact_ints


def node_name(i: int) -> str:
    return f"n{i:04d}"


def transfer_table(records) -> TransferTable:
    """The table of TransferRecord rows, in order."""
    records = list(records)
    ids = sorted({r.source for r in records} | {r.destination for r in records})
    code = {name: k for k, name in enumerate(ids)}
    columns = {
        "src": [code[r.source] for r in records],
        "dst": [code[r.destination] for r in records],
        "amount": [r.amount for r in records],
        "timestamp": [r.timestamp for r in records],
        "src_kind": [KINDS.index(r.source_kind) for r in records],
        "dst_kind": [KINDS.index(r.destination_kind) for r in records],
    }
    for side, attr in (("src", "source_coord"), ("dst", "destination_coord")):
        coords = [getattr(r, attr) for r in records]
        columns[f"{side}_has_coord"] = [c is not None for c in coords]
        columns[f"{side}_coord"] = np.array(
            [(0.0, 0.0) if c is None else c for c in coords], dtype=np.float64
        ).reshape(-1, 2)
    return TransferTable(ids=ids, **columns)


def link_table(links) -> FlowNetwork:
    """The network of AggregatedLink rows, in order and unchecked."""
    links = list(links)
    names = sorted({l.source for l in links} | {l.destination for l in links})
    index = {name: i for i, name in enumerate(names)}
    return FlowNetwork(
        node_ids=tuple(names),
        src=np.array([index[l.source] for l in links], dtype=np.int64),
        dst=np.array([index[l.destination] for l in links], dtype=np.int64),
        flow=_exact_ints([l.flow for l in links]),
        freq=np.array([l.frequency for l in links], dtype=np.int64),
    )


def make_links(edges, flows=None, freqs=None) -> FlowNetwork:
    """Unchecked link table over integer edge tuples, in the given order.

    Default weights are deterministic small integers varying per edge, so
    weighted code paths see non-uniform values without any RNG.
    """
    links = []
    for k, (s, t) in enumerate(edges):
        flow = flows[k] if flows is not None else 100 + 37 * k % 400
        freq = freqs[k] if freqs is not None else 1 + k % 5
        links.append(
            AggregatedLink(
                source=node_name(s),
                destination=node_name(t),
                flow=int(flow),
                frequency=int(freq),
            )
        )
    return link_table(links)


def net_from_edges(n, edges, flows=None, freqs=None):
    """FlowNetwork whose index i is exactly oracle node i (asserts cover)."""
    net = build_network(make_links(edges, flows=flows, freqs=freqs))
    assert net.n_nodes == n, "edge set must touch every node 0..n-1"
    assert net.node_ids == tuple(node_name(i) for i in range(n))
    return net


def split(net: FlowNetwork, labels) -> list[tuple[np.ndarray, FlowNetwork]]:
    """(members, induced subnetwork) of every module 0..max(labels), cut
    from :meth:`FlowNetwork.blocks`: subnetwork index k is member k."""
    order, starts, union = net.blocks(labels)
    module = np.repeat(np.arange(starts.size - 1), np.diff(starts))[union.src]
    link_starts = np.searchsorted(module, np.arange(starts.size))
    out = []
    for a, b, la, lb in zip(starts, starts[1:], link_starts, link_starts[1:]):
        sub = FlowNetwork(
            union.node_ids[a:b], union.src[la:lb] - a, union.dst[la:lb] - a,
            union.flow[la:lb], union.freq[la:lb],
        )
        out.append((order[a:b], sub))
    return out


def random_edges(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct directed edges, no self-loops, every node touched."""
    if m > n * (n - 1):
        raise ValueError(f"{m} edges exceed the {n * (n - 1)} distinct pairs of {n} nodes")
    edges = set()
    while len(edges) < m:
        s, t = rng.integers(0, n, size=2)
        if s != t:
            edges.add((int(s), int(t)))
    touched = {v for e in edges for v in e}
    for v in range(n):
        if v not in touched:
            u = int(rng.integers(0, n - 1))
            u = u if u < v else u + 1
            edges.add((v, u) if rng.random() < 0.5 else (u, v))
    return sorted(edges)


def random_connected_edges(
    rng: np.random.Generator, n: int, extra: int
) -> list[tuple[int, int]]:
    """Weakly connected digraph: random spanning tree plus extra edges."""
    if n - 1 + extra > n * (n - 1):
        raise ValueError(
            f"{n - 1 + extra} edges exceed the {n * (n - 1)} distinct pairs of {n} nodes"
        )
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        parent = int(order[rng.integers(0, k)])
        child = int(order[k])
        edges.add((parent, child) if rng.random() < 0.5 else (child, parent))
    while len(edges) < n - 1 + extra:
        s, t = rng.integers(0, n, size=2)
        if s != t:
            edges.add((int(s), int(t)))
    return sorted(edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def workers_die(monkeypatch) -> None:
    """Make detect_communities fork a worker (two CPUs) that exits at once
    when it starts a restart, as a worker killed by the system would."""
    from moneyflow import community

    parent = os.getpid()
    optimize_once = community._optimize_once

    def dies_in_a_worker(*args):
        if os.getpid() != parent:
            os._exit(1)
        return optimize_once(*args)

    monkeypatch.setattr(community, "_cpus", lambda: 2)
    monkeypatch.setattr(community, "_optimize_once", dies_in_a_worker)
