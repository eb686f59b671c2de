"""Shared builders for the test suite.

Nodes are named n0000, n0001, ... so that the package's lexicographic
node ordering coincides with the integer indices the oracles use.
"""

from __future__ import annotations

import numpy as np
import pytest

from moneyflow import AggregatedLink, build_network


def node_name(i: int) -> str:
    return f"n{i:04d}"


def make_links(edges, flows=None, freqs=None) -> list[AggregatedLink]:
    """AggregatedLink list over integer edge tuples.

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
    return links


def net_from_edges(n, edges, flows=None, freqs=None):
    """FlowNetwork whose index i is exactly oracle node i (asserts cover)."""
    net = build_network(make_links(edges, flows=flows, freqs=freqs))
    assert net.n_nodes == n, "edge set must touch every node 0..n-1"
    assert net.node_ids == tuple(node_name(i) for i in range(n))
    return net


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
