"""Metamorphic properties: transformations of the input whose effect on
an analysis is known, checked without an oracle."""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from moneyflow import (
    aggregate,
    build_network,
    classify_bowtie,
    generate,
    hodge_decompose,
    walnut_scenario,
)
from moneyflow.bowtie import COMPONENT_NAMES, IN, OUT
from moneyflow.hodge import WEIGHT_KINDS
from moneyflow.network import FlowNetwork

# the CLI's hodge --tol default, the relative residual of the solve
TOL = 1e-10


def _walnut(n_nodes, seed):
    # 3% of the accounts outside the GWCC, in components of two or three
    try:
        records, _ = generate(walnut_scenario(n_nodes=n_nodes, seed=seed, te_frac=0.066))
    except ValueError as err:
        # a node count whose classes round to one node outside the GWCC,
        # which the generator refuses
        if "exactly one node outside" not in str(err):
            raise
        reject()
    return build_network(aggregate(records))


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
