"""
Helmholtz splitting: who feeds the flow, who drains it
======================================================

Decomposes net transfer frequency into a gradient part driven by a
scalar potential per account plus a divergence-free circular part.
High potential marks net senders, low potential net receivers, and the
circular share tells how much of the traffic just goes around in loops.
"""

import numpy as np

from moneyflow import (
    aggregate,
    build_network,
    classify_bowtie,
    generate,
    hodge_decompose,
    potential_vs_net,
    walnut_scenario,
)


def main() -> None:
    records, _ = generate(
        walnut_scenario(n_nodes=5000, seed=3, periodic_share=0.0)
    )
    net = build_network(aggregate(records))
    part = classify_bowtie(net)

    dec = hodge_decompose(net, kind="frequency")
    phi = dec.phi

    # gauge: potentials sum to zero, so signs are comparable across runs
    print(f"sum(phi) = {phi.sum():+.2e} (zero-mean gauge)")

    total = float((dec.problem.F.data ** 2).sum())
    circ = float((dec.circular.data ** 2).sum())
    print(f"circular share of squared net flow: {circ / total:.1%}")

    corr = potential_vs_net(phi, net)
    print(f"r(phi, net degree) = {corr.r_net_degree:+.3f}")
    print(f"r(phi, net flow)   = {corr.r_net_flow:+.3f}")

    # the walnut shell shows up in the potential: money enters through IN,
    # circulates in the core, and leaves through OUT
    for code, name in ((1, "IN"), (0, "GSCC"), (2, "OUT")):
        mean = float(phi[part.labels == code].mean())
        print(f"mean potential over {name:5s} {mean:+8.3f}")

    order = np.argsort(phi)
    print("\nstrongest net senders (highest potential):")
    for i in order[-3:][::-1]:
        print(f"  {net.node_ids[i]}  phi = {phi[i]:+9.3f}")
    print("strongest net receivers (lowest potential):")
    for i in order[:3]:
        print(f"  {net.node_ids[i]}  phi = {phi[i]:+9.3f}")


if __name__ == "__main__":
    main()
