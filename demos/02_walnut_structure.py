"""
The walnut: a bowtie whose wings hug the core
=============================================

Classifies every account into GSCC / IN / OUT / TE around the giant
strongly connected component, then measures how far the IN and OUT
"skins" sit from the core.  In a walnut-shaped network nearly all of
them touch it directly.
"""

from moneyflow import (
    COMPONENT_NAMES,
    aggregate,
    build_network,
    classify_bowtie,
    distance_profile,
    generate,
    walnut_scenario,
)


def main() -> None:
    records, truth = generate(walnut_scenario(n_nodes=5000, seed=3))
    net = build_network(aggregate(records))

    part = classify_bowtie(net)
    gwcc = part.gwcc_size
    print(f"{net.n_nodes} accounts, GWCC covers {gwcc}")
    print(f"{'component':14s} {'accounts':>9s} {'share of GWCC':>14s}")
    for name in COMPONENT_NAMES[:4]:
        size = part.sizes[name]
        print(f"{name:14s} {size:9d} {100.0 * size / gwcc:13.1f}%")
    print(f"{'outside GWCC':14s} {part.sizes['outside_GWCC']:9d}")

    # hop distances from the shell to the core and back out
    profile = distance_profile(net, part)
    print("\nIN -> GSCC shortest distances:")
    for d, share in sorted(profile.in_ratios().items()):
        print(f"  {d} hop(s): {share:7.2%}")
    print("GSCC -> OUT shortest distances:")
    for d, share in sorted(profile.out_ratios().items()):
        print(f"  {d} hop(s): {share:7.2%}")

    # ground truth agreement, since this network is synthetic
    agree = sum(
        1
        for i, name in enumerate(net.node_ids)
        if part.component_name(i) == truth.bowtie[name]
    )
    print(f"\nplanted labels recovered: {agree}/{net.n_nodes}")


if __name__ == "__main__":
    main()
