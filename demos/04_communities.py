"""
Map-equation communities, flat and nested
=========================================

Runs the hierarchical community optimizer on two planted scenarios:
four flat blocks (recovered exactly) and a two-level layout of groups
that each contain a pair of dense sub-blocks (recovered as a tree).
The objective is the description length in bits of a random walk, so
lower is better and every accepted move must shrink it.
"""

from moneyflow import (
    aggregate,
    blocks_scenario,
    build_network,
    community_report,
    detect_communities,
    flat_table,
    generate,
)


def main() -> None:
    # --- four flat blocks ----------------------------------------------------
    records, truth = generate(blocks_scenario(n_nodes=240, seed=5))
    net = build_network(aggregate(records))
    tree = detect_communities(net, seed=0)

    print(f"codelength {tree.value:.4f} bits after {len(tree.history) - 1} improvements")
    print(f"top-level communities: {len(tree.children)}")
    report = community_report(tree)
    for row in report.rows:
        print(f"  level {row.level}: {row.communities} communities, "
              f"{row.irreducible} irreducible, {row.accounts} accounts")

    # planted blocks of 60 against what the optimizer found
    sizes = sorted((len(c.members) for c in tree.children), reverse=True)
    print(f"recovered sizes {sizes} (planted 4 x 60)")

    # --- nested: six groups of two dense sub-blocks --------------------------
    records, truth = generate(
        blocks_scenario(n_nodes=240, seed=0, n_blocks=12, nested=True)
    )
    net = build_network(aggregate(records))
    tree = detect_communities(net, seed=0)

    levels = sorted({c.level for c in tree.communities()})
    print(f"\nnested run: levels {levels}, "
          f"{sum(1 for c in tree.communities() if c.level == 2)} second-level splits")

    # the flat table is what the csv artifact contains: one trail per account
    table = flat_table(tree)
    print(" | ".join(table[0]))
    for row in table[1:4]:
        print(" | ".join(row))
    print(f"... {len(table) - 4} more rows")


if __name__ == "__main__":
    main()
