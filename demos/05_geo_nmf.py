"""
Geographic origin-destination factorization
===========================================

Bins transfers into a K x K grid over the bounding box, factorizes the
log-scaled origin-destination matrix with NMF, and asks of each factor:
is its mass concentrated inside a 10 km circle (localized, gamma above
0.23), and does the origin pattern match its destination counterpart
(diagonal cosine similarity at least 0.9)?  Six city factors should pair
up; the prefecture-wide hub shows as the one scattered destination.
"""

from pathlib import Path

from moneyflow import (
    aggregate,
    bin_transfers,
    cities_scenario,
    collect_node_coords,
    generate,
    localization,
    nmf,
    similarity_matrix,
)
from moneyflow.geonmf import DEFAULT_BOUNDS, GAMMA_THRESHOLD, GeoGrid
from moneyflow.svgplot import heatmap_svg


def main() -> None:
    records, truth = generate(cities_scenario(n_nodes=3000, seed=0, hub=True))
    links = aggregate(records)
    coords, _ = collect_node_coords(records)

    grid = GeoGrid(*DEFAULT_BOUNDS, k=40)
    gfm = bin_transfers(links, grid, coords=coords)
    print(f"binned {gfm.included} events onto a {grid.k}x{grid.k} grid "
          f"({gfm.excluded} outside)")

    fact = nmf(gfm, 7)
    print(f"d = {fact.d}, objective {fact.objective:.3f} "
          f"after {len(fact.history) - 1} iterations")

    loc = localization(fact, grid, radius_km=10.0)
    sims = similarity_matrix(fact)

    print(f"\n{'factor':>6s} {'origin g':>9s} {'dest g':>8s} {'cos':>6s}  verdict")
    for i in range(fact.d):
        og = loc.origin[i].gamma
        dg = loc.destination[i].gamma
        cos = float(sims[i, i])
        local = og is not None and og > GAMMA_THRESHOLD \
            and dg is not None and dg > GAMMA_THRESHOLD
        verdict = "localized pair" if local and cos >= 0.9 else "scattered"
        print(f"{i + 1:6d} {og:9.3f} {dg:8.3f} {cos:6.2f}  {verdict}")

    out = Path("demo_output")
    out.mkdir(exist_ok=True)
    res = loc.origin[0]
    svg = heatmap_svg(res.heatmap, title=f"origin pattern 1 (gamma {res.gamma:.3f})")
    (out / "origin_pattern_1.svg").write_text(svg, encoding="utf-8")
    print(f"\nwrote {out / 'origin_pattern_1.svg'}")

    # the hub lives at the box center; its factor drains from everywhere
    if truth.hub is not None:
        print(f"planted hub account: {truth.hub}")


if __name__ == "__main__":
    main()
