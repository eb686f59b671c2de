"""
Ingesting a transfer log and summarizing the link table
=======================================================

Builds a small synthetic transfer log in memory, runs it through the
parse / filter / aggregate chain, and prints the distribution summaries
a first look at any new dataset should start with.
"""

import io
from pathlib import Path

from moneyflow import (
    FilterPolicy,
    aggregate,
    build_network,
    ccdf,
    degree_correlation,
    filter_records,
    generate,
    parse_log,
    summary,
    walnut_scenario,
    write_records,
)
from moneyflow.svgplot import line_plot

# 1. a 29-month log of firm-to-firm transfers among 800 accounts
records, truth = generate(walnut_scenario(n_nodes=800, seed=11))
buf = io.StringIO()
write_records(records, buf)
print(f"raw log: {len(records)} transfer events")

# 2. parse it back as if it came from disk, then apply the default
#    filters (intra-bank, firm endpoints only, no self-transfers)
buf.seek(0)
parsed, rejected = parse_log(buf)
kept = filter_records(parsed, FilterPolicy())
print(f"parsed {len(parsed)} rows, rejected {len(rejected)}, kept {len(kept)}")

# 3. collapse events into links: flow = total yen, frequency = event count
links = aggregate(kept)
net = build_network(links)
print(f"network: {net.n_nodes} accounts, {net.n_links} directed links")

for name, values in (("flow [yen]", net.weights("flow")),
                     ("frequency", net.weights("frequency"))):
    s = summary(values)
    print(f"{name:12s} median {s.median:10.0f}  mean {s.mean:14.1f}  "
          f"max {s.maximum:14.0f}  skewness {s.skewness:8.2f}")

# the mean sitting far above the median is the heavy tail talking;
# a log-log CCDF makes it visible
pearson, kendall = degree_correlation(net)
print(f"in- vs out-degree: pearson {pearson:+.3f}, kendall tau-b {kendall:+.3f}")

out = Path("demo_output")
out.mkdir(exist_ok=True)
dist = ccdf(net.weights("flow"))
svg = line_plot(
    [("flow", dist.values.astype(float), dist.fractions)],
    title="Link flow CCDF",
    xlabel="flow [yen]",
    ylabel="P(X >= x)",
)
(out / "flow_ccdf.svg").write_text(svg, encoding="utf-8")
print(f"wrote {out / 'flow_ccdf.svg'}")
