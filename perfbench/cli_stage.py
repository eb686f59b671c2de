"""Run one ``moneyflow`` CLI stage with spans around its library calls.

Usage: cli_stage.py --spans FILE --run ID --parent SPAN -- STAGE [ARGS...]

The public functions that ``moneyflow.cli`` imported are replaced, in this
process only, by wrappers that record a span per call; then
``cli.main(argv)`` runs unchanged.  The spans, the counts taken from the
calls' results and the generation-2 gc time of the whole stage are
written to FILE as JSON when the stage ends.  The exit code is the
stage's own.
"""

from __future__ import annotations

import argparse
import json
import sys

from tracing import Tracer

# span name -> the name moneyflow.cli imported it under
CLI_FUNCTIONS = {
    "synth.generate": "generate",
    "synth.write_records": "write_records",
    "ingest.parse_log": "parse_log",
    "ingest.filter_records": "filter_records",
    "ingest.aggregate": "aggregate",
    "ingest.collect_node_coords": "collect_node_coords",
    "ingest.write_links": "write_links",
    "ingest.read_links": "read_links",
    "network.build_network": "build_network",
    "network.degree_correlation": "degree_correlation",
    "bowtie.classify_bowtie": "classify_bowtie",
    "bowtie.distance_profile": "distance_profile",
    "hodge.hodge_decompose": "hodge_decompose",
    "community.detect_communities": "detect_communities",
    "community.community_report": "community_report",
    "community.flat_table": "flat_table",
    "geonmf.bin_transfers": "bin_transfers",
    "geonmf.nmf": "nmf",
    "geonmf.localization": "localization",
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans", required=True)
    ap.add_argument("--run", required=True)
    ap.add_argument("--parent", required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer(args.run, parent=args.parent)
    with tracer:
        import moneyflow.cli as cli
        from moneyflow.hodge import HodgeDecomposition

        for span_name, attr in CLI_FUNCTIONS.items():
            setattr(cli, attr, tracer.wrap(span_name, getattr(cli, attr)))
        HodgeDecomposition.link_table = tracer.wrap(
            "hodge.link_table", HodgeDecomposition.link_table
        )
        code = tracer.call(f"cli.{argv[0]}.main", cli.main, argv)
    # The caller records the stage span itself; hang the library spans
    # under it and pass on the stage's gc time.
    main_span = tracer.spans.pop()
    for span in tracer.spans:
        if span["parent"] == main_span["id"]:
            span["parent"] = args.parent
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts, "gc_s": main_span["gc_s"]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
