"""Command line pipeline over a shared workspace directory.

Each subcommand reads earlier artifacts from ``--out`` and writes its own
next to them, plus a ``manifest_<name>.json`` recording the configuration
and sha256 of every input and output.  Manifests carry no timestamps, so
rerunning a subcommand on identical inputs reproduces them byte for byte.
Each subcommand loads only the library modules it runs.

Exit codes: 0 success, 1 usage error, 2 missing or invalid data,
3 failed convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import platform
import sys
from dataclasses import asdict
from importlib import import_module
from pathlib import Path

import numpy as np
import scipy

from . import _MODULE_OF, __version__
from .errors import ConvergenceError

# the private helpers a stage calls; every other name a stage binds is in
# its module's __all__
_HELPERS = (
    "_csv_field", "_id_fields", "_read_columns", "_read_nodes", "_write_table", "_sweep_row"
)


def _use(*modules: str) -> None:
    """Bind the public names and helpers of ``modules`` as globals of this
    module, so that a stage loads no other analysis module.  A name already
    set, such as a wrapper put in its place, is kept."""
    bound = globals()
    for module in modules:
        lib = vars(import_module(f".{module}", __package__))
        for name in (*lib["__all__"], *_HELPERS):
            if name in lib:
                bound.setdefault(name, lib[name])


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _use(_MODULE_OF[name])
    return globals()[name]


class DataError(Exception):
    """Required input is missing or unusable; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# workspace plumbing


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _jsonify(obj):
    """Mirror obj into plain JSON types; non-finite floats become null."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if np.isfinite(x) else None
    return obj


def _write_json(path: Path, obj) -> None:
    text = json.dumps(_jsonify(obj), sort_keys=True, indent=2)
    path.write_text(text + "\n", encoding="utf-8")


def _write_manifest(
    out: Path,
    name: str,
    config: dict,
    inputs: dict[str, Path],
    outputs: list[Path],
) -> None:
    config = _jsonify(config)
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "subcommand": name,
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "inputs": {label: _sha256(p) for label, p in inputs.items()},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "moneyflow": __version__,
        },
    }
    _write_json(out / f"manifest_{name}.json", manifest)


class _Stage:
    """Workspace of one subcommand; records the files its manifest hashes.

    The directory is made at the first output, so a stage that fails its
    input checks leaves no empty workspace behind.
    """

    def __init__(self, out: Path):
        self.out = out
        self.inputs: dict[str, Path] = {}
        self.outputs: list[Path] = []

    def require(self, filename: str, producer: str) -> Path:
        path = self.out / filename
        if not path.is_file():
            raise DataError(
                f"missing {filename} in {self.out}; run the '{producer}' subcommand first"
            )
        self.inputs[filename] = path
        return path

    def output(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        self.outputs.append(path)
        return path

    def write_text(self, name: str, text: str) -> Path:
        path = self.output(name)
        path.write_text(text, encoding="utf-8")
        return path

    def write_table(self, name: str, header: tuple[str, ...], columns, delimiter: str = ","):
        with open(self.output(name), "w", encoding="utf-8", newline="") as fh:
            _write_table(fh, header, columns, delimiter)

    def write_json(self, name: str, obj) -> Path:
        path = self.output(name)
        _write_json(path, obj)
        return path

    def load_network(self):
        path = self.require("links.csv", "ingest")
        with open(path, "r", encoding="utf-8", newline="") as fh:
            links = read_links(fh)
        if not links:
            raise DataError(f"{path} contains no links")
        return build_network(links)


REJECTED_COLUMNS = ("line_no", "reason")
CCDF_STEMS = ("flow", "frequency", "in_degree", "out_degree")  # one ccdf_<stem>.tsv each
CCDF_COLUMNS = ("value", "fraction")
BOWTIE_COLUMNS = ("node_id", "component")
POTENTIAL_COLUMNS = ("node_id", "phi", "net_degree", "net_flow")
HODGE_LINK_COLUMNS = ("source_id", "destination_id", "f_net", "f_gradient", "f_circular")


def _compact_numbers(values: np.ndarray) -> list:
    """Integers as ints at any size; floats as floats, whole ones below 1e15
    as ints: no trailing .0."""
    return [
        int(x) if isinstance(x, float) and x.is_integer() and abs(x) < 1e15 else x
        for x in values.tolist()
    ]


# ---------------------------------------------------------------------------
# subcommands: each runs in a _Stage and returns (manifest config, message)


def _cmd_synth(args, stage: _Stage) -> tuple[dict, str]:
    spec = args.spec  # built and checked with the flags
    records, truth = generate(spec)

    log_path = stage.output("synthetic_log.csv")
    with open(log_path, "w", encoding="utf-8") as fh:
        write_records(records, fh)
    stage.write_json("ground_truth.json", truth.as_dict())

    config = {
        "scenario": args.scenario,
        "nodes": spec.n_nodes,
        "seed": args.seed,
        "blocks": args.blocks if args.scenario == "blocks" else None,
        "nested": args.nested if args.scenario == "blocks" else None,
    }
    return config, f"synth: {len(records)} transfers over {spec.n_nodes} accounts -> {log_path}"


def _cmd_ingest(args, stage: _Stage) -> tuple[dict, str]:
    _use("ingest")
    src = Path(args.input)
    if not src.is_file():
        raise DataError(f"input log not found: {src}")
    stage.inputs[str(args.input)] = src
    policy = FilterPolicy(
        require_intra_bank=not args.keep_external,
        require_firm_both_ends=not args.keep_nonfirm,
        drop_self_loops=not args.keep_self_loops,
    )
    # utf-8-sig reads a leading byte-order mark, as Excel writes it, as nothing
    with open(src, "r", encoding="utf-8-sig", newline="") as fh:
        records, rejected = parse_log(fh, delimiter=args.delimiter, strict=args.strict)
    kept = filter_records(records, policy)
    links = aggregate(kept)
    coords, conflicts = collect_node_coords(kept)

    with open(stage.output("links.csv"), "w", encoding="utf-8", newline="") as fh:
        write_links(links, fh)
    with open(stage.output("nodes.csv"), "w", encoding="utf-8", newline="") as fh:
        write_node_coords(coords, fh)
    if rejected:
        columns = ([r.line_no for r in rejected], [_csv_field(r.reason) for r in rejected])
        stage.write_table("rejected.csv", REJECTED_COLUMNS, columns)

    summary_obj = {
        "records_parsed": len(records),
        "records_rejected": len(rejected),
        "records_kept": len(kept),
        "links": len(links),
        "nodes": links.n_nodes,
        # Python ints: an int64 sum would wrap past 2**63 - 1
        "flow_total_yen": sum(links.flow.tolist()),
        "frequency_total": sum(links.freq.tolist()),
        "coordinate_conflicts": conflicts,
        "filters": {
            "require_intra_bank": policy.require_intra_bank,
            "require_firm_both_ends": policy.require_firm_both_ends,
            "drop_self_loops": policy.drop_self_loops,
        },
    }
    stage.write_json("ingest_summary.json", summary_obj)

    config = {
        "input": str(args.input),
        "delimiter": args.delimiter,
        "strict": args.strict,
        "keep_external": args.keep_external,
        "keep_nonfirm": args.keep_nonfirm,
        "keep_self_loops": args.keep_self_loops,
    }
    return config, (
        f"ingest: kept {len(kept)}/{len(records)} transfers, "
        f"{len(links)} links over {links.n_nodes} accounts"
    )


def _cmd_stats(args, stage: _Stage) -> tuple[dict, str]:
    _use("ingest", "network")
    net = stage.load_network()
    in_deg, out_deg, _ = degree_stats(net)
    flow = net.weights("flow")
    freq = net.weights("frequency")
    pearson, kendall = degree_correlation(net)
    stats_obj = {
        "nodes": net.n_nodes,
        "links": net.n_links,
        "flow": summary(flow).as_dict(),
        "frequency": summary(freq).as_dict(),
        "in_degree": summary(in_deg).as_dict(),
        "out_degree": summary(out_deg).as_dict(),
        "degree_correlation": {"pearson": pearson, "kendall_tau_b": kendall},
        "net_balance": {
            "flow_sum": int(net_flow_per_node(net, "flow").sum()),
            "frequency_sum": int(net_flow_per_node(net, "frequency").sum()),
        },
    }
    stats_path = stage.write_json("stats.json", stats_obj)
    for stem, values in zip(CCDF_STEMS, (flow, freq, in_deg, out_deg)):
        dist = ccdf(values)
        columns = (_compact_numbers(dist.values), dist.fractions)
        stage.write_table(f"ccdf_{stem}.tsv", CCDF_COLUMNS, columns, "\t")

    return {}, f"stats: {net.n_nodes} nodes, {net.n_links} links -> {stats_path}"


def _cmd_bowtie(args, stage: _Stage) -> tuple[dict, str]:
    _use("bowtie", "ingest", "network")
    net = stage.load_network()
    part = classify_bowtie(net)
    profile = distance_profile(net, part)

    names = np.array(COMPONENT_NAMES, dtype=object)[part.labels]
    stage.write_table("bowtie.csv", BOWTIE_COLUMNS, (_id_fields(net.node_ids), names))

    sizes = part.sizes
    gwcc = part.gwcc_size
    walnut = {
        name: (sizes[name] / gwcc if gwcc else None)
        for name in COMPONENT_NAMES[:4]
    }
    summary_obj = {
        "n_nodes": net.n_nodes,
        "sizes": sizes,
        "gwcc_size": gwcc,
        "gwcc_fractions": walnut,
        "identity_holds": sum(sizes[n] for n in COMPONENT_NAMES[:4]) == gwcc,
        "in_distance_counts": {str(d): c for d, c in sorted(profile.in_to_gscc.items())},
        "out_distance_counts": {str(d): c for d, c in sorted(profile.gscc_to_out.items())},
        "in_distance_ratios": {str(d): r for d, r in profile.in_ratios().items()},
        "out_distance_ratios": {str(d): r for d, r in profile.out_ratios().items()},
    }
    summary_path = stage.write_json("bowtie_summary.json", summary_obj)

    shares = ", ".join(
        f"{name} {sizes[name]}" for name in COMPONENT_NAMES
    )
    return {}, f"bowtie: {shares} -> {summary_path}"


def _cmd_hodge(args, stage: _Stage) -> tuple[dict, str]:
    _use("hodge", "ingest", "network")
    net = stage.load_network()
    decomp = hodge_decompose(net, kind=args.weight, tol=args.tol)
    corr = potential_vs_net(decomp.phi, net)

    ids = _id_fields(net.node_ids)
    columns = (ids, decomp.phi, corr.net_degree, corr.net_flow)
    stage.write_table("hodge_potentials.csv", POTENTIAL_COLUMNS, columns)
    flows = decomp.link_table(net).T
    stage.write_table("hodge_links.csv", HODGE_LINK_COLUMNS, (ids[net.src], ids[net.dst], *flows))

    total = float((decomp.problem.pair_flow ** 2).sum())
    circ = float((decomp.pair_circular ** 2).sum())
    share = circ / total if total > 0 else None
    summary_obj = {
        "weight": args.weight,
        "tol": args.tol,
        "n_weak_components": decomp.problem.components[1],
        "r_phi_net_degree": corr.r_net_degree,
        "r_phi_net_flow": corr.r_net_flow,
        "circular_share": share,
        "max_abs_circular_divergence": float(
            np.abs(decomp.circular_divergence()).max()
        ),
    }
    stage.write_json("hodge_summary.json", summary_obj)

    config = {"weight": args.weight, "tol": args.tol}
    return config, (
        f"hodge: r(phi, net degree) = {corr.r_net_degree:+.4f}, "
        f"circular share = {'n/a' if share is None else format(share, '.4f')}"
    )


def _cmd_communities(args, stage: _Stage) -> tuple[dict, str]:
    _use("community", "ingest", "network")
    net = stage.load_network()
    tree = detect_communities(
        net, seed=args.seed, trials=args.trials, kind=args.weight
    )
    report = community_report(tree)

    tree_obj = tree.as_dict()
    tree_obj["history"] = list(tree.history)
    stage.write_json("communities.json", tree_obj)
    header, *rows = flat_table(tree)
    names, *levels = zip(*rows)
    stage.write_table("communities_flat.csv", tuple(header), (_id_fields(names), *levels))
    stage.write_json("community_report.json", report.as_dict())

    config = {"seed": args.seed, "trials": args.trials, "weight": args.weight}
    return config, (
        f"communities: {len(tree.children)} top-level, {len(tree.leaves())} irreducible, "
        f"codelength {tree.value:.4f} bits"
    )


def _cmd_nmf(args, stage: _Stage) -> tuple[dict, str]:
    _use("geonmf", "ingest", "network", "svgplot")
    links = stage.load_network()
    with open(stage.require("nodes.csv", "ingest"), "r", encoding="utf-8", newline="") as fh:
        coords = read_node_coords(fh)

    bounds = args.bounds or DEFAULT_BOUNDS
    grid = GeoGrid(*bounds, k=args.grid_k)
    gfm = bin_transfers(links, grid, coords=coords)
    if gfm.included == 0:
        raise DataError(
            "no transfers with in-bounds coordinates on both ends; "
            "check nodes.csv and --bounds"
        )

    fact = nmf(gfm, args.nmf_d, max_iters=args.max_iters, tol=args.tol)
    loc = localization(fact, grid, radius_km=args.radius_km)
    sims = similarity_matrix(fact)
    counts = _sweep_row(fact, loc, sims)

    write_sparse_matrix(stage.output("V.txt"), gfm.V)
    write_matrix(stage.output("W.txt"), fact.W)
    write_matrix(stage.output("H.txt"), fact.H)

    for side, results in (("origin", loc.origin), ("destination", loc.destination)):
        for res in results:
            stem = f"heatmap_{side}_{res.index + 1:02d}"
            stage.write_table(f"{stem}.tsv", (), res.heatmap.T, "\t")
            stage.write_text(
                f"{stem}.svg",
                heatmap_svg(
                    res.heatmap,
                    title=f"{side} pattern {res.index + 1} "
                    f"(gamma {res.gamma:.3f})" if res.gamma is not None
                    else f"{side} pattern {res.index + 1}",
                ),
            )

    def loc_entry(res):
        return {
            "factor": res.index + 1,
            "gamma": res.gamma,
            "center": list(res.center) if res.center else None,
        }

    summary_obj = {
        "d": fact.d,
        "grid_k": grid.k,
        "bounds": list(bounds),
        "radius_km": args.radius_km,
        "objective": fact.objective,
        "iterations": fact.iterations,
        "hit_cap": fact.hit_cap,
        "included_events": gfm.included,
        "excluded_events": gfm.excluded,
        "gamma_threshold": GAMMA_THRESHOLD,
        "similarity_threshold": SIMILARITY_THRESHOLD,
        "localization": {
            "origin": [loc_entry(r) for r in loc.origin],
            "destination": [loc_entry(r) for r in loc.destination],
        },
        "localized_origin": counts.localized_origin,
        "localized_destination": counts.localized_destination,
        "diagonal_similarity": counts.diagonal_similarity,
        "matched_pairs": counts.matched_pairs,
        "similarity": sims,
    }
    stage.write_json("nmf_summary.json", summary_obj)

    config = {
        "grid_k": args.grid_k,
        "nmf_d": args.nmf_d,
        "bounds": list(bounds),
        "radius_km": args.radius_km,
        "max_iters": args.max_iters,
        "tol": args.tol,
        "d_range": list(args.nmf_d_range) if args.nmf_d_range else None,
    }
    if args.nmf_d_range:
        sweep = d_sweep(
            gfm,
            args.nmf_d_range,
            radius_km=args.radius_km,
            max_iters=args.max_iters,
            tol=args.tol,
        )
        stage.write_json("sweep.json", [asdict(row) for row in sweep])

    return config, (
        f"nmf: d={fact.d}, localized origin {counts.localized_origin}, "
        f"destination {counts.localized_destination}, "
        f"matched pairs {counts.matched_pairs}"
    )


def _read_table(path: Path, header: tuple[str, ...], read, convert, delimiter: str = ","):
    """The columns ``read`` (``_read_columns`` or ``_read_nodes``) makes of a
    table of an earlier stage; DataError when it holds no rows."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        columns = read(fh, header, str(path), convert, delimiter)
    if not columns[0].size:
        raise DataError(f"{path} holds no rows")
    return columns


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int_from(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


# what each kind of summary value must be
_KINDS = {
    "count": ("a non-negative integer", lambda v: _is_int_from(v, 0)),
    "positive": ("a positive integer", lambda v: _is_int_from(v, 1)),
    "number": ("a number or null", lambda v: v is None or _is_number(v)),
    "numbers": (
        "an object of numbers or null",
        lambda v: isinstance(v, dict) and all(x is None or _is_number(x) for x in v.values()),
    ),
}

# every value report reads from a summary: {key: kind} for an object,
# [kind] for a list of values of one kind
_SUMMARIES = {
    "stats.json": {"nodes": "count", "links": "count", "degree_correlation": "numbers"},
    "bowtie_summary.json": {
        "gwcc_fractions": "numbers", "in_distance_ratios": "numbers",
        "out_distance_ratios": "numbers",
    },
    "hodge_summary.json": {
        "r_phi_net_degree": "number", "r_phi_net_flow": "number", "circular_share": "number",
    },
    "community_report.json": {
        "levels": [{
            "level": "positive", "communities": "count", "irreducible": "count",
            "accounts": "count", "ratio": "number",
        }],
        "size_rank": [{"size": "positive"}],
    },
    "nmf_summary.json": {
        "d": "positive", "localized_origin": "count", "localized_destination": "count",
        "matched_pairs": "count", "similarity": [["number"]],
    },
}


def _checked(path: Path, value, kind, where: str):
    """``value`` checked against ``kind`` of :data:`_SUMMARIES`, objects cut
    to the keys it declares; DataError names the file and the key path."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise DataError(f"{path}: {where} is not an object" if where else
                            f"{path}: expected a JSON object")
        out = {}
        for key, sub in kind.items():
            at = f"{where}[{key!r}]" if where else repr(key)
            if key not in value:
                raise DataError(f"{path}: missing key {at}")
            out[key] = _checked(path, value[key], sub, at)
        return out
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise DataError(f"{path}: {where} is not a list")
        return [_checked(path, v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    what, holds = _KINDS[kind]
    if not holds(value):
        raise DataError(f"{path}: {where} is not {what}")
    return value


def _read_summary(path: Path) -> dict:
    """The values of :data:`_SUMMARIES` in a JSON summary of an earlier stage."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    return _checked(path, obj, _SUMMARIES[path.name], "")


def _cmd_report(args, stage: _Stage) -> tuple[dict, str]:
    _use("bowtie", "hodge", "ingest", "svgplot")
    needed = {
        "stats.json": "stats",
        **{f"ccdf_{stem}.tsv": "stats" for stem in CCDF_STEMS},
        "bowtie.csv": "bowtie",
        "bowtie_summary.json": "bowtie",
        "hodge_potentials.csv": "hodge",
        "hodge_summary.json": "hodge",
        "community_report.json": "communities",
        "nmf_summary.json": "nmf",
    }
    inputs = {name: stage.require(name, producer) for name, producer in needed.items()}

    # read and check every input before the first write, so that bad input
    # leaves no partial report behind
    ccdf = {}
    for stem in CCDF_STEMS:
        ccdf[stem] = _read_table(
            inputs[f"ccdf_{stem}.tsv"], CCDF_COLUMNS, _read_columns,
            lambda chunk: (chunk.numbers(0, float), chunk.numbers(1, float)), "\t",
        )
    # join phi and walnut labels by sorted node id
    pot_ids, phi = _read_table(
        inputs["hodge_potentials.csv"], POTENTIAL_COLUMNS, _read_nodes,
        lambda chunk: (chunk.numbers(1, float),),
    )
    code_of = {name: code for code, name in enumerate(COMPONENT_NAMES)}

    def components(chunk):
        names = chunk.columns[1]
        unknown = next((row for row, name in enumerate(names) if name not in code_of), None)
        if unknown is not None:
            raise chunk.fault(unknown, f"unknown component {names[unknown]!r}")
        return (np.array([code_of[name] for name in names], dtype=np.int8),)

    comp_ids, labels = _read_table(inputs["bowtie.csv"], BOWTIE_COLUMNS, _read_nodes, components)
    if set(pot_ids) != set(comp_ids):
        raise DataError(
            "hodge_potentials.csv and bowtie.csv disagree on the node set; "
            "rerun both on the current links.csv"
        )
    phi = phi[np.argsort(pot_ids)]
    labels = labels[np.argsort(comp_ids)]
    part = BowtiePartition(labels=labels)
    stats_obj, walnut, hodge_obj, community, nmf_obj = map(
        _read_summary, (inputs[name] for name in _SUMMARIES)
    )
    size_rank = [row["size"] for row in community["size_rank"]]
    d, sims = nmf_obj["d"], nmf_obj.pop("similarity")
    if len(sims) != d or any(len(row) != d for row in sims):
        raise DataError(
            f"{inputs['nmf_summary.json']}: 'similarity' is not a {d} x {d} list of numbers or null"
        )
    sims = np.array(sims, dtype=float)  # null reads as nan

    rep_dir = stage.out / "report"
    rep_dir.mkdir(exist_ok=True)
    degrees = [(stem.replace("_", " "), *ccdf[stem]) for stem in ("in_degree", "out_degree")]
    for stem, series, title, xlabel in (
        ("flow", [("flow", *ccdf["flow"])], "Link flow CCDF", "flow [yen]"),
        ("frequency", [("frequency", *ccdf["frequency"])], "Link frequency CCDF", "frequency"),
        ("degrees", degrees, "Degree CCDF", "degree"),
    ):
        plot = line_plot(series, title=title, xlabel=xlabel, ylabel="P(X >= x)")
        stage.write_text(f"report/ccdf_{stem}.svg", plot)
    if part.gwcc_size > 0:
        edges, counts = potential_histograms(phi, part)
        stage.write_text(
            "report/potential_histogram.svg",
            step_histogram(
                edges,
                counts,
                title="Hodge potential by walnut component",
                xlabel="potential",
            ),
        )
    if size_rank:
        ranks = np.arange(1, len(size_rank) + 1, dtype=float)
        stage.write_text(
            "report/community_size_rank.svg",
            line_plot(
                [("communities", ranks, np.array(size_rank, dtype=float))],
                title="Irreducible community sizes",
                xlabel="rank",
                ylabel="accounts",
            ),
        )
    stage.write_text(
        "report/similarity.svg",
        heatmap_svg(
            sims,
            title="Origin/destination factor similarity",
            annotate=sims.shape[0] <= 12,
            flip_rows=False,
        ),
    )

    mean_phi = {}
    for name in COMPONENT_NAMES[:4]:
        mask = labels == code_of[name]
        mean_phi[name] = float(phi[mask].mean()) if mask.any() else None
    report_obj = {
        **stats_obj,
        "walnut": walnut,
        "hodge": {**hodge_obj, "mean_potential": mean_phi},
        "communities": {"levels": community["levels"], "largest": size_rank[:10]},
        "nmf": nmf_obj,
        "figures": sorted(p.name for p in stage.outputs),
    }
    stage.write_json("report/report.json", report_obj)

    return {}, f"report: {len(stage.outputs)} files -> {rep_dir}"


# ---------------------------------------------------------------------------
# parser


def _parse_bounds(text: str) -> tuple[float, float, float, float]:
    _use("geonmf")
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "bounds must be lat_min:lat_max:lon_min:lon_max"
        )
    try:
        bounds = tuple(float(p) for p in parts)
        GeoGrid(*bounds, k=1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return bounds


def _finite_float(positive: bool):
    """argparse type: a finite float, > 0 if positive, else >= 0."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
            kind = "positive" if positive else "non-negative"
            raise argparse.ArgumentTypeError(f"must be a finite {kind} number, not {text!r}")
        return value

    return parse


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, not {text!r}")
        return value

    return parse


def _delimiter(text: str) -> str:
    """argparse type: one character that can separate csv fields."""
    if len(text) != 1 or text in '"\r\n':
        raise argparse.ArgumentTypeError(
            f"must be one character other than a double quote, CR or LF, not {text!r}"
        )
    return text


def _parse_d_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("d range must be d_min:d_max")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"invalid d range [{lo}, {hi}]")
    return lo, hi


def build_parser() -> _Parser:
    parser = _Parser(
        prog="moneyflow",
        description="Money-flow network pipeline: ingest, structure, "
        "Hodge decomposition, communities, geographic factorization.",
    )
    parser.add_argument(
        "--version", action="version", version=f"moneyflow {__version__}"
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument(
            "--out", default=".", metavar="DIR",
            help="workspace directory for artifacts (default: current)",
        )
        p.set_defaults(func=func)
        return p

    p = add("synth", "generate a seeded synthetic transfer log", _cmd_synth)
    p.add_argument(
        "--scenario", choices=("walnut", "cities", "blocks", "full"),
        default="walnut",
        help="walnut structure, geographic cities, planted blocks, "
        "or cities plus a prefecture-wide hub",
    )
    p.add_argument("--nodes", type=_int_at_least(1), default=None, help="account count")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument(
        "--blocks", type=_int_at_least(1), default=4, help="block count (blocks scenario)"
    )
    p.add_argument(
        "--nested", action="store_true",
        help="pair blocks into a two-level hierarchy (blocks scenario)",
    )

    p = add("ingest", "parse, filter and aggregate a transfer log", _cmd_ingest)
    p.add_argument("--input", required=True, metavar="LOG", help="raw transfer log")
    p.add_argument(
        "--delimiter", type=_delimiter, default=",", help="field separator (default: ,)"
    )
    p.add_argument(
        "--strict", action="store_true",
        help="fail on the first malformed line instead of skipping it",
    )
    p.add_argument(
        "--keep-nonfirm", action="store_true",
        help="keep transfers with household endpoints",
    )
    p.add_argument(
        "--keep-external", action="store_true",
        help="keep transfers crossing the bank boundary",
    )
    p.add_argument("--keep-self-loops", action="store_true")

    add("stats", "distribution summaries and CCDFs of the link table", _cmd_stats)

    add("bowtie", "walnut decomposition around the strongly connected core", _cmd_bowtie)

    p = add("hodge", "Helmholtz split into gradient and circular flow", _cmd_hodge)
    p.add_argument(
        "--weight", choices=("flow", "frequency"), default="frequency",
        help="link weight entering the flow matrix (default: frequency)",
    )
    p.add_argument(
        "--tol", type=_finite_float(positive=True), default=1e-10,
        help="relative residual target for the potential solve",
    )

    p = add("communities", "hierarchical map-equation partition", _cmd_communities)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument(
        "--trials", type=_int_at_least(1), default=10,
        help="most restarts per community; stops after 2 in a row fail to improve",
    )
    p.add_argument(
        "--weight", choices=("flow", "frequency"), default="frequency",
        help="link weight driving the random walk (default: frequency)",
    )

    p = add("nmf", "geographic origin-destination factorization", _cmd_nmf)
    p.add_argument("--grid-k", type=_int_at_least(1), default=100, help="cells per axis")
    p.add_argument("--nmf-d", type=_int_at_least(1), default=10, help="factor count")
    p.add_argument(
        "--nmf-d-range", type=_parse_d_range, default=None, metavar="LO:HI",
        help="additionally sweep factor counts LO..HI into sweep.json",
    )
    p.add_argument("--radius-km", type=_finite_float(positive=False), default=10.0)
    p.add_argument("--max-iters", type=_int_at_least(1), default=500)
    p.add_argument(
        "--tol", type=_finite_float(positive=True), default=1e-12,
        help="relative objective change that stops the updates",
    )
    p.add_argument(
        "--bounds", type=_parse_bounds, default=None,
        metavar="S:N:W:E", help="lat_min:lat_max:lon_min:lon_max",
    )

    add("report", "collate all artifacts into report.json plus SVG figures", _cmd_report)

    return parser


def _factor_count_error(args) -> str | None:
    """Why the nmf factor counts do not fit a k x k grid, whose flow
    matrix has k**2 rows and columns; None when they fit."""
    cells = args.grid_k**2
    top = args.nmf_d_range[1] if args.nmf_d_range else 0
    for flag, d in (("--nmf-d", args.nmf_d), ("--nmf-d-range", top)):
        if d > cells:
            return f"argument {flag}: {d} factors exceed the {cells} cells of --grid-k {args.grid_k}"
    return None


def _scenario(args):
    """The spec the synth flags describe; ValueError when it cannot be wired."""
    _use("synth")
    size = {} if args.nodes is None else {"n_nodes": args.nodes}
    if args.scenario == "blocks":
        return blocks_scenario(seed=args.seed, n_blocks=args.blocks, nested=args.nested, **size)
    if args.scenario == "walnut":
        spec = walnut_scenario(seed=args.seed, **size)
    else:
        spec = cities_scenario(seed=args.seed, hub=args.scenario == "full", **size)
    spec.walnut_sizes()
    return spec


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "nmf" and (message := _factor_count_error(args)):
            parser.error(message)
        if args.command == "synth":
            try:
                args.spec = _scenario(args)
            except ValueError as exc:
                parser.error(f"--scenario {args.scenario}: {exc}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        stage = _Stage(Path(args.out))
        config, message = args.func(args, stage)
        _write_manifest(stage.out, args.command, config, stage.inputs, stage.outputs)
        print(message)
    except (DataError, ValueError, OSError, csv.Error) as exc:
        print(f"moneyflow {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:  # its message holds the residual
        print(f"moneyflow {args.command}: failed to converge: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
