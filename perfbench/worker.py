"""One workload process: set up, then run one timed iteration.

Started by ``run.py`` as a fresh interpreter, so the peak RSS it reports
belongs to this workload alone.  Prints one JSON object on its last
stdout line.  With ``--probe`` it only sets up, reports, and exits.
With ``--trace 1`` the iteration is traced.

Every stage call inside an iteration is one operation.  It fails when it
raises, when its process exits non-zero, or when an output check on it
fails; a failed stage ends the iteration and the stages after it count as
failed too.  Checks run after the iteration's clock stops.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from calibrate import calibrate, effective_kernel_s
from tracing import Tracer, layer_metrics, peak_rss_mb, span_cost_s

HERE = Path(__file__).resolve().parent

# Workload sizes.  "full" is what BENCHMARK.json describes; "toy" is for
# the harness self-check only.  The README pipeline runs at 2000 accounts
# (the README shows 3000) and walnut-records at 10,000, so that one run
# holds an iteration in each of several processes.
SIZES = {
    "full": {"walnut_nodes": 10_000, "cities_nodes": 3000, "readme_nodes": 2000, "trials": 10},
    "toy": {"walnut_nodes": 600, "cities_nodes": 300, "readme_nodes": 300, "trials": 2},
}

# Documented walnut class shares of the GWCC, in percent, and how far a
# run may stray from them.
WALNUT_SHARES = {"GSCC": 38.2, "IN": 14.9, "OUT": 37.3, "TE": 9.6}
SHARE_SLACK_POINTS = 3.0
MIN_SKIN_RATIO = 0.95

README_STAGES = (
    ("synth", ["--scenario", "full", "--nodes", "{nodes}", "--seed", "{seed}"]),
    ("ingest", ["--input", "ws/synthetic_log.csv"]),
    ("stats", []),
    ("bowtie", []),
    ("hodge", ["--weight", "frequency"]),
    ("communities", ["--trials", "{trials}"]),
    ("nmf", ["--grid-k", "40", "--nmf-d", "7"]),
    ("report", []),
)


class StageFailed(Exception):
    """A stage call raised or exited non-zero; the iteration stops."""


class Iteration:
    """Runs the stage calls of one iteration and books their outcome."""

    def __init__(self, tracer: Tracer | None, broken_check: str | None):
        self.tracer = tracer
        self.broken_check = broken_check
        self.ops: list[str] = []
        self.failed: set[str] = set()
        self.checks: dict[str, bool] = {}
        # speed-kernel times around the iteration's timed segments
        self.kernels: list[float] = []

    def op(self, name: str, fn, *args, **kwargs):
        self.ops.append(name)
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.call(name, fn, *args, **kwargs)
        except Exception as exc:
            self.failed.add(name)
            raise StageFailed(f"{name}: {type(exc).__name__}: {exc}") from exc

    def check(self, op_name: str, check_name: str, ok: bool) -> None:
        """Record an output check on the operation ``op_name``."""
        ok = bool(ok)
        if check_name == self.broken_check:
            ok = not ok
        self.checks[check_name] = ok
        if not ok:
            self.failed.add(op_name)


# ---------------------------------------------------------------------------
# walnut-records: the record layer end to end, no communities, no NMF


def setup_walnut_records(size: dict, seed: int, workdir: Path) -> dict:
    import moneyflow as mf

    return {"mf": mf, "nodes": size["walnut_nodes"], "seed": seed, "workdir": workdir}


WALNUT_OPS = (
    "synth.generate", "synth.write_records", "ingest.parse_log",
    "ingest.filter_records", "ingest.aggregate", "ingest.collect_node_coords",
    "ingest.write_links", "ingest.read_links", "network.build_network",
    "network.degree_correlation", "bowtie.classify_bowtie",
    "bowtie.distance_profile", "hodge.hodge_decompose", "hodge.link_table",
)


def iterate_walnut_records(state: dict, it: Iteration) -> dict:
    mf = state["mf"]
    log_path = state["workdir"] / "walnut_log.csv"
    links_path = state["workdir"] / "walnut_links.csv"
    spec = mf.walnut_scenario(n_nodes=state["nodes"], seed=state["seed"])

    t0 = time.perf_counter()
    records, _truth = it.op("synth.generate", mf.generate, spec)
    with open(log_path, "w", encoding="utf-8") as fh:
        it.op("synth.write_records", mf.write_records, records, fh)
    with open(log_path, "r", encoding="utf-8", newline="") as fh:
        parsed, rejected = it.op("ingest.parse_log", mf.parse_log, fh)
    kept = it.op("ingest.filter_records", mf.filter_records, parsed, mf.FilterPolicy())
    links = it.op("ingest.aggregate", mf.aggregate, kept)
    it.op("ingest.collect_node_coords", mf.collect_node_coords, kept)
    with open(links_path, "w", encoding="utf-8") as fh:
        it.op("ingest.write_links", mf.write_links, links, fh)
    with open(links_path, "r", encoding="utf-8") as fh:
        links_back = it.op("ingest.read_links", mf.read_links, fh)
    net = it.op("network.build_network", mf.build_network, links_back)
    it.op("network.degree_correlation", mf.degree_correlation, net)
    part = it.op("bowtie.classify_bowtie", mf.classify_bowtie, net)
    profile = it.op("bowtie.distance_profile", mf.distance_profile, net, part)
    decomp = it.op("hodge.hodge_decompose", mf.hodge_decompose, net)
    table = it.op("hodge.link_table", decomp.link_table, net)
    wall = time.perf_counter() - t0

    it.check(
        "ingest.aggregate", "aggregate_conserves_flow_and_events",
        sum(l.flow for l in links) == sum(r.amount for r in kept)
        and sum(l.frequency for l in links) == len(kept),
    )
    it.check("ingest.read_links", "links_round_trip", links_back == links)
    sizes = part.sizes
    gwcc = part.gwcc_size
    it.check(
        "bowtie.classify_bowtie", "walnut_identity",
        sum(sizes[name] for name in WALNUT_SHARES) == gwcc,
    )
    it.check(
        "bowtie.classify_bowtie", "walnut_shares",
        gwcc > 0 and all(
            abs(100.0 * sizes[name] / gwcc - share) <= SHARE_SLACK_POINTS
            for name, share in WALNUT_SHARES.items()
        ),
    )
    it.check(
        "bowtie.distance_profile", "skin_distance_one",
        profile.in_ratios().get(1, 0.0) >= MIN_SKIN_RATIO
        and profile.out_ratios().get(1, 0.0) >= MIN_SKIN_RATIO,
    )
    F = decomp.problem.F
    f_max = abs(F).max()
    residual = abs(F - (decomp.gradient + decomp.circular)).max()
    scale = max(f_max, abs(decomp.gradient).max())
    it.check("hodge.hodge_decompose", "hodge_sum", residual <= 1e-12 * scale)
    it.check(
        "hodge.hodge_decompose", "hodge_circular_divergence",
        abs(decomp.circular_divergence()).max() <= 1e-6 * f_max,
    )
    it.check("hodge.link_table", "link_table_rows", len(table) == net.n_links)

    state["net"] = net
    return {"wall_s": wall, "log_bytes": log_path.stat().st_size}


def finish_walnut_records(state: dict) -> dict:
    # No community detection runs here, so the top partition is the single
    # module; its map-equation value is computed once, outside the timing.
    import numpy as np

    net = state["net"]
    one = state["mf"].map_equation_value(net, np.zeros(net.n_nodes, dtype=np.int64))
    return {"codelength_bits": float(one)}


# ---------------------------------------------------------------------------
# full-communities: the README "full" network, communities only


def setup_full_communities(size: dict, seed: int, workdir: Path) -> dict:
    import numpy as np

    import moneyflow as mf

    spec = mf.cities_scenario(n_nodes=size["cities_nodes"], seed=seed, hub=True)
    records, _truth = mf.generate(spec)
    net = mf.build_network(mf.aggregate(records))
    del records
    one = mf.map_equation_value(net, np.zeros(net.n_nodes, dtype=np.int64))
    return {"mf": mf, "net": net, "trials": size["trials"], "one_module_bits": one}


COMMUNITY_OPS = (
    "community.detect_communities", "community.community_report", "community.flat_table",
)


def iterate_full_communities(state: dict, it: Iteration) -> dict:
    mf = state["mf"]
    net = state["net"]
    t0 = time.perf_counter()
    tree = it.op("community.detect_communities", mf.detect_communities, net, trials=state["trials"])
    it.op("community.community_report", mf.community_report, tree)
    rows = it.op("community.flat_table", mf.flat_table, tree)
    wall = time.perf_counter() - t0

    members = sorted(i for comm in tree.children for i in comm.members)
    it.check(
        "community.detect_communities", "top_partition_covers_nodes",
        members == list(range(net.n_nodes)),
    )
    hist = tree.history
    it.check(
        "community.detect_communities", "history_non_increasing",
        all(b <= a for a, b in zip(hist, hist[1:])),
    )
    it.check(
        "community.detect_communities", "codelength_below_one_module",
        tree.value < state["one_module_bits"],
    )
    it.check("community.flat_table", "flat_table_rows", len(rows) == net.n_nodes + 1)
    state["codelength_bits"] = tree.value
    return {"wall_s": wall}


def finish_full_communities(state: dict) -> dict:
    return {"codelength_bits": float(state["codelength_bits"])}


# ---------------------------------------------------------------------------
# readme-cli: the eight README stages, each a fresh process


def setup_readme_cli(size: dict, seed: int, workdir: Path) -> dict:
    # set-up is the cold import every stage pays; time it with its gc share
    tracer = Tracer("import")
    with tracer:
        tracer.call("cli.import", __import__, "moneyflow.cli")
    return {
        "size": size, "seed": seed, "workdir": workdir,
        "import": layer_metrics(tracer.spans, {}),
    }


README_OPS = tuple(f"cli.{name}" for name, _ in README_STAGES)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def iterate_readme_cli(state: dict, it: Iteration) -> dict:
    size = state["size"]
    workdir = state["workdir"]
    ws = workdir / "ws"
    shutil.rmtree(ws, ignore_errors=True)
    fill = {"nodes": size["readme_nodes"], "seed": state["seed"], "trials": size["trials"]}
    tracer = it.tracer

    def run_stage(name: str, argv: list[str]) -> None:
        if tracer is None:
            cmd = [sys.executable, "-m", "moneyflow.cli", *argv]
        else:
            spans_file = workdir / f"spans_{name}.json"
            cmd = [
                sys.executable, str(HERE / "cli_stage.py"), "--spans", str(spans_file),
                "--run", tracer.run_id, "--parent", tracer.current["id"], "--", *argv,
            ]
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if tracer is not None:
            spans = json.loads(spans_file.read_text())
            tracer.spans.extend(spans["spans"])
            for key, value in spans["counts"].items():
                tracer.counts[key] = tracer.counts.get(key, 0) + value
            # the stage's collections ran in its own process
            tracer.current["gc_s"] += spans["gc_s"]
            spans_file.unlink()

    # Each stage is a segment of its own with the speed kernel between
    # stages: a pipeline runs long enough for the host's speed to change.
    stage_s = {}
    for k, (name, template) in enumerate(README_STAGES):
        if k:
            it.kernels.append(calibrate())
        argv = [name, *(a.format(**fill) for a in template), "--out", "ws"]
        stage_start = time.perf_counter()
        it.op(f"cli.{name}", run_stage, name, argv)
        stage_s[name] = time.perf_counter() - stage_start
    wall = sum(stage_s.values())

    # Manifests name outputs by file name (report's live in ws/report) and
    # inputs by the label they were given, a path or a workspace file name.
    def hashed(name: str, digest: str) -> bool:
        for path in (workdir / name, ws / name, ws / "report" / name):
            if path.is_file():
                return _sha256(path) == digest
        return False

    for name, _ in README_STAGES:
        manifest = json.loads((ws / f"manifest_{name}.json").read_text())
        entries = {**manifest["inputs"], **manifest["outputs"]}
        it.check(
            f"cli.{name}", f"manifest_{name}_hashes",
            all(hashed(fname, digest) for fname, digest in entries.items()),
        )
    with open(ws / "synthetic_log.csv", "rb") as fh:
        events_written = sum(1 for _ in fh) - 1
    ingest = json.loads((ws / "ingest_summary.json").read_text())
    it.check("cli.ingest", "ingest_frequency_total", ingest["frequency_total"] == events_written)
    tree = json.loads((ws / "communities.json").read_text())
    state["codelength_bits"] = tree["map_equation_bits"]
    artifact_bytes = sum(p.stat().st_size for p in ws.rglob("*") if p.is_file())
    return {
        "wall_s": wall,
        "segments_s": list(stage_s.values()),
        "stage_s": stage_s,
        "log_bytes": (ws / "synthetic_log.csv").stat().st_size,
        "artifact_bytes": artifact_bytes,
    }


def finish_readme_cli(state: dict) -> dict:
    return {"codelength_bits": float(state["codelength_bits"])}


WORKLOADS = {
    "walnut-records": (setup_walnut_records, iterate_walnut_records, finish_walnut_records, WALNUT_OPS),
    "full-communities": (setup_full_communities, iterate_full_communities, finish_full_communities, COMMUNITY_OPS),
    "readme-cli": (setup_readme_cli, iterate_readme_cli, finish_readme_cli, README_OPS),
}


# ---------------------------------------------------------------------------


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--break-check", default=None)
    args = ap.parse_args(argv)

    setup, iterate, finish, all_ops = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    # CPU speed just before and just after set-up; run.py takes the first
    # kernel's time out of set-up again
    calib_before_s = calibrate()
    state = setup(SIZES[args.size], args.seed, workdir)
    result = {"ready": time.monotonic(), "import": state.get("import", {})}
    calib_s = calibrate()
    result.update({"calib_before_s": calib_before_s, "calib_after_s": calib_s})
    if args.probe:
        print(json.dumps(result))
        return 0

    # One iteration per process: a second one in the same process runs on
    # the heap the first one grew and reads slower, so it is another sample.
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id, parent=None) if args.trace else None
    it = Iteration(tracer, args.break_check)
    it.kernels.append(calib_s)
    sample = {"traced": bool(args.trace)}
    errors: list[str] = []
    try:
        if tracer is None:
            sample.update(iterate(state, it))
        else:
            with tracer:
                sample.update(iterate(state, it))
    except StageFailed as exc:
        errors.append(str(exc))
    # stages never reached count as attempted and failed
    not_run = [op for op in all_ops if op not in it.ops]
    sample["ok"] = not it.failed and not not_run
    if tracer is not None:
        sample["layers"] = layer_metrics(tracer.spans, tracer.counts)
        sample["spans"] = tracer.spans
    peak_mb = peak_rss_mb()
    gc.collect()
    # each timed segment is rescaled by the CPU speed just before and after it
    it.kernels.append(calibrate())
    if "wall_s" in sample:
        segments = sample.pop("segments_s", [sample["wall_s"]])
        sample["calib_s"] = effective_kernel_s(segments, it.kernels)
    samples = [sample]

    extra = finish(state) if sample["ok"] else {}
    if args.trace:
        # the tracer's own cost per iteration: its spans times one span's cost
        extra["span_cost_s"] = len(sample["spans"]) * span_cost_s()
    if args.workload == "readme-cli":
        # each stage is a fresh process: the largest of them
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result.update({
        "samples": samples,
        "attempted": len(all_ops),
        "failed": len(it.failed) + len(not_run),
        "errors": errors,
        "checks": it.checks,
        "peak_rss_mb": peak_mb,
        "threads": thread_count(),
        "versions": versions(),
        **extra,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
