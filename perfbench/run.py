"""moneyflow benchmark: three batch workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

- ``walnut-records``: a walnut log generated, written, parsed, filtered,
  aggregated and analysed in one warm process (synth, ingest, network,
  bowtie, hodge).  No communities, no NMF, no CLI.
- ``full-communities``: set-up builds the README ``full`` network; the
  timed part is community detection, its report and flat table.
- ``readme-cli``: the eight README CLI stages, each a fresh process, in a
  fresh workspace per iteration.

Each workload is a closed loop of one caller: a stage starts when the one
before it has returned.  The seed makes the inputs; the program only
sees the generated inputs.  A run starts worker processes
(``worker.py``) one after another, as many as ``--seconds`` buys, each on
inputs from a seed of its own derived from ``--seed``.  Each sets up and
runs one iteration.  Speed differs from one Python process to the next
(memory layout), so a run pools iterations from several processes, as
pyperf does; every process also gives one set-up sample.

The host's CPU speed drifts by tens of percent over minutes, more than a
performance change worth catching.  So ``wall_s`` and ``setup_s`` are
rescaled to a reference speed: each worker runs a fixed kernel
(``calibrate.py``) before and after set-up, after its iteration and
between the stages of a README pipeline, and a time is multiplied by
``REFERENCE_S`` over the kernel time around it.  The unscaled medians
are printed as well.  Per-layer times are not rescaled.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` traces workers in a T U U T order,
reports the per-layer metrics from the traced ones and
the tracing overhead (traced minus untraced wall time).  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit,
direction, high percentile and sample count.  A full record of the run,
spans included, goes to ``.perfbench_runs/`` in the checkout.

Exits 2 without a result when the checkout has no ``src/moneyflow``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
# Seconds of --seconds that buy one worker process: its start, set-up,
# speed kernels and one iteration take about this long on the 2-vCPU host
# of RECORD.md.  A README pipeline already spans eight processes.
WORKER_S = {"walnut-records": 9.0, "full-communities": 9.0, "readme-cli": 18.0}
# set-up is sampled at least this often per run; probes make up the rest
SETUP_SAMPLES = 3
# Every run must end within 180 s; leave room for the bookkeeping.
RUN_DEADLINE_S = 170.0
# The layers each workload calls, as its ``why`` in BENCHMARK.json names
# them.  A traced run must take every per-layer metric of these layers
# from real spans; only the layers a workload never calls report 0.
LAYERS = {
    "walnut-records": ("synth", "ingest", "network", "bowtie", "hodge", "trace"),
    "full-communities": ("community", "trace"),
    "readme-cli": ("synth", "ingest", "network", "bowtie", "hodge", "community", "geonmf",
                   "cli", "trace"),
}


def child_env() -> dict[str, str]:
    """Environment for workload processes: the checkout's package, at most nproc threads."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # fixed str hashing, so dict and set layouts repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    # numpy and scipy each load their own OpenBLAS, and each pool adds
    # (threads - 1) to the main thread; keep the process total <= nproc.
    blas_threads = max(1, ((os.cpu_count() or 1) + 1) // 2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(env.get(var, blas_threads))
        except ValueError:
            current = blas_threads
        env[var] = str(max(1, min(current, blas_threads)))
    return env


def run_worker(argv: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run worker.py; return its JSON result and its raw set-up time."""
    started = time.monotonic()
    # A session of its own, so a timeout also ends the CLI stages it started.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is system-wide on Linux, so the worker's stamp compares;
    # the speed kernel the worker ran before set-up is not set-up
    return result, result["ready"] - started - result["calib_before_s"]


def input_seed(seed: int, k: int) -> int:
    """Seed of the inputs of worker ``k``.

    Each worker of a run gets inputs of its own, so a run's median spans
    several networks and one odd network moves it less.
    """
    return (seed % 2**28) * 8 + k


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it, else the maximum."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100)[p - 1]
    return "max", max(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKER_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy sizes are for selfcheck.py only")
    ap.add_argument("--break-check", default=None, metavar="CHECK",
                    help="invert one output check (selfcheck.py uses this)")
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    deadline = t_start + RUN_DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "moneyflow" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no moneyflow sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    workdir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    common = ["--workload", args.workload, "--size", args.size, "--workdir", str(workdir)]
    # The count depends on --seconds only, not on the host's speed, so one
    # seed always gives the same inputs; a traced run needs an even count.
    n_workers = max(2, round(args.seconds / WORKER_S[args.workload]))
    n_workers += args.trace and n_workers % 2
    try:
        probes = [run_worker([*common, "--seed", str(input_seed(args.seed, 0)), "--probe"], env, deadline)
                  for _ in range(SETUP_SAMPLES - n_workers)]
        workers = []
        for k in range(n_workers):
            # T U U T: traced and untraced workers alternate so order cancels;
            # traced runs give inputs a a b b, so both kinds see the same ones
            traced = args.trace and k % 4 in (0, 3)
            seed = input_seed(args.seed, k // 2 if args.trace else k)
            argv = [*common, "--seed", str(seed), "--trace", str(int(traced))]
            if args.break_check:
                argv += ["--break-check", args.break_check]
            workers.append(run_worker(argv, env, deadline))
            if workers[-1][0]["failed"]:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Times are rescaled to the reference CPU speed (see calibrate.py):
    # set-up by the kernel times around it, an iteration by those around
    # its segments (worker.py gives it as one kernel time, calib_s).
    raw_setups = [s for _, s in probes + workers]
    setups = [s * REFERENCE_S * 2 / (r["calib_before_s"] + r["calib_after_s"])
              for r, s in probes + workers]
    results = [r for r, _ in workers]
    samples = [s for r in results for s in r["samples"]]
    ok = [s for s in samples if s["ok"]]
    for s in ok:
        s["wall_ref_s"] = s["wall_s"] * REFERENCE_S / s["calib_s"]
    raw_plain = [s["wall_s"] for s in ok if not s["traced"]]
    plain = [s["wall_ref_s"] for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    series: dict[str, list[float]] = {}
    if args.trace:
        for s in traced:
            for name, value in s["layers"].items():
                series.setdefault(name, []).append(value)
            series.setdefault("trace.spans", []).append(len(s["spans"]))
            for key, name in (("log_bytes", "synth.log_bytes"), ("artifact_bytes", "cli.artifact_bytes")):
                if key in s:
                    series.setdefault(name, []).append(s[key])
        for proc, _ in probes + workers:
            for name, value in proc["import"].items():
                series.setdefault(name, []).append(value)
        for r in results:
            if "span_cost_s" in r:
                series.setdefault("trace.span_cost_s", []).append(r["span_cost_s"])
        if traced and plain:
            overhead = statistics.median(s["wall_ref_s"] for s in traced) - statistics.median(plain)
            series["trace.overhead_s"] = [overhead]
    else:
        series["wall_s"] = plain
        series["setup_s"] = setups
        series["peak_rss_mb"] = [r["peak_rss_mb"] for r in results]
        series["codelength_bits"] = [r["codelength_bits"] for r in results if "codelength_bits" in r]

    metrics = {}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    print("environment " + json.dumps(
        {**results[0]["versions"], "threads": max(r["threads"] for r in results)}))
    kernel = [r[k] for r, _ in probes + workers for k in ("calib_before_s", "calib_after_s")]
    kernel += [s["calib_s"] for s in ok]
    print(f"speed kernel median {statistics.median(kernel):.4g} s (reference {REFERENCE_S} s); "
          f"unscaled median set-up {statistics.median(raw_setups):.4g} s"
          + (f", wall {statistics.median(raw_plain):.4g} s" if raw_plain else ""))
    for m in wanted:
        values = series.get(m["name"], [])
        note = ""
        if not values and args.trace and m["name"].split(".", 1)[0] not in LAYERS[args.workload]:
            # a layer this workload never calls has zero busy time and counts
            values, note = [0.0], "  (layer not called)"
        if not values:
            print(f"  {m['name']:<34} missing")
            continue
        value = statistics.median(values)
        tail, tail_value = high_percentile(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if m["name"] == "trace.overhead_s" and len(plain) > 1:
            # the untraced samples' own range; an overhead inside it is noise
            note = f"  (untraced range {max(plain) - min(plain):.3g} s, n={len(plain)})"
        print(f"  {m['name']:<34} {value:>14.6g} {m['unit']:<6} "
              f"{tail} {tail_value:.6g}  n={len(values)}  {m['better']} is better{note}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(m["name"] in metrics for m in wanted)
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    checks: dict[str, bool] = {}
    for r in results:
        for name, passed in r["checks"].items():
            checks[name] = checks.get(name, True) and passed
    for name, passed in sorted(checks.items()):
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    for err in (e for r in results for e in r["errors"]):
        print(f"  error {err}")

    RUNS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "setup_s": setups, "setup_s_unscaled": raw_setups,
        "wall_s_untraced": plain, "wall_s_untraced_unscaled": raw_plain,
        "metrics": metrics, "workers": results,
    }
    record_path = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
