"""Self-check of the benchmark harness at toy sizes.

Usage, from the root of a source checkout:

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py`` at toy size with tracing off and on,
and asserts that the run is correct, that every metric BENCHMARK.json
names is emitted, and that every busy time of a layer the workload calls
comes from spans (is above 0).  It then inverts one output check per workload and
asserts that the failure shows in ``failed`` (so in the fail ratio) and
in ``correct``.  Last, it runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark, where it must exit non-zero without a
result.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import LAYERS  # noqa: E402

# one output check per workload, inverted to prove that checks count
BROKEN_CHECK = {
    "walnut-records": "walnut_identity",
    "full-communities": "history_non_increasing",
    "readme-cli": "ingest_frequency_total",
}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            wanted = {m["name"] for m in spec[key]}
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: exit {code}, result {result}")
                continue
            if set(result["metrics"]) != wanted:
                problems.append(f"{workload} trace {trace}: metrics differ by "
                                f"{sorted(wanted ^ set(result['metrics']))}")
            if trace:
                # a layer the workload calls must show real, timed spans
                idle = sorted(
                    name for name, m in result["metrics"].items()
                    if name.split(".", 1)[0] in LAYERS[workload] and not name.startswith("trace.")
                    and name.endswith("_s") and not name.endswith(".gc_s") and m["value"] <= 0
                )
                if idle:
                    problems.append(f"{workload} trace 1: no spans behind {idle}")
            print(f"ok   {workload} trace {trace}: {len(wanted)} metrics, "
                  f"0/{result['attempted']} failed")
        code, result = run(workload, 0, "--break-check", BROKEN_CHECK[workload])
        if result is None or result["correct"] or not result["failed"] or code == 0:
            problems.append(f"{workload}: broken check {BROKEN_CHECK[workload]} went unnoticed")
        else:
            print(f"ok   {workload} with {BROKEN_CHECK[workload]} broken: "
                  f"fail ratio {result['failed']}/{result['attempted']}")

    bare = ROOT / ".perfbench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = run("walnut-records", 0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"without sources: exit {code}, result {result}")
    else:
        print(f"ok   without sources: exit {code}, no result")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
