"""In-memory spans around calls into moneyflow's layers.

A span records name, start, end, parent span, run id, the generation-2
garbage-collection time that fell inside it and the process's peak RSS
when it ended.  Spans are kept in memory and written out once, when the
run ends.  Only the benchmark's own files create spans; nothing inside
the package is instrumented.

Stdlib only: run.py imports this without numpy.
"""

from __future__ import annotations

import gc
import resource
import time

# Span names feed the per-layer metric of the same name, except these:
# writing and reading the link table are both "links I/O", and the
# community report includes its flat table.
METRIC_OF = {
    "ingest.write_links": "ingest.links_io",
    "ingest.read_links": "ingest.links_io",
    "community.community_report": "community.report",
    "community.flat_table": "community.report",
}

# Layers whose peak RSS is reported as <layer>.rss_mb.
RSS_LAYERS = ("synth", "ingest")


def _counts_parse_log(result):
    records, rejected = result
    return {"ingest.events": len(records), "ingest.rejected": len(rejected)}


# span name -> counts taken from the call's return value
COUNTS_OF = {
    "ingest.parse_log": _counts_parse_log,
    "ingest.aggregate": lambda links: {"ingest.links": len(links)},
    "hodge.hodge_decompose": lambda d: {"hodge.weak_components": d.problem.components[1]},
    "community.detect_communities": lambda tree: {
        "community.moves": len(tree.history),
        "community.modules": len(tree.children),
    },
    "geonmf.nmf": lambda fact: {"geonmf.nmf_iterations": len(fact.history) - 1},
}


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans and counts for one process.

    Generation-2 collections are timed through ``gc.callbacks`` and the
    time is charged to every span open while they ran, so a span's
    ``gc_s`` is the part of its duration spent in full collections.
    """

    def __init__(self, run_id: str, parent: str | None = None):
        self.run_id = run_id
        self.root_parent = parent
        # span ids are unique across the processes of one run
        self.id_prefix = parent or run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[dict] = []
        self._gc_start: float | None = None
        self._next_id = 0

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            spent = time.perf_counter() - self._gc_start
            self._gc_start = None
            for span in self._open:
                span["gc_s"] += spent

    @property
    def current(self) -> dict:
        """The innermost open span."""
        return self._open[-1]

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        self._next_id += 1
        span = {
            "id": f"{self.id_prefix}/{self._next_id}",
            "name": name,
            "parent": self._open[-1]["id"] if self._open else self.root_parent,
            "run": self.run_id,
            "gc_s": 0.0,
        }
        self._open.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
            span["rss_mb"] = peak_rss_mb()
            self.spans.append(span)
        counter = COUNTS_OF.get(name)
        if counter is not None:
            for key, value in counter(result).items():
                self.counts[key] = self.counts.get(key, 0) + value
        return result

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced


def span_cost_s(calls: int = 2000, batches: int = 5) -> float:
    """Bookkeeping time of one span, measured in this process.

    A traced call of a no-op minus an untraced one, per call, as the
    median over batches.  The difference is taken within one process and
    moment, so host noise between processes does not enter it.
    """

    def noop():
        return None

    tracer = Tracer("span-cost")
    costs = []
    with tracer:
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                tracer.call("span-cost", noop)
            t2 = time.perf_counter()
            tracer.spans.clear()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return costs[len(costs) // 2]


def layer_metrics(spans: list[dict], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer busy time, gc time and peak RSS of one run's spans, plus counts.

    Busy time sums span durations; spans nested in a span of the same
    metric would be counted twice, but the benchmark never nests them.
    """
    out: dict[str, float] = dict(counts)
    for span in spans:
        stem = METRIC_OF.get(span["name"], span["name"])
        out[f"{stem}_s"] = out.get(f"{stem}_s", 0.0) + span["end"] - span["start"]
        out[f"{stem}.gc_s"] = out.get(f"{stem}.gc_s", 0.0) + span["gc_s"]
        layer = stem.split(".", 1)[0]
        if layer in RSS_LAYERS:
            key = f"{layer}.rss_mb"
            out[key] = max(out.get(key, 0.0), span["rss_mb"])
    return out
