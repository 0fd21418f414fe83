"""The program's layers, the functions that bound them, and their metrics.

Each layer is measured at the public entry points listed in
:data:`TARGETS`.  A layer's ``calls`` counts entries from outside the
layer (a nested call of the same layer, like ``execute_cost_group``
falling back to ``execute_query``, is one call), and its busy time is
the sum of its spans' self time.

Which end-to-end metric each layer should move, and where (the
workload ``why`` lines in ``BENCHMARK.json`` give the rest):

* ``serve.protocol`` (request decode, dispatch and response encode in
  ``DSEServer._handle_line``, minus scheduler time): serve-hot p50.
* ``serve.scheduler`` (``CoalescingScheduler.submit``): serve-hot p50
  through the micro-batch window, serve-cold ``heavy.p90_ms`` through
  queueing.  ``wait_s`` is submit time not covered by service work.
* ``serve.service``: serve-cold latency; near 0 on serve-hot.
* ``core.engine``, ``core.batch``, ``core.perf``: runall ``cold_s``
  and serve-cold latency.  ``core.batch`` is 0 on serve-hot and scores
  no rows in runall's warm pass.
* ``core.candidates``: runall ``cold_s`` and ``warm_s`` (planning runs
  before the memo lookup).
* ``core.cache``: runall ``warm_s``; 0 on the serve workloads.
* ``core.scaleout``: runall ``cold_s``, serve-cold ``heavy.p90_ms``.
* ``sim.batching``, ``sim.engine``: decode-replay ``ops_per_s``; 0
  elsewhere.
* ``experiments.runner``: report building outside the DSE, runall
  ``warm_s``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import Recorder, Span, covered, install, self_times


def _search_attrs(args, kwargs, result) -> Dict[str, float]:
    stats = result.stats
    if stats is None:
        return {}
    return {"generated": stats.candidates_generated,
            "skipped": stats.candidates_skipped}


def _scaleout_attrs(args, kwargs, result) -> Dict[str, float]:
    return {"inner": result.stats.inner_searches,
            "pruned": result.stats.partitions_pruned}


def _cache_get_attrs(args, kwargs, result) -> Dict[str, float]:
    return {"hit": 0 if result is None else 1}


#: (layer, module, qualname, attrs) of every wrapped entry point.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("serve.protocol", "repro.serve.server", "DSEServer._handle_line",
     None),
    ("serve.scheduler", "repro.serve.scheduler",
     "CoalescingScheduler.submit", None),
    ("serve.service", "repro.serve.service", "execute_query", None),
    ("serve.service", "repro.serve.service", "execute_cost_group", None),
    ("core.engine", "repro.core.engine", "run_search", _search_attrs),
    ("core.batch", "repro.core.batch", "evaluate_grid",
     lambda a, k, r: {"rows": len(r)}),
    ("core.perf", "repro.core.perf", "cost_scope", None),
    ("core.candidates", "repro.core.candidates", "plan_candidates", None),
    ("core.cache", "repro.core.cache", "PersistentCache.get",
     _cache_get_attrs),
    ("core.cache", "repro.core.cache", "PersistentCache.put",
     lambda a, k, r: {"put": 1}),
    ("core.scaleout", "repro.core.scaleout", "search_scaleout",
     _scaleout_attrs),
    ("sim.batching", "repro.sim.batching", "run_serving",
     lambda a, k, r: {"steps": r.steps}),
    ("sim.batching", "repro.sim.batching", "step_passes", None),
    ("sim.engine", "repro.sim.engine", "simulate",
     lambda a, k, r: {"passes": len(r.timeline)}),
    ("experiments.runner", "repro.experiments.runner", "run_experiment",
     None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))

#: Per workload: layers that must record calls, and layers that must
#: record none, in the timed phases of a traced run.  runall's warm
#: pass is checked on its own: ``core.batch`` scores no rows there.
EXPECT: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "runall": (
        ("core.engine", "core.batch", "core.perf", "core.candidates",
         "core.cache", "core.scaleout", "experiments.runner"),
        ("serve.protocol", "serve.scheduler", "serve.service",
         "sim.batching", "sim.engine"),
    ),
    "serve-hot": (
        ("serve.protocol", "serve.scheduler"),
        ("core.cache", "core.batch", "sim.batching", "sim.engine",
         "experiments.runner"),
    ),
    "serve-cold": (
        ("serve.protocol", "serve.scheduler", "serve.service",
         "core.engine", "core.perf", "core.candidates", "core.scaleout"),
        ("core.cache", "sim.batching", "sim.engine", "experiments.runner"),
    ),
    "decode-replay": (
        ("sim.batching", "sim.engine"),
        ("serve.protocol", "core.engine", "core.cache", "core.batch",
         "experiments.runner"),
    ),
}


def install_tracing(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target; returns the function that unwraps them."""
    return install([
        (module, qualname,
         lambda fn, layer=layer, attrs=attrs: recorder.wrap(layer, fn,
                                                           attrs))
        for layer, module, qualname, attrs in TARGETS
    ])


def calls_by_layer(spans: Sequence[Span]) -> Dict[str, int]:
    counts = {layer: 0 for layer in LAYERS}
    for span in spans:
        if span.parent is None or span.parent.layer != span.layer:
            counts[span.layer] += 1
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rollup(spans: Sequence[Span], counters: Dict[str, float]
           ) -> Dict[str, float]:
    """Per-layer metrics of the spans of one traced run.

    ``counters`` carries what the program counts itself: the
    scheduler's ``memo_hits``/``requests``/``coalesced``/``shed``/
    ``deadline_expired``/``grid_calls``/``grid_rows`` deltas, the
    engine LRU's ``lru_hits``/``lru_misses`` deltas and the persistent
    cache's ``cache_corrupt`` delta.
    """
    own = self_times(spans)
    busy = {layer: 0.0 for layer in LAYERS}
    sums: Dict[str, float] = {}
    by_layer: Dict[str, List[Span]] = {layer: [] for layer in LAYERS}
    for span in spans:
        busy[span.layer] += own[id(span)]
        by_layer[span.layer].append(span)
        for key, value in span.attrs.items():
            sums[f"{span.layer}.{key}"] = (
                sums.get(f"{span.layer}.{key}", 0) + value)
    calls = calls_by_layer(spans)
    service = [(s.start, s.end) for s in by_layer["serve.service"]]
    wait = sum(
        (s.end - s.start) - covered(s, service)
        for s in by_layer["serve.scheduler"]
    )
    cache_gets = sum(1 for s in by_layer["core.cache"] if "hit" in s.attrs)
    c = counters.get
    return {
        "serve.protocol.calls": calls["serve.protocol"],
        "serve.protocol.busy_s": busy["serve.protocol"],
        "serve.scheduler.submits": calls["serve.scheduler"],
        "serve.scheduler.wait_s": wait,
        "serve.scheduler.memo_hit_ratio": _ratio(
            c("memo_hits", 0), c("requests", 0)),
        "serve.scheduler.coalesced": c("coalesced", 0),
        "serve.scheduler.refused": c("shed", 0) + c("deadline_expired", 0),
        "serve.scheduler.grid_rows_per_call": _ratio(
            c("grid_rows", 0), c("grid_calls", 0)),
        "serve.service.calls": calls["serve.service"],
        "serve.service.busy_s": busy["serve.service"],
        "core.engine.searches": calls["core.engine"],
        "core.engine.busy_s": busy["core.engine"],
        "core.engine.lru_hit_ratio": _ratio(
            c("lru_hits", 0), c("lru_hits", 0) + c("lru_misses", 0)),
        "core.batch.calls": calls["core.batch"],
        "core.batch.rows": sums.get("core.batch.rows", 0),
        "core.batch.busy_s": busy["core.batch"],
        "core.batch.fallbacks": sum(
            1 for s in by_layer["core.batch"] if s.error == "BatchFallback"),
        "core.perf.calls": calls["core.perf"],
        "core.perf.busy_s": busy["core.perf"],
        "core.candidates.calls": calls["core.candidates"],
        "core.candidates.busy_s": busy["core.candidates"],
        "core.candidates.skipped_ratio": _ratio(
            sums.get("core.engine.skipped", 0),
            sums.get("core.engine.skipped", 0)
            + sums.get("core.engine.generated", 0)),
        "core.cache.gets": cache_gets,
        "core.cache.hit_ratio": _ratio(
            sums.get("core.cache.hit", 0), cache_gets),
        "core.cache.puts": sums.get("core.cache.put", 0),
        "core.cache.corrupt": c("cache_corrupt", 0),
        "core.cache.busy_s": busy["core.cache"],
        "core.scaleout.searches": calls["core.scaleout"],
        "core.scaleout.busy_s": busy["core.scaleout"],
        "core.scaleout.inner_searches": sums.get("core.scaleout.inner", 0),
        "core.scaleout.partitions_pruned": sums.get(
            "core.scaleout.pruned", 0),
        "sim.batching.steps": sums.get("sim.batching.steps", 0),
        "sim.batching.busy_s": busy["sim.batching"],
        "sim.engine.calls": calls["sim.engine"],
        "sim.engine.passes": sums.get("sim.engine.passes", 0),
        "sim.engine.busy_s": busy["sim.engine"],
        "experiments.runner.calls": calls["experiments.runner"],
        "experiments.runner.self_s": busy["experiments.runner"],
    }


def self_check(workload: str, spans: Sequence[Span]) -> List[str]:
    """Busy layers with no calls and idle layers with calls, as text."""
    busy_layers, idle_layers = EXPECT[workload]
    calls = calls_by_layer(spans)
    problems = [f"{layer} recorded no calls on {workload}"
                for layer in busy_layers if calls[layer] == 0]
    problems += [f"{layer} recorded {calls[layer]} calls on {workload}, "
                 "expected none"
                 for layer in idle_layers if calls[layer] != 0]
    return problems


def _within(spans: Sequence[Span], windows) -> List[Span]:
    return [s for s in spans
            if any(start <= s.start <= end for start, end in windows)]


def analyse(workload: str, spans: Sequence[Span],
            windows: Dict[str, list], counters: Dict[str, float]
            ) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics and self-check problems of the timed phases.

    ``windows`` maps each timed phase to its ``(start, end)`` intervals;
    spans that start outside every interval (set-up, the serve bursts,
    output checks) are left out.
    """
    timed = _within(spans, [w for ws in windows.values() for w in ws])
    problems = self_check(workload, timed)
    if "warm" in windows:
        # The warm pass still enters evaluate_grid (286 calls on the
        # full registry), but every call raises BatchFallback before
        # scoring a row; the scalar path then reads the cache.
        rows = sum(s.attrs.get("rows", 0)
                   for s in _within(spans, windows["warm"])
                   if s.layer == "core.batch")
        if rows:
            problems.append(f"core.batch scored {rows} rows in the warm "
                            "pass, expected none")
    return rollup(timed, counters), problems


def compare(before: Dict[str, float], after: Dict[str, float]
            ) -> List[Tuple[str, float]]:
    """Layers ranked by how much their own time grew, largest first.

    A layer's own time is its busy (self) time, or for the scheduler
    its wait time.
    """
    growth = [(key.rsplit(".", 1)[0], after[key] - before[key])
              for key in after
              if key.endswith((".busy_s", ".self_s", ".wait_s"))]
    return sorted(growth, key=lambda item: -item[1])
