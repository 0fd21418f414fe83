"""End-to-end observability: engine spans, cache counters, pipeline.

The load-bearing guarantee is at the top: tracing must never change
what the repo computes.  Reports produced under ``obs.observed()`` are
byte-identical to untraced ones.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.arch.presets import edge
from repro.core.cache import PersistentCache
from repro.core.dse import Objective, search
from repro.core.engine import clear_evaluation_cache, default_candidates
from repro.experiments.pipeline import run_pipeline, write_manifest
from repro.experiments.runner import run_experiment
from repro.obs.summary import (
    cache_invariant,
    format_summary,
    rollup_spans,
    trace_totals,
)
from repro.obs.trace import TRACE_SCHEMA, read_trace


class TestReportsUnchanged:
    def test_traced_report_is_byte_identical(self, tmp_path):
        baseline = run_experiment("fig2")
        with obs.observed(tmp_path / "trace.jsonl"):
            traced = run_experiment("fig2")
        assert traced == baseline
        data = read_trace(tmp_path / "trace.jsonl")
        assert any(s["name"] == "experiment" for s in data.spans)


class TestEngineInstrumentation:
    def test_search_emits_phase_spans_and_counters(self, bert_512):
        clear_evaluation_cache()
        with obs.observed() as session:
            search(bert_512, edge(), objective=Objective.RUNTIME,
                   retain_points=False)
            names = {e["name"] for e in session.collector.events}
            snap = session.registry.snapshot()
        # The default front end is the generated one; the exhaustive
        # "enumerate" span only appears with candidates=False.
        assert {"search", "candidate-search", "candidate-score"} <= names
        assert snap["engine.searches"]["value"] == 1
        assert snap["engine.enumerated"]["value"] > 0
        assert snap["engine.candidates.generated"]["value"] > 0
        stats_sum = (
            snap["engine.lru_hits"]["value"]
            + snap.get("engine.pruned", {"value": 0})["value"]
            + snap["engine.evaluated"]["value"]
            + snap["engine.disk_hits"]["value"]
        )
        assert stats_sum == snap["engine.enumerated"]["value"]

    def test_plan_span_only_on_a_memo_miss(self, bert_512):
        clear_evaluation_cache()
        with obs.observed() as session:
            search(bert_512, edge(), objective=Objective.RUNTIME,
                   retain_points=False)
            cold = list(session.collector.events)
            search(bert_512, edge(), objective=Objective.RUNTIME,
                   retain_points=False)
            warm = [e["name"] for e in session.collector.events[len(cold):]]
        (plan,) = [e for e in cold if e["name"] == "candidate-plan"]
        assert plan["attrs"]["families"] > 0
        assert "candidate-search" in warm
        assert "candidate-plan" not in warm
        assert "candidate-score" not in warm

    def test_exhaustive_path_emits_enumerate_span(self, bert_512):
        clear_evaluation_cache()
        with obs.observed() as session:
            with default_candidates(False):
                search(bert_512, edge(), objective=Objective.RUNTIME,
                       retain_points=False)
            names = {e["name"] for e in session.collector.events}
        assert {"search", "enumerate"} <= names
        assert "candidate-score" not in names

    def test_search_span_carries_candidate_count(self, bert_512):
        clear_evaluation_cache()
        with obs.observed() as session:
            search(bert_512, edge(), objective=Objective.RUNTIME,
                   retain_points=False)
            events = list(session.collector.events)
        (score_event,) = [e for e in events
                          if e["name"] == "candidate-score"]
        assert score_event["attrs"]["candidates"] > 0
        assert score_event["attrs"]["families"] > 0
        assert score_event["attrs"]["families_pruned"] >= 0


class TestCacheInstrumentation:
    def test_counters_match_stats_under_corruption(self, tmp_path):
        """The summary invariant holds through injected corruption."""
        with obs.observed() as session:
            cache = PersistentCache(tmp_path / "c")
            cache.put(("ok",), 1)
            assert cache.get(("ok",)) == 1
            assert cache.get(("absent",)) is None
            cache.put(("bad",), 2)
            path, _ = cache._entry_path(("bad",))
            path.write_bytes(b"garbage")
            assert cache.get(("bad",)) is None
            snap = session.registry.snapshot()
        assert snap["cache.lookups"]["value"] == cache.stats.lookups == 3
        assert snap["cache.hits"]["value"] == cache.stats.hits == 1
        assert snap["cache.misses"]["value"] == cache.stats.misses == 2
        assert snap["cache.corrupt"]["value"] == cache.stats.corrupt == 1
        assert snap["cache.writes"]["value"] == cache.stats.writes == 2
        assert cache_invariant(snap) == (3, 1, 2, True)

    def test_latency_histograms_populated(self, tmp_path):
        with obs.observed() as session:
            cache = PersistentCache(tmp_path / "c")
            cache.put(("k",), 1)
            cache.get(("k",))
            snap = session.registry.snapshot()
        assert snap["cache.get_s"]["count"] == 1
        assert snap["cache.put_s"]["count"] == 1


class TestPipelineShipping:
    def test_workers_ship_events_and_metrics_home(self):
        import os

        with obs.observed() as session:
            result = run_pipeline(names=("fig2",), workers=2, cache_dir="")
            events = list(session.collector.events)
        assert result.runs[0].ok
        names = {e["name"] for e in events}
        assert "experiment" in names, "worker spans must reach the parent"
        pids = {e["pid"] for e in events if e["name"] == "experiment"}
        assert pids and os.getpid() not in pids, (
            "pool workers record in their own process and ship events home"
        )

    def test_manifest_embeds_trace_totals(self, tmp_path):
        with obs.observed() as session:
            result = run_pipeline(names=("table1",), workers=1,
                                  cache_dir="")
            totals = trace_totals(
                tuple(session.collector.events),
                session.registry.snapshot(),
            )
        path = write_manifest(result, tmp_path / "out", trace=totals)
        manifest = json.loads(path.read_text())
        assert manifest["trace"]["schema"] == TRACE_SCHEMA
        span_names = {s["name"] for s in manifest["trace"]["spans"]}
        assert "experiment" in span_names

    def test_untraced_manifest_has_no_trace_key(self, tmp_path):
        result = run_pipeline(names=("table1",), workers=1, cache_dir="")
        path = write_manifest(result, tmp_path / "out")
        manifest = json.loads(path.read_text())
        assert "trace" not in manifest


class TestSummary:
    def _trace(self, tmp_path, metrics):
        with obs.observed(tmp_path / "t.jsonl") as session:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            session.registry.merge(metrics)
        return read_trace(tmp_path / "t.jsonl")

    def test_rollup_orders_by_self_time(self):
        spans = (
            {"name": "cold", "dur_s": 0.1, "self_s": 0.1},
            {"name": "hot", "dur_s": 5.0, "self_s": 4.0},
            {"name": "hot", "dur_s": 1.0, "self_s": 1.0},
        )
        rollup = rollup_spans(spans)
        assert [e["name"] for e in rollup] == ["hot", "cold"]
        assert rollup[0]["count"] == 2
        assert rollup[0]["self_s"] == pytest.approx(5.0)

    def test_summary_reports_invariant_ok(self, tmp_path):
        data = self._trace(tmp_path, {
            "cache.lookups": {"kind": "counter", "value": 4},
            "cache.hits": {"kind": "counter", "value": 3},
            "cache.misses": {"kind": "counter", "value": 1},
        })
        text = format_summary(data)
        assert "3 + 1 == 4 [OK]" in text
        assert "outer" in text and "inner" in text

    def test_summary_flags_violated_invariant(self, tmp_path):
        data = self._trace(tmp_path, {
            "cache.lookups": {"kind": "counter", "value": 4},
            "cache.hits": {"kind": "counter", "value": 3},
            "cache.misses": {"kind": "counter", "value": 0},
        })
        assert "[VIOLATED]" in format_summary(data)

    def test_summary_without_cache_metrics_omits_invariant(self, tmp_path):
        data = self._trace(tmp_path, {})
        assert "cache invariant" not in format_summary(data)
