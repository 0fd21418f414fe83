"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import asyncio
import os
import sys
import tempfile
import time

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import layers  # noqa: E402
import runall  # noqa: E402
from calib import REFERENCE_S, SteadyClock  # noqa: E402
from spans import Recorder, install, self_times  # noqa: E402


def test_overlapping_coroutines_are_both_roots():
    recorder = Recorder()

    async def work(seconds):
        await asyncio.sleep(seconds)

    short = recorder.wrap("a", work)
    long = recorder.wrap("b", work)

    async def main():
        await asyncio.gather(short(0.02), long(0.05))

    asyncio.run(main())
    assert sorted(s.layer for s in recorder.spans) == ["a", "b"]
    own = self_times(recorder.spans)
    for span in recorder.spans:
        assert span.parent is None
        assert own[id(span)] == span.end - span.start
    durations = {s.layer: s.end - s.start for s in recorder.spans}
    assert durations["a"] >= 0.02 and durations["b"] >= 0.05


def test_steady_clock_leaves_out_probes_and_rescales_each_stretch():
    clock = SteadyClock()
    # (work stops, probe seconds, work resumes): 1 s of work, then 2 s.
    clock.marks = [(0.0, 2 * REFERENCE_S, 0.1),
                   (1.1, 4 * REFERENCE_S, 1.3),
                   (3.3, 1 * REFERENCE_S, 3.4)]
    assert clock.between(0, 2) == pytest.approx((1.0 / 3 + 2.0 / 2.5, 3.0))
    assert clock.between(1, 2) == pytest.approx((2.0 / 2.5, 2.0))
    index = clock.mark()
    assert index == 3 and clock.marks[index][1] > 0


def test_self_time_excludes_children():
    recorder = Recorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.02))
    outer = recorder.wrap("outer", lambda: (inner(), time.sleep(0.01)))
    outer()
    spans = {s.layer: s for s in recorder.spans}
    assert spans["inner"].parent is spans["outer"]
    own = self_times(recorder.spans)
    outer_span = spans["outer"]
    assert own[id(outer_span)] == pytest.approx(
        (outer_span.end - outer_span.start)
        - (spans["inner"].end - spans["inner"].start))


def test_install_patches_every_binding_and_restores():
    import repro.core.candidates as candidates
    import repro.core.engine as engine
    import repro.serve.service as service
    from repro.serve.scheduler import CoalescingScheduler

    original_plan = candidates.plan_candidates
    original_query = service.execute_query
    restore = layers.install_tracing(Recorder())
    try:
        assert engine.plan_candidates is candidates.plan_candidates
        assert engine.plan_candidates is not original_plan
        assert original_query not in CoalescingScheduler.__init__.__defaults__
        assert service.execute_query in CoalescingScheduler.__init__.__defaults__
    finally:
        restore()
    assert engine.plan_candidates is original_plan
    assert original_query in CoalescingScheduler.__init__.__defaults__


def test_self_check_names_wrong_layers():
    recorder = Recorder()
    recorder.wrap("sim.engine", lambda: None)()
    problems = layers.self_check("runall", recorder.spans)
    assert "sim.engine recorded 1 calls on runall, expected none" in problems
    assert "core.engine recorded no calls on runall" in problems


SUBSET = ("fig9-edge", "fig11-edge", "ext-decode")


def _traced_runall(workdir):
    recorder = Recorder()
    restore = layers.install_tracing(recorder)
    try:
        result = runall.measure(0, 0.0, workdir, names=SUBSET)
    finally:
        restore()
    assert not result["problems"]
    metrics, problems = layers.analyse(
        "runall", recorder.spans, result["windows"], result["counters"])
    return result["metrics"], metrics


def test_injected_batch_delay_is_named_and_moves_cold_s():
    import repro.core.batch as batch

    delay = 0.01

    def slow(fn):
        def wrapper(*args, **kwargs):
            time.sleep(delay)
            return fn(*args, **kwargs)
        return wrapper

    original = batch.evaluate_grid
    with tempfile.TemporaryDirectory() as workdir:
        _traced_runall(workdir)  # first-call costs land outside both sides
        base_e2e, base_layers = _traced_runall(workdir)
        undo = install([("repro.core.batch", "evaluate_grid", slow)])
        try:
            slow_e2e, slow_layers = _traced_runall(workdir)
        finally:
            undo()
    assert batch.evaluate_grid is original
    calls = slow_layers["core.batch.calls"]
    assert calls >= 20
    ranked = layers.compare(base_layers, slow_layers)
    assert ranked[0][0] == "core.batch"
    assert ranked[0][1] >= 0.5 * delay * calls
    assert slow_e2e["cold_s"] - base_e2e["cold_s"] >= 0.5 * delay * calls
