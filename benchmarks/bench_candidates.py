"""Benchmark: analytic candidate generation vs the exhaustive oracle.

Runs the fig8-style buffer sweep (one workload, the exhaustive-staging
FLAT-opt space, every buffer size of Figure 8) three times: with the
oracle (``candidates=False`` — enumerate, then score every candidate
with the scalar model), with the generated front end (family planning
plus branch-and-bound), and with the generated front end warm-started
from each neighboring buffer size's winner.  Asserts the acceptance
criteria of candidate generation:

* identical winning dataflow and cycle count at every buffer size,
* >= 5x fewer scalar/batch cost evaluations for the generated front
  end,
* >= 2x wall-clock speedup,
* nonzero family-pruning counts (the branch-and-bound actually fired).

The evaluation caches are cleared between the sides so nothing leaks
from one front end into another's measurement.  Wall times land in
``BENCH_pipeline.json`` via the harness hook (schema v2 also lifts the
evaluation/skip counters per row).
"""

import os
import time

import pytest

from repro.arch.presets import edge
from repro.analysis.utilization import default_buffer_sizes
from repro.core.candidates import make_incumbent
from repro.core.dse import Objective, SearchSpace, search
from repro.core.engine import (
    EngineOptions,
    clear_evaluation_cache,
    reset_search_totals,
    search_totals,
)
from repro.models.configs import model_config
from repro.ops.attention import Scope

FULL_GRID = EngineOptions(cache_size=8192, candidates=False)  # the oracle
GENERATED = EngineOptions(cache_size=8192)

# The paper's FLAT-opt DSE over the exhaustive staging product — the
# widest per-search grid the sweep experiments use.
SPACE = SearchSpace(
    allow_fused=True,
    allow_unfused=True,
    row_choices=(1, 4, 16, 64, 256, 1024, 4096, 16384),
    exhaustive_staging=True,
)


def _sweep(cfg, engine, warm):
    """One fig8 buffer sweep; returns (winners, totals, wall seconds)."""
    clear_evaluation_cache()
    reset_search_totals()
    start = time.perf_counter()
    winners = []
    incumbent = None
    for size in default_buffer_sizes():
        accel = edge().with_scratchpad_bytes(size)
        res = search(
            cfg, accel, scope=Scope.LA, objective=Objective.RUNTIME,
            space=SPACE, engine=engine, retain_points=False,
            warm_start=incumbent if warm else None,
        )
        if warm:
            incumbent = make_incumbent(res, Scope.LA, accel)
        winners.append((res.best.dataflow, res.best.cost.total_cycles))
    return winners, search_totals(), time.perf_counter() - start


def _evaluations(totals):
    return totals["evaluated"] + totals["batch_evaluations"]


def test_candidate_generation_speedup(benchmark, report_printer):
    # BENCH_CAND_SEQ shrinks the workload for CI smoke runs; the
    # default is the paper's long-sequence regime.
    cfg = model_config(
        "bert", seq=int(os.environ.get("BENCH_CAND_SEQ", "4096"))
    )

    grid_winners, grid_totals, grid_s = _sweep(cfg, FULL_GRID, warm=False)
    cold_winners, cold_totals, cold_s = _sweep(cfg, GENERATED, warm=False)
    warm_winners, warm_totals, warm_s = benchmark.pedantic(
        lambda: _sweep(cfg, GENERATED, warm=True),
        rounds=1, iterations=1,
    )

    grid_e = _evaluations(grid_totals)
    cold_e = _evaluations(cold_totals)
    warm_e = _evaluations(warm_totals)
    points = len(default_buffer_sizes())
    lines = [
        f"sweep: {points} buffer sizes x "
        f"{grid_totals['enumerated'] // max(points, 1)} candidates",
        f"full grid : {grid_s * 1e3:9.1f} ms  {grid_e:6d} evaluations",
        f"generated : {cold_s * 1e3:9.1f} ms  {cold_e:6d} evaluations "
        f"({grid_s / cold_s:.1f}x wall, {grid_e / cold_e:.1f}x evals, "
        f"{cold_totals['families_pruned']} families pruned)",
        f"warm start: {warm_s * 1e3:9.1f} ms  {warm_e:6d} evaluations "
        f"({grid_s / warm_s:.1f}x wall, {grid_e / warm_e:.1f}x evals, "
        f"{warm_totals['families_pruned']} families pruned)",
    ]
    report_printer("\n".join(lines))

    # Equivalence: same winner, same bytes, at every buffer size.
    assert cold_winners == grid_winners
    assert warm_winners == grid_winners

    # The branch-and-bound must actually fire...
    assert cold_totals["families_pruned"] > 0
    assert warm_totals["families_pruned"] > 0
    assert cold_totals["candidates_skipped"] > 0
    # ...avoid the work the acceptance criterion demands...
    assert grid_e >= 5.0 * cold_e, (
        f"generated front end only avoided {grid_e / cold_e:.2f}x "
        f"evaluations"
    )
    assert grid_e >= 5.0 * warm_e, (
        f"warm-started front end only avoided {grid_e / warm_e:.2f}x "
        f"evaluations"
    )
    # ...and buy the wall-clock speedup.
    assert grid_s >= 2.0 * cold_s, (
        f"generated front end only {grid_s / cold_s:.2f}x faster"
    )
    assert grid_s >= 2.0 * warm_s, (
        f"warm-started front end only {grid_s / warm_s:.2f}x faster"
    )


def test_plan_is_cheaper_than_enumeration(report_printer):
    """Planning the space must cost well under expanding it."""
    from repro.core.candidates import plan_candidates
    from repro.core.dse import enumerate_dataflows

    cfg = model_config(
        "bert", seq=int(os.environ.get("BENCH_CAND_SEQ", "4096"))
    )
    accel = edge()

    t0 = time.perf_counter()
    plan = plan_candidates(Objective.RUNTIME, cfg, Scope.LA, accel, SPACE)
    plan_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    n = len(list(enumerate_dataflows(cfg, accel, SPACE)))
    enum_s = time.perf_counter() - t0

    report_printer(
        f"plan: {len(plan.families)} families / {plan.total} candidates "
        f"in {plan_s * 1e6:.0f} us (grid expansion alone: "
        f"{enum_s * 1e6:.0f} us)"
    )
    assert plan.total == n
    assert plan_s < enum_s * 5, (
        "planning should be comparable to bare enumeration, it avoids "
        f"the per-candidate model entirely ({plan_s * 1e6:.0f} us vs "
        f"{enum_s * 1e6:.0f} us)"
    )
