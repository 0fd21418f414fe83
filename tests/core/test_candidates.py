"""Tests for the analytic candidate-generation layer.

Two bars, matching :mod:`repro.core.candidates`'s contract:

* **Admissibility** — every family's analytic lower bound must sit at
  or below the true cost of every member of that family, and the
  feasible-row interval must agree with the Table 2 closed form it
  inverts.  Randomized (hypothesis) workloads and buffer sizes probe
  the closed forms off the presets.
* **Equivalence** — the generated front end must return the *same
  bytes* as the exhaustive oracle: identical winner, identical cost,
  with the exhaustive winner never bound-pruned (not even by the
  enumeration-order tie gate).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.presets import cloud, edge
from repro.core.candidates import (
    Incumbent,
    family_layout,
    family_lower_bound,
    family_representative,
    feasible_row_interval,
    locate_candidate,
    make_incumbent,
    plan_candidates,
)
from repro.core.dataflow import Granularity, flat_r
from repro.core.dse import (
    Objective,
    SearchSpace,
    enumerate_dataflows,
    enumerate_families,
    expand_family,
    family_size,
    search,
)
from repro.core.engine import (
    _BOUND_SLACK,
    EngineOptions,
    clear_evaluation_cache,
    default_warm_start,
)
from repro.core.footprint import footprint_r_gran
from repro.core.perf import PerfOptions, cost_scope, partition_scratchpad
from repro.ops.attention import AttentionConfig, Scope

CANDIDATES = EngineOptions(cache_size=4096)
EXHAUSTIVE = EngineOptions(cache_size=4096, candidates=False)  # the oracle

SPACES = {
    "default": SearchSpace(),
    "exhaustive-staging": SearchSpace(exhaustive_staging=True),
    "fused-only": SearchSpace(allow_fused=True, allow_unfused=False,
                              include_plain_base=False),
    "unfused-only": SearchSpace(
        allow_fused=False,
        granularities=(Granularity.M, Granularity.B, Granularity.H),
    ),
}


def _small_cfg(batch=2, heads=4, d_head=16, seq=64):
    return AttentionConfig(
        name="cand", batch=batch, heads=heads, d_model=heads * d_head,
        seq_q=seq, seq_kv=seq, d_ff=4 * heads * d_head,
    )


workloads = st.builds(
    _small_cfg,
    batch=st.integers(min_value=1, max_value=8),
    heads=st.integers(min_value=1, max_value=4),
    d_head=st.sampled_from([16, 32]),
    seq=st.sampled_from([32, 64, 256]),
)
buffer_kb = st.sampled_from([20, 64, 512, 4096, 65536])


class TestPlanStructure:
    """The plan must mirror the exhaustive enumeration exactly."""

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_families_concatenate_to_enumeration(self, bert_512,
                                                 edge_accel, name):
        space = SPACES[name]
        flat = [
            df
            for fam in enumerate_families(bert_512, space)
            for df in expand_family(bert_512, fam, space)
        ]
        assert flat == list(
            enumerate_dataflows(bert_512, edge_accel, space)
        )

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_family_size_matches_expansion(self, bert_512, name):
        space = SPACES[name]
        for fam in enumerate_families(bert_512, space):
            assert family_size(fam, space) == len(
                list(expand_family(bert_512, fam, space))
            )

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_representative_is_first_member(self, bert_512, name):
        """The branch-and-bound scores ``offsets[fi]`` as the rep —
        the representative must be member 0 of every expansion."""
        space = SPACES[name]
        for fam in enumerate_families(bert_512, space):
            first = next(iter(expand_family(bert_512, fam, space)))
            assert family_representative(fam, space) == first

    def test_offsets_are_prefix_sums(self, bert_512, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        plan = plan_candidates(Objective.RUNTIME, bert_512, Scope.LA,
                               edge_accel, space)
        total = 0
        for size, offset in zip(plan.sizes, plan.offsets):
            assert offset == total
            total += size
        assert plan.total == total == len(
            list(enumerate_dataflows(bert_512, edge_accel, space))
        )

    def test_order_is_best_bound_first(self, bert_512, edge_accel):
        plan = plan_candidates(Objective.RUNTIME, bert_512, Scope.LA,
                               edge_accel)
        keys = [(plan.bounds[i], i) for i in plan.order]
        assert keys == sorted(keys)
        assert sorted(plan.order) == list(range(len(plan.families)))

    def test_footprint_objective_rejected(self, bert_512, edge_accel):
        """FOOTPRINT has no per-family cost bound; the plan gives
        every family the trivial bound 0.0 instead."""
        fam = next(iter(enumerate_families(bert_512, SearchSpace())))
        with pytest.raises(ValueError):
            family_lower_bound(Objective.FOOTPRINT, bert_512, Scope.LA,
                               edge_accel, fam)
        plan = plan_candidates(Objective.FOOTPRINT, bert_512, Scope.LA,
                               edge_accel)
        assert plan.bounds == (0.0,) * len(plan.families)
        assert plan.order == tuple(range(len(plan.families)))


class TestFamilyLayout:
    """The bound-free layout the winner memo is checked against."""

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_layout_is_the_plan_without_bounds(self, bert_512, edge_accel,
                                               name):
        space = SPACES[name]
        layout = family_layout(bert_512, space)
        plan = plan_candidates(Objective.RUNTIME, bert_512, Scope.LA,
                               edge_accel, space)
        assert (layout.families, layout.sizes, layout.offsets,
                layout.total) == (plan.families, plan.sizes, plan.offsets,
                                  plan.total)
        given = plan_candidates(Objective.RUNTIME, bert_512, Scope.LA,
                                edge_accel, space, layout=layout)
        assert given == plan

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_locate_matches_enumeration(self, bert_512, edge_accel, name):
        space = SPACES[name]
        layout = family_layout(bert_512, space)
        flat = list(enumerate_dataflows(bert_512, edge_accel, space))
        for index, df in enumerate(flat):
            fi, j = layout.locate(index)
            members = list(expand_family(bert_512, layout.families[fi],
                                         space))
            assert members[j] == df
        for bad in (-1, layout.total):
            with pytest.raises(IndexError):
                layout.locate(bad)

    def test_memo_miss_enumerates_families_once(self, bert_512, edge_accel,
                                                monkeypatch):
        import repro.core.candidates as candidates

        calls = []
        original = candidates.enumerate_families

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(candidates, "enumerate_families", counting)
        clear_evaluation_cache()
        result = search(bert_512, edge_accel, engine=CANDIDATES,
                        retain_points=False)
        assert result.stats.cache_hits == 0  # a cold miss, fully planned
        assert len(calls) == 1

        # A warm-started miss locates its seed in the same layout.
        seed = make_incumbent(result, Scope.LA, edge_accel)
        calls.clear()
        clear_evaluation_cache()
        seeded = search(bert_512, edge_accel, engine=CANDIDATES,
                        retain_points=False, warm_start=seed)
        assert seeded.best == result.best
        assert len(calls) == 1


class TestLocate:
    def test_every_member_found_at_its_index(self, bert_512):
        space = SearchSpace()
        for i, df in enumerate(
            enumerate_dataflows(bert_512, edge(), space)
        ):
            assert locate_candidate(bert_512, space, df) == i

    def test_foreign_row_count_absent(self, bert_512):
        assert locate_candidate(bert_512, SearchSpace(), flat_r(3)) is None


class TestIntervalInversion:
    @settings(max_examples=30, deadline=None)
    @given(cfg=workloads, kb=buffer_kb)
    def test_interval_matches_closed_form(self, cfg, kb):
        accel = edge().with_scratchpad_bytes(kb * 1024)
        options = PerfOptions()
        lo, hi = feasible_row_interval(cfg, accel, options)
        assert lo == 1
        assert hi <= cfg.seq_q
        e = accel.bytes_per_element
        budget = partition_scratchpad(1, True, accel, options)
        budget_elements = budget.staging_budget_bytes // e
        if hi >= 1:
            assert footprint_r_gran(hi, cfg.seq_kv,
                                    cfg.d_head) <= budget_elements
        if hi < cfg.seq_q:
            assert footprint_r_gran(hi + 1, cfg.seq_kv,
                                    cfg.d_head) > budget_elements


class TestBoundAdmissibility:
    """bound(family) <= true cost of every member, always."""

    @settings(max_examples=25, deadline=None)
    @given(cfg=workloads, kb=buffer_kb)
    def test_runtime_bounds_admissible(self, cfg, kb):
        accel = edge().with_scratchpad_bytes(kb * 1024)
        space = SearchSpace()
        for fam in enumerate_families(cfg, space):
            bound = family_lower_bound(Objective.RUNTIME, cfg, Scope.LA,
                                       accel, fam, space)
            for df in expand_family(cfg, fam, space):
                value = cost_scope(cfg, Scope.LA, accel, df).total_cycles
                assert bound <= value, (fam, df.name, bound, value)

    def test_exhaustive_staging_bounds_admissible(self, edge_accel):
        cfg = _small_cfg(seq=64)
        space = SearchSpace(exhaustive_staging=True)
        for fam in enumerate_families(cfg, space):
            bound = family_lower_bound(Objective.RUNTIME, cfg, Scope.LA,
                                       accel=edge_accel, family=fam,
                                       space=space)
            for df in expand_family(cfg, fam, space):
                value = cost_scope(cfg, Scope.LA, edge_accel,
                                   df).total_cycles
                assert bound <= value, (fam, df.name, bound, value)

    def test_block_scope_bounds_admissible(self, edge_accel):
        cfg = _small_cfg(seq=64)
        space = SearchSpace()
        for fam in enumerate_families(cfg, space):
            bound = family_lower_bound(Objective.RUNTIME, cfg,
                                       Scope.BLOCK, edge_accel, fam,
                                       space)
            for df in expand_family(cfg, fam, space):
                value = cost_scope(cfg, Scope.BLOCK, edge_accel,
                                   df).total_cycles
                assert bound <= value, (fam, df.name, bound, value)

    @settings(max_examples=15, deadline=None)
    @given(cfg=workloads, kb=buffer_kb)
    def test_winner_never_pruned(self, cfg, kb):
        """The exhaustive winner's family survives both gates: its
        bound can never exceed the optimum, and the tie gate cannot
        fire against it (the family offset is <= the winner index)."""
        accel = edge().with_scratchpad_bytes(kb * 1024)
        space = SearchSpace()
        plan = plan_candidates(Objective.RUNTIME, cfg, Scope.LA, accel,
                               space)
        best_value, best_index = None, None
        for i, df in enumerate(enumerate_dataflows(cfg, accel, space)):
            value = cost_scope(cfg, Scope.LA, accel, df).total_cycles
            if best_value is None or value < best_value:
                best_value, best_index = value, i
        fi = max(
            i for i in range(len(plan.families))
            if plan.offsets[i] <= best_index
        )
        assert plan.bounds[fi] <= best_value
        assert plan.offsets[fi] <= best_index
        gated = plan.bounds[fi] > best_value or (
            plan.bounds[fi] >= best_value * _BOUND_SLACK
            and plan.offsets[fi] > best_index
        )
        assert not gated


class TestSearchEquivalence:
    """Generated and exhaustive front ends must agree to the byte."""

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_same_winner_all_spaces(self, edge_accel, name):
        cfg = _small_cfg(seq=64)
        clear_evaluation_cache()
        slow = search(cfg, edge_accel, scope=Scope.LA, space=SPACES[name],
                      engine=EXHAUSTIVE, retain_points=False)
        clear_evaluation_cache()
        fast = search(cfg, edge_accel, scope=Scope.LA, space=SPACES[name],
                      engine=CANDIDATES, retain_points=False)
        assert fast.best.dataflow == slow.best.dataflow
        assert fast.best.cost == slow.best.cost
        assert fast.best.energy == slow.best.energy

    @settings(max_examples=12, deadline=None)
    @given(cfg=workloads, kb=buffer_kb)
    def test_same_winner_randomized(self, cfg, kb):
        accel = edge().with_scratchpad_bytes(kb * 1024)
        clear_evaluation_cache()
        slow = search(cfg, accel, scope=Scope.LA, engine=EXHAUSTIVE,
                      retain_points=False)
        clear_evaluation_cache()
        fast = search(cfg, accel, scope=Scope.LA, engine=CANDIDATES,
                      retain_points=False)
        assert fast.best.dataflow == slow.best.dataflow
        assert fast.best.cost == slow.best.cost

    def test_objectives_agree(self, small_cfg, edge_accel):
        for objective in (Objective.RUNTIME, Objective.ENERGY,
                          Objective.EDP):
            clear_evaluation_cache()
            slow = search(small_cfg, edge_accel, objective=objective,
                          engine=EXHAUSTIVE, retain_points=False)
            clear_evaluation_cache()
            fast = search(small_cfg, edge_accel, objective=objective,
                          engine=CANDIDATES, retain_points=False)
            assert fast.best.dataflow == slow.best.dataflow
            assert fast.best.cost == slow.best.cost

    def test_footprint_objective_uses_exhaustive_path(self, small_cfg,
                                                      edge_accel):
        """FOOTPRINT has no bound: the fast path agrees with the
        oracle, and skips no family unless an earlier winner ties the
        trivial 0.0 bound exactly (plain Base stages nothing)."""
        for space in (SearchSpace(), SearchSpace(include_plain_base=False)):
            clear_evaluation_cache()
            slow = search(small_cfg, edge_accel,
                          objective=Objective.FOOTPRINT, space=space,
                          engine=EXHAUSTIVE, retain_points=False)
            clear_evaluation_cache()
            res = search(small_cfg, edge_accel,
                         objective=Objective.FOOTPRINT, space=space,
                         engine=CANDIDATES, retain_points=False)
            assert res.best.dataflow == slow.best.dataflow
            assert res.best.cost == slow.best.cost
            if res.best.cost.max_footprint_bytes > 0:
                assert res.stats.families_pruned == 0
                assert res.stats.candidates_generated == (
                    res.stats.enumerated
                )

    def test_stats_ledger_balances(self, small_cfg, edge_accel):
        clear_evaluation_cache()
        res = search(small_cfg, edge_accel, engine=CANDIDATES,
                     retain_points=False)
        s = res.stats
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated
        assert s.candidates_generated + s.candidates_skipped == s.enumerated
        assert s.candidates_skipped <= s.pruned


class TestWarmStart:
    """Warm starts change the amount of work, never the answer."""

    def _sweep(self, cfg, accel, sizes, warm):
        results = []
        incumbent = None
        for size in sizes:
            sized = accel.with_scratchpad_bytes(size)
            res = search(cfg, sized, scope=Scope.LA, engine=CANDIDATES,
                         retain_points=False,
                         warm_start=incumbent if warm else None)
            if warm:
                incumbent = make_incumbent(res, Scope.LA, sized)
            results.append(res)
        return results

    def test_warm_sweep_bit_identical_to_cold(self, edge_accel):
        cfg = _small_cfg(seq=256)
        sizes = [20 * 1024, 128 * 1024, 512 * 1024, 4096 * 1024]
        clear_evaluation_cache()
        cold = self._sweep(cfg, edge_accel, sizes, warm=False)
        clear_evaluation_cache()
        warm = self._sweep(cfg, edge_accel, sizes, warm=True)
        for c, w in zip(cold, warm):
            assert w.best.dataflow == c.best.dataflow
            assert w.best.cost == c.best.cost
            assert w.best.energy == c.best.energy

    def test_stale_incumbent_is_reevaluated(self, edge_accel,
                                            cloud_accel):
        """A seed from another accelerator (with a poisoned carried
        value) must be re-scored under the current one — the result
        cannot depend on the stale value."""
        cfg = _small_cfg(seq=64)
        clear_evaluation_cache()
        donor = search(cfg, cloud_accel, scope=Scope.LA,
                       engine=CANDIDATES, retain_points=False)
        stale = Incumbent(
            dataflow=donor.best.dataflow, objective=Objective.RUNTIME,
            scope=Scope.LA, options=PerfOptions(), value=0.0,
        )
        clear_evaluation_cache()
        baseline = search(cfg, edge_accel, scope=Scope.LA,
                          engine=CANDIDATES, retain_points=False)
        clear_evaluation_cache()
        seeded = search(cfg, edge_accel, scope=Scope.LA,
                        engine=CANDIDATES, retain_points=False,
                        warm_start=stale)
        assert seeded.best.dataflow == baseline.best.dataflow
        assert seeded.best.cost == baseline.best.cost

    @pytest.mark.parametrize(
        "mutate",
        [
            dict(objective=Objective.ENERGY),
            dict(scope=Scope.BLOCK),
            dict(options=PerfOptions(l2_reserve_fraction=0.25)),
            dict(dataflow=flat_r(3)),  # rows outside the ladder
        ],
        ids=["objective", "scope", "options", "not-in-space"],
    )
    def test_mismatched_incumbent_rejected(self, edge_accel, mutate):
        import repro.obs as obs

        cfg = _small_cfg(seq=64)
        clear_evaluation_cache()
        donor = search(cfg, edge_accel, scope=Scope.LA,
                       engine=CANDIDATES, retain_points=False)
        fields = dict(
            dataflow=donor.best.dataflow, objective=Objective.RUNTIME,
            scope=Scope.LA, options=PerfOptions(),
        )
        fields.update(mutate)
        bad = Incumbent(**fields)
        clear_evaluation_cache()
        baseline = search(cfg, edge_accel, scope=Scope.LA,
                          engine=CANDIDATES, retain_points=False)
        clear_evaluation_cache()
        with obs.observed() as session:
            seeded = search(cfg, edge_accel, scope=Scope.LA,
                            engine=CANDIDATES, retain_points=False,
                            warm_start=bad)
            snap = session.registry.snapshot()
        assert snap["engine.warm_start.rejected"]["value"] == 1
        assert seeded.best.dataflow == baseline.best.dataflow
        assert seeded.best.cost == baseline.best.cost

    def test_buffer_sweep_warm_flag_is_invisible(self, edge_accel):
        """The sweep helper's warm-start wiring must not change a
        single point of the produced curves."""
        from repro.analysis.utilization import buffer_sweep

        cfg = _small_cfg(seq=64)
        spaces = {"opt": SearchSpace()}
        sizes = (20 * 1024, 512 * 1024, 4096 * 1024)
        clear_evaluation_cache()
        cold = buffer_sweep(cfg, Scope.LA, edge_accel, [], sizes,
                            dse_spaces=spaces)
        clear_evaluation_cache()
        with default_warm_start(True):
            warm = buffer_sweep(cfg, Scope.LA, edge_accel, [], sizes,
                                dse_spaces=spaces)
        assert warm == cold

    def test_memo_hit_short_circuits_repeat_search(self, small_cfg,
                                                   edge_accel):
        clear_evaluation_cache()
        first = search(small_cfg, edge_accel, engine=CANDIDATES,
                       retain_points=False)
        second = search(small_cfg, edge_accel, engine=CANDIDATES,
                        retain_points=False)
        assert second.best.dataflow == first.best.dataflow
        assert second.stats.batch_evaluations == 0
        assert second.stats.candidates_generated == 0
