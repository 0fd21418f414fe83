"""Unit tests for the DSE search engine (fast path, oracle, memos).

The load-bearing property is *equivalence*: whatever cache or warm
start the engine runs with, the best design point its branch-and-bound
fast path returns — dataflow identity, objective value and cost
breakdown — must match the exhaustive scalar oracle.  Everything else
(stats invariants, bound admissibility, cache behavior) supports that
guarantee.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.presets import cloud, edge
from repro.core.cache import default_cache_dir
from repro.core.configs import attacc
from repro.core.dataflow import AttentionVariant, Stationarity
from repro.core.dse import Objective, SearchSpace, enumerate_dataflows, search
from repro.core.engine import (
    EngineOptions,
    SearchStats,
    _CostStore,
    accelerator_fingerprint,
    clear_evaluation_cache,
    cycles_lower_bound,
    evaluation_cache_info,
    get_default_engine,
    objective_lower_bound,
    set_default_engine,
)
from repro.core.perf import PerfOptions, cost_scope
from repro.energy.tables import EnergyTable
from repro.models.configs import model_config, model_names
from repro.ops.attention import Scope

# NAIVE is the exhaustive scalar oracle with memoization off; FAST is
# the default engine: the branch-and-bound fast path, cached.
NAIVE = EngineOptions(cache_size=0, candidates=False)
FAST = EngineOptions(cache_size=8192)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Isolate every test from cross-test memoization."""
    clear_evaluation_cache()
    yield
    clear_evaluation_cache()


def _assert_same_best(a, b, objective=Objective.RUNTIME):
    assert a.best.dataflow == b.best.dataflow
    assert objective.score(a.best.cost, a.best.energy) == pytest.approx(
        objective.score(b.best.cost, b.best.energy)
    )


class TestEquivalence:
    """Engine vs naive serial sweep on fixed grids (acceptance criterion)."""

    def test_grid_edge_exhaustive_runtime(self, bert_512, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        naive = search(bert_512, edge_accel, scope=Scope.BLOCK,
                       space=space, engine=NAIVE)
        fast = search(bert_512, edge_accel, scope=Scope.BLOCK,
                      space=space, engine=FAST, retain_points=False)
        _assert_same_best(naive, fast)
        assert naive.best.cost.total_cycles == fast.best.cost.total_cycles

    def test_grid_cloud_la_runtime(self, bert_4k, cloud_accel):
        naive = search(bert_4k, cloud_accel, scope=Scope.LA, engine=NAIVE)
        fast = search(bert_4k, cloud_accel, scope=Scope.LA,
                      engine=FAST, retain_points=False)
        _assert_same_best(naive, fast)

    @pytest.mark.parametrize(
        "objective", [Objective.ENERGY, Objective.EDP, Objective.FOOTPRINT]
    )
    def test_every_objective_matches_naive(self, small_cfg, edge_accel,
                                           objective):
        naive = search(small_cfg, edge_accel, scope=Scope.LA,
                       objective=objective, engine=NAIVE,
                       retain_points=False)
        fast = search(small_cfg, edge_accel, scope=Scope.LA,
                      objective=objective, engine=FAST, retain_points=False)
        _assert_same_best(naive, fast, objective)
        assert fast.best.cost == naive.best.cost

    def test_cache_does_not_change_best(self, bert_512, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        naive = search(bert_512, edge_accel, space=space, engine=NAIVE)
        # Warm the cache under one objective, re-search under another:
        # hits seed the incumbent before any evaluation runs.
        search(bert_512, edge_accel, space=space, engine=FAST,
               retain_points=False)
        warm = search(bert_512, edge_accel, space=space, engine=FAST,
                      retain_points=False)
        _assert_same_best(naive, warm)
        assert warm.stats.cache_hits > 0


class TestFallbackBoundary:
    """Fast path vs oracle on both sides of the batch backend's
    float64-exactness guard (an L-A pair of 2**50 MACs or more).

    Past the guard ``evaluate_grid`` raises ``BatchFallback`` and the
    fast path scores the same members with the scalar model inside
    its branch-and-bound; below it the members are batch-scored.
    Either way the answer is the oracle's, and a repeat search is a
    winner-memo hit that never touches the batch backend.
    """

    # fig12b's cloud L-A workload (xlm) and the ATTACC policy's space.
    _POLICY = attacc()
    _SEQS = {"past-guard": 131072, "below-guard": 16384}

    def _search(self, seq, objective, engine):
        return search(
            model_config("xlm", seq=seq), cloud(), scope=Scope.LA,
            objective=objective, space=self._POLICY.space,
            options=self._POLICY.options, engine=engine,
            retain_points=False,
        )

    @pytest.fixture
    def grid_calls(self, monkeypatch):
        import repro.core.batch as batch

        calls = []
        original = batch.evaluate_grid

        def counting(*args, **kwargs):
            calls.append(len(args[3]))
            return original(*args, **kwargs)

        monkeypatch.setattr(batch, "evaluate_grid", counting)
        return calls

    @pytest.mark.parametrize("side", sorted(_SEQS))
    @pytest.mark.parametrize("objective", list(Objective))
    def test_fast_path_matches_oracle(self, side, objective, grid_calls):
        seq = self._SEQS[side]
        oracle = self._search(seq, objective, NAIVE)
        fast = self._search(seq, objective, FAST)
        assert fast.best.dataflow == oracle.best.dataflow
        assert objective.score(fast.best.cost, fast.best.energy) == (
            objective.score(oracle.best.cost, oracle.best.energy)
        )
        assert fast.best.cost == oracle.best.cost
        assert fast.best.energy == oracle.best.energy
        assert grid_calls, "the fast path never tried the batch backend"
        s = fast.stats
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated
        if side == "past-guard":
            assert s.batch_evaluations == 0
            assert s.evaluated > 1  # scored in place, not just the winner
        else:
            assert s.batch_evaluations > 0
        assert oracle.stats.batch_evaluations == 0
        assert oracle.stats.evaluated == oracle.stats.enumerated

    @pytest.mark.parametrize("objective", list(Objective))
    def test_repeat_fallback_search_is_a_memo_hit(self, objective,
                                                  grid_calls):
        seq = self._SEQS["past-guard"]
        first = self._search(seq, objective, FAST)
        # The fallback is latched: one refused grid call per search.
        assert len(grid_calls) == 1
        del grid_calls[:]
        second = self._search(seq, objective, FAST)
        assert second.best == first.best
        assert second.stats.evaluated == 0
        assert second.stats.batch_evaluations == 0
        assert second.stats.cache_hits == second.stats.enumerated
        assert grid_calls == []


class TestBounds:
    def test_cycles_bound_admissible_over_space(self, small_cfg, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        for scope in (Scope.LA, Scope.BLOCK):
            for df in enumerate_dataflows(small_cfg, edge_accel, space):
                lb = cycles_lower_bound(small_cfg, scope, edge_accel, df)
                actual = cost_scope(small_cfg, scope, edge_accel,
                                    df).total_cycles
                assert lb <= actual, (df.name, df.staging, scope)

    def test_cycles_bound_admissible_bandwidth_bound(self, bert_4k,
                                                     edge_accel):
        # Long sequence on the edge platform: the regime where the
        # traffic floor dominates and pruning actually fires.
        for df in enumerate_dataflows(bert_4k, edge_accel):
            lb = cycles_lower_bound(bert_4k, Scope.LA, edge_accel, df)
            actual = cost_scope(bert_4k, Scope.LA, edge_accel,
                                df).total_cycles
            assert lb <= actual, (df.name, df.staging)

    def test_footprint_objective_has_no_bound(self, small_cfg, edge_accel):
        df = next(iter(enumerate_dataflows(small_cfg, edge_accel)))
        assert objective_lower_bound(
            Objective.FOOTPRINT, small_cfg, Scope.LA, edge_accel, df
        ) is None

    def test_objective_bounds_positive(self, small_cfg, edge_accel):
        df = next(iter(enumerate_dataflows(small_cfg, edge_accel)))
        for objective in (Objective.RUNTIME, Objective.ENERGY,
                          Objective.EDP):
            lb = objective_lower_bound(
                objective, small_cfg, Scope.LA, edge_accel, df
            )
            assert lb is not None and lb > 0


class TestStats:
    def test_invariant_and_pruning_fires(self, bert_4k, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        res = search(bert_4k, edge_accel, scope=Scope.LA, space=space,
                     engine=FAST, retain_points=False)
        s = res.stats
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated
        assert s.pruned > 0
        assert s.wall_time_s > 0

    def test_no_pruning_when_points_retained(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, engine=FAST)  # retain default
        assert res.stats.pruned == 0
        assert len(res.points) == res.stats.enumerated

    def test_no_pruning_for_footprint(self, small_cfg, edge_accel):
        # FOOTPRINT has no cost bound: every family's bound is 0.0, so
        # no family is skipped on its bound.  The exact-tie gate alone
        # may skip families behind an earlier zero-footprint winner
        # (plain Base stages nothing), which cannot change the answer.
        res = search(small_cfg, edge_accel, objective=Objective.FOOTPRINT,
                     engine=FAST, retain_points=False)
        assert res.best.cost.max_footprint_bytes == 0
        staged = search(small_cfg, edge_accel,
                        objective=Objective.FOOTPRINT,
                        space=SearchSpace(include_plain_base=False),
                        engine=FAST, retain_points=False)
        assert staged.best.cost.max_footprint_bytes > 0
        assert staged.stats.families_pruned == 0
        assert staged.stats.candidates_skipped == 0
        assert staged.stats.candidates_generated == staged.stats.enumerated

    def test_repeat_search_is_all_cache_hits(self, small_cfg, edge_accel):
        first = search(small_cfg, edge_accel, engine=FAST,
                       retain_points=False)
        second = search(small_cfg, edge_accel, engine=FAST,
                        retain_points=False)
        assert second.best == first.best
        assert second.stats.cache_hits == second.stats.enumerated
        assert second.stats.evaluated == 0

    def test_cache_size_zero_disables_memoization(self, small_cfg,
                                                  edge_accel):
        search(small_cfg, edge_accel, engine=NAIVE)
        assert evaluation_cache_info()["entries"] == 0

    def test_stats_validation(self):
        from repro.core.engine import SearchStats

        with pytest.raises(ValueError):
            SearchStats(enumerated=3, evaluated=1, pruned=1, cache_hits=0,
                        wall_time_s=0.0)


class TestRetainPoints:
    def test_fast_path_returns_no_points(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, engine=FAST,
                     retain_points=False)
        assert res.points == ()
        assert res.best.energy is not None  # winner's energy still derived

    def test_retained_points_carry_energy(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, engine=FAST)
        assert res.points
        assert all(p.energy is not None for p in res.points)


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineOptions(cache_size=-1)

    def test_set_default_engine_roundtrip(self):
        previous = set_default_engine(EngineOptions(candidates=False))
        try:
            assert get_default_engine().candidates is False
        finally:
            set_default_engine(previous)


class TestFingerprint:
    def test_name_excluded(self, edge_accel):
        renamed = dataclasses.replace(edge_accel, name="other")
        assert accelerator_fingerprint(renamed) == accelerator_fingerprint(
            edge_accel
        )

    def test_scratchpad_included(self, edge_accel):
        resized = edge_accel.with_scratchpad_bytes(
            edge_accel.sg_bytes * 2
        )
        assert accelerator_fingerprint(resized) != accelerator_fingerprint(
            edge_accel
        )


class TestMemoBeforePlanning:
    """A winner-memo hit is answered before any bound is computed."""

    @staticmethod
    def _forbid_bounds(monkeypatch):
        import repro.core.candidates as candidates
        import repro.core.engine as engine

        def boom(*args, **kwargs):
            raise AssertionError("bound computed on a winner-memo hit")

        monkeypatch.setattr(engine, "objective_lower_bound", boom)
        monkeypatch.setattr(candidates, "family_lower_bound", boom)

    @pytest.mark.parametrize("objective", list(Objective))
    def test_repeat_search_computes_no_bound(self, small_cfg, edge_accel,
                                             objective, tmp_path,
                                             monkeypatch):
        def run():
            return search(small_cfg, edge_accel, objective=objective,
                          engine=FAST, retain_points=False)

        with default_cache_dir(str(tmp_path)):
            first = run()
            self._forbid_bounds(monkeypatch)
            from_lru = run()
            clear_evaluation_cache()
            from_disk = run()
        n = first.stats.enumerated
        for result, disk_hits in ((from_lru, 0), (from_disk, n)):
            assert (result.best, result.points, result.objective) == (
                first.best, (), objective)
            assert dataclasses.replace(result.stats, wall_time_s=0.0) == (
                SearchStats(enumerated=n, evaluated=0, pruned=0,
                            cache_hits=n, wall_time_s=0.0,
                            disk_hits=disk_hits))

    def test_miss_still_plans(self, small_cfg, edge_accel, monkeypatch):
        self._forbid_bounds(monkeypatch)
        with pytest.raises(AssertionError, match="bound computed"):
            search(small_cfg, edge_accel, objective=Objective.RUNTIME,
                   engine=FAST, retain_points=False)


_KEY_SPACES = (
    SearchSpace(),
    SearchSpace(exhaustive_staging=True,
                stationarities=tuple(Stationarity),
                variants=tuple(AttentionVariant)),
    attacc().space,
)


class TestKeyText:
    """The store's composed disk-key string is ``repr(key)`` exactly,
    so entry addresses and the on-disk format do not change."""

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(model_names()),
        seq=st.sampled_from([256, 512, 4096]),
        batch=st.integers(min_value=1, max_value=64),
        preset=st.sampled_from([edge, cloud]),
        options=st.builds(
            PerfOptions,
            flexible_mapping=st.booleans(),
            l2_reserve_fraction=st.floats(min_value=0.01, max_value=0.5),
            fused_warmup_credit=st.floats(min_value=0.0, max_value=1.0),
            spill_extra_pass_only=st.booleans(),
        ),
        scope=st.sampled_from(list(Scope)),
        space=st.sampled_from(_KEY_SPACES),
        objective=st.sampled_from(list(Objective)),
        energy_table=st.one_of(st.none(), st.builds(
            EnergyTable, pj_per_mac=st.floats(min_value=0.0,
                                              max_value=4.0))),
        data=st.data(),
    )
    def test_composed_key_equals_repr(self, model, seq, batch, preset,
                                      options, scope, space, objective,
                                      energy_table, data):
        cfg = model_config(model, seq=seq, batch=batch)
        accel = preset()
        store = _CostStore(cfg, scope, accel, options)
        dataflow = data.draw(st.sampled_from(
            list(enumerate_dataflows(cfg, accel, space))))
        key = store.key(dataflow)
        assert store.text(key) == repr(key)
        memo = store.memo_key(objective, energy_table, space)
        assert store.text(memo) == repr(memo)
