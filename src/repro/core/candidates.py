"""Analytic candidate generation for the DSE engine (ROADMAP item 2).

The engine's historical front end enumerated the full dataflow grid
(~thousands of points per search) and let bounds/batch scoring discard
~99.8% of it.  This module moves that discard *before* generation:
FLAT's closed-form footprint and intensity formulas (paper Tables 1-2;
:mod:`repro.core.footprint`, :mod:`repro.ops.intensity`) make both tile
feasibility and win-ability analytically decidable per *family* of
candidates, so whole families are expanded only if they can still beat
the incumbent.

Three pieces:

* **Family planning** — :func:`family_layout` lists the space as
  :class:`~repro.core.dse.DataflowFamily` units (stationarity x
  granularity x row count), each sized and offset against the global
  enumeration order without expanding anything or computing a bound
  (all a winner-memo hit needs); :func:`plan_candidates` then bounds
  each family by its cheapest *representative member* (see
  :func:`family_representative`): fully staged, unfused where the
  space allows it.  Representative bounds are admissible for every
  member — staging can only add traffic floors, fusion can only add
  serialized spill terms, and the compute floor is shared family-wide —
  so a family whose bound exceeds the incumbent provably contains no
  winner.
* **Footprint inversion** (:func:`feasible_row_interval`) — Table 2's
  R-granularity footprint is affine in the row count, so the largest
  fully resident FLAT-R tile for a given buffer is exact integer
  arithmetic (:func:`repro.core.footprint.invert_r_gran_rows`) instead
  of trial evaluation.  The plan reports the interval; row families
  inside it have a zero spill term in their bound by construction.
* **Warm starts** (:class:`Incumbent`) — a sweep driver hands the
  neighboring point's winner to the next search.  The incumbent is a
  *hint, never a value*: the engine re-evaluates the seed dataflow
  under the current config/accelerator before using it, so a stale
  incumbent (different buffer size, different platform) can change the
  amount of work but never the result.

Everything here is deterministic and feeds cached evaluations, so this
module is covered by the R3 determinism lint and the disk cache's
source fingerprint (see :mod:`repro.lint.contracts`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arch.accelerator import Accelerator
from repro.core.dataflow import (
    AttentionVariant,
    Dataflow,
    Granularity,
    StagingPolicy,
    base,
    base_x,
    flat_r,
    flat_x,
)
from repro.core.dse import (
    DataflowFamily,
    Objective,
    SearchSpace,
    enumerate_families,
    expand_family,
    family_size,
)
from repro.core.footprint import invert_r_gran_rows
from repro.core.perf import PerfOptions, partition_scratchpad
from repro.energy.tables import EnergyTable
from repro.ops.attention import AttentionConfig, Scope

__all__ = [
    "Incumbent",
    "make_incumbent",
    "FamilyLayout",
    "family_layout",
    "CandidatePlan",
    "plan_candidates",
    "family_representative",
    "family_lower_bound",
    "feasible_row_interval",
    "locate_candidate",
]


@dataclass(frozen=True)
class Incumbent:
    """A previous search's winner, offered as a warm start.

    Carries the winning *dataflow* plus the search identity it was won
    under.  ``objective``, ``scope`` and ``options`` must match the
    receiving search exactly (a winner under another objective proves
    nothing here) — the engine rejects mismatches.  The config and
    accelerator deliberately need *not* match: neighbor-seeding across
    a buffer-size or sequence-length sweep is the whole point, and the
    engine re-evaluates the dataflow under its own config/accelerator.

    ``value`` and ``accel_fingerprint`` are informational (provenance
    for logs and tests).  The engine never reads ``value`` — a
    poisoned or stale value cannot leak into a search result.
    """

    dataflow: Dataflow
    objective: Objective
    scope: Scope
    options: PerfOptions
    accel_fingerprint: Optional[tuple] = None
    value: Optional[float] = None


def make_incumbent(
    result,
    scope: Scope,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> Incumbent:
    """Build an :class:`Incumbent` from a finished search's result.

    ``result`` is the :class:`~repro.core.dse.DSEResult` of the search
    that just ran with the same ``scope``/``options`` on ``accel``.
    """
    from repro.core.engine import accelerator_fingerprint

    return Incumbent(
        dataflow=result.best.dataflow,
        objective=result.objective,
        scope=scope,
        options=options,
        accel_fingerprint=accelerator_fingerprint(accel),
        value=result.objective.score(result.best.cost, result.best.energy),
    )


def family_representative(
    family: DataflowFamily, space: SearchSpace = SearchSpace()
) -> Dataflow:
    """The member whose bound lower-bounds the whole family.

    Fully enabled staging minimizes every traffic floor the bound
    charges (staged K/V stream once instead of once per row pass; the
    staged intermediate spills only its non-fitting fraction), and for
    M/B/H families the unfused variant is used whenever the space
    allows it (the unfused serialized-softmax term is never larger
    than the fused one).  The compute floor is identical across a
    family — it depends only on stationarity, granularity and row
    count, which the family fixes.  Hence ``bound(representative) <=
    bound(member) <= cost(member)`` for every member.

    A family carrying a non-default attention variant contains only
    fused members that all share the variant's (weakly smaller) serial
    softmax term, so its representative is the fused all-staged member
    with that variant — which is also member 0 of its expansion, the
    invariant the engine's representative round depends on.
    """
    stat = family.stationarity
    if family.granularity is None:
        return base(stationarity=stat)
    staging = StagingPolicy.all_enabled()
    if family.granularity is Granularity.R:
        return flat_r(family.rows, staging=staging, stationarity=stat,
                      variant=family.variant)
    if family.variant is not AttentionVariant.SOFTMAX:
        return flat_x(family.granularity, staging=staging,
                      stationarity=stat, variant=family.variant)
    if space.allow_unfused:
        return base_x(family.granularity, staging=staging,
                      stationarity=stat)
    return flat_x(family.granularity, staging=staging, stationarity=stat)


def family_lower_bound(
    objective: Objective,
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    family: DataflowFamily,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
    energy_table: Optional[EnergyTable] = None,
) -> float:
    """Admissible objective lower bound for every member of a family.

    Evaluates the engine's per-candidate bound
    (:func:`repro.core.engine.objective_lower_bound`) on the family's
    representative; see :func:`family_representative` for why that
    bounds all members.  The bound is told whether the family can
    contain fused members (its warm-up credit and SG floor depend on
    it; a plain-Base family never fuses, a row family always does, and
    an M/B/H family fuses exactly when the space allows fusion).
    ``FOOTPRINT`` has no bound and is rejected.
    """
    from repro.core.engine import objective_lower_bound

    fused_in_family = (
        family.granularity is not None and space.allow_fused
    )
    bound = objective_lower_bound(
        objective, cfg, scope, accel,
        family_representative(family, space), options, energy_table,
        fused_in_family=fused_in_family,
    )
    if bound is None:
        raise ValueError("FOOTPRINT objective has no candidate bound")
    return bound


def feasible_row_interval(
    cfg: AttentionConfig,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> Tuple[int, int]:
    """Rows ``(lo, hi)`` whose all-enabled FLAT-R tile is fully resident.

    Inverts the Table 2 closed form against the model's own staging
    budget (:func:`repro.core.perf.partition_scratchpad` — the budget
    is independent of the tile's footprint, so the inversion is exact):
    for every ``r`` in the interval, ``footprint_r_gran(r, N, dk)``
    fits the staging region entirely and the bound's intermediate
    spill term is zero by construction.  Returns ``(1, 0)`` (an empty
    interval) when not even one staged row fits; the upper end is
    capped at the sequence length, past which R granularity degenerates.
    """
    e = accel.bytes_per_element
    # The staging budget does not depend on the footprint argument; any
    # positive sentinel selects the staging-active partition.
    budget = partition_scratchpad(1, True, accel, options)
    budget_elements = budget.staging_budget_bytes // e
    hi = invert_r_gran_rows(budget_elements, cfg.seq_kv, cfg.d_head)
    return 1, min(hi, cfg.seq_q)


@dataclass(frozen=True)
class FamilyLayout:
    """A search space as families, sizes and offsets — no bounds.

    ``offsets[i]`` is the global enumeration index of family ``i``'s
    first member (prefix sums of ``sizes``), so a family's members are
    exactly the index range ``[offsets[i], offsets[i] + sizes[i])`` of
    :func:`repro.core.dse.enumerate_dataflows` — nothing is expanded
    to know that.  ``total`` is the size of the whole space.
    """

    families: Tuple[DataflowFamily, ...]
    sizes: Tuple[int, ...]
    offsets: Tuple[int, ...]
    total: int

    def locate(self, index: int) -> Tuple[int, int]:
        """``(family position, member position)`` of a global index.

        Empty families share their successor's offset; the last family
        starting at or before ``index`` is the one that holds it.
        """
        if not 0 <= index < self.total:
            raise IndexError(f"candidate index {index} outside "
                             f"[0, {self.total})")
        fi = bisect_right(self.offsets, index) - 1
        return fi, index - self.offsets[fi]


def family_layout(
    cfg: AttentionConfig, space: SearchSpace = SearchSpace()
) -> FamilyLayout:
    """Enumerate the space's families once, with sizes and offsets."""
    families = tuple(enumerate_families(cfg, space))
    sizes = tuple(family_size(f, space) for f in families)
    offsets: List[int] = []
    total = 0
    for size in sizes:
        offsets.append(total)
        total += size
    return FamilyLayout(families=families, sizes=sizes,
                        offsets=tuple(offsets), total=total)


@dataclass(frozen=True)
class CandidatePlan(FamilyLayout):
    """A planned search: the :class:`FamilyLayout` plus bounds and order.

    ``order`` lists family positions best-bound-first (ties by
    position, keeping the plan deterministic); ``resident_rows`` is the
    :func:`feasible_row_interval` the bounds already incorporate,
    reported for observability and tests.
    """

    bounds: Tuple[float, ...]
    order: Tuple[int, ...]
    resident_rows: Tuple[int, int]


def plan_candidates(
    objective: Objective,
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
    energy_table: Optional[EnergyTable] = None,
    layout: Optional[FamilyLayout] = None,
) -> CandidatePlan:
    """Plan a search without expanding a single candidate.

    Cost: one :func:`family_lower_bound` per family — a handful of
    closed-form evaluations, orders of magnitude below expanding and
    screening the full grid.  ``FOOTPRINT`` has no cost bound: every
    family gets the trivial bound ``0.0``, so no family is skipped on
    its bound.  ``layout`` is :func:`family_layout` of the same
    ``cfg``/``space`` when the caller already built it; the families
    are then not enumerated again.
    """
    if layout is None:
        layout = family_layout(cfg, space)
    families = layout.families
    if objective is Objective.FOOTPRINT:
        bounds = (0.0,) * len(families)
    else:
        bounds = tuple(
            family_lower_bound(objective, cfg, scope, accel, f, space,
                               options, energy_table)
            for f in families
        )
    order = tuple(
        sorted(range(len(families)), key=lambda i: (bounds[i], i))
    )
    return CandidatePlan(
        families=families,
        sizes=layout.sizes,
        offsets=layout.offsets,
        total=layout.total,
        bounds=bounds,
        order=order,
        resident_rows=feasible_row_interval(cfg, accel, options),
    )


def locate_candidate(
    cfg: AttentionConfig,
    space: SearchSpace,
    dataflow: Dataflow,
    layout: Optional[FamilyLayout] = None,
) -> Optional[int]:
    """Global enumeration index of ``dataflow``, or ``None`` if absent.

    Expands only the family the dataflow would belong to (everything a
    family fixes is readable off the dataflow itself), so membership
    costs one family expansion, not a grid enumeration.  Equality is
    full dataclass equality — a hand-built dataflow with non-default
    tiles or a foreign row count is simply not in the space.
    ``layout`` is :func:`family_layout` of the same ``cfg``/``space``
    when the caller already built it; the families are then not
    enumerated again.
    """
    rows: Optional[int] = (
        dataflow.rows if dataflow.granularity is Granularity.R else None
    )
    target = DataflowFamily(dataflow.stationarity, dataflow.granularity,
                            rows, dataflow.variant)
    if layout is None:
        layout = family_layout(cfg, space)
    try:
        fi = layout.families.index(target)
    except ValueError:
        return None
    for j, member in enumerate(expand_family(cfg, target, space)):
        if member == dataflow:
            return layout.offsets[fi] + j
    return None
