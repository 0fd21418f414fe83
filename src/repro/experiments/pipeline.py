"""Parallel experiment pipeline: run the registry as independent jobs.

The registry in :mod:`repro.experiments.runner` defines ~22 independent
experiments; ``reproduce.sh`` and the CLI used to run them one after
another in a single process.  This module schedules any subset of them
across a pool of worker processes — experiments are the unit of
parallelism (the DSE engine inside each is serial), and
the persistent evaluation cache (:mod:`repro.core.cache`) is the shared
substrate underneath: workers exploring overlapping grids reuse each
other's evaluations through disk, and a second run of the whole suite
starts warm.

Every experiment reports its wall time, its accumulated
:class:`~repro.core.engine.SearchStats` totals and the persistent-cache
traffic it generated; :func:`write_manifest` persists the reports plus
a JSON manifest of those numbers so runs can be compared byte-for-byte
(the report text is deterministic — serial, parallel and warm-cache
runs all produce identical bytes).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.core.cache import (
    cost_model_fingerprint,
    default_cache_dir,
    get_default_cache,
    resolve_cache_dir,
)
from repro.core.engine import scoped_search_totals, search_totals
from repro.experiments.runner import (
    experiment_names,
    run_experiment,
)

__all__ = [
    "ExperimentRun",
    "PipelineResult",
    "run_pipeline",
    "run_pipeline_via_server",
    "write_manifest",
    "MANIFEST_SCHEMA",
]

MANIFEST_SCHEMA = "repro-pipeline-manifest/1"

#: Signature of the progress callback: (finished run, done count, total).
ProgressFn = Callable[["ExperimentRun", int, int], None]


@dataclass(frozen=True)
class ExperimentRun:
    """Outcome of one experiment job.

    ``trace``/``metrics`` are the job's observability payload — span
    events and a metrics snapshot a pool worker recorded locally and
    ships home through this (picklable) channel.  Both stay empty when
    tracing is off, and for in-process execution (``workers=1``), where
    events land directly in the caller's session.
    """

    name: str
    status: str  # "ok" | "error"
    report: str  # report text, or the error message on failure
    wall_time_s: float
    search: Dict[str, float]  # accumulated SearchStats totals
    cache: Dict[str, int]  # persistent-cache traffic of this job
    trace: Tuple[Dict[str, object], ...] = ()
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def report_sha256(self) -> str:
        return hashlib.sha256(self.report.encode()).hexdigest()


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one :func:`run_pipeline` call (runs in request order)."""

    runs: Tuple[ExperimentRun, ...]
    wall_time_s: float
    workers: int
    cache_dir: Optional[str]

    @property
    def failures(self) -> Tuple[ExperimentRun, ...]:
        return tuple(r for r in self.runs if not r.ok)

    def aggregate_search(self) -> Dict[str, float]:
        """Summed DSE work accounting over every experiment."""
        totals: Dict[str, float] = {}
        for run in self.runs:
            for field, value in run.search.items():
                totals[field] = totals.get(field, 0) + value
        return totals

    def aggregate_cache(self) -> Dict[str, int]:
        """Summed persistent-cache traffic over every experiment."""
        totals: Dict[str, int] = {}
        for run in self.runs:
            for field, value in run.cache.items():
                totals[field] = totals.get(field, 0) + value
        return totals


def _execute(name: str,
             cache_dir: Optional[str],
             trace: bool = False,
             candidates: Optional[bool] = None,
             warm_start: Optional[bool] = None,
             scaleout_exhaustive: Optional[bool] = None) -> ExperimentRun:
    """Run one experiment; importable at top level so pools can pickle it.

    ``cache_dir``, the engine knobs (``candidates``, ``warm_start``,
    ``scaleout_exhaustive``) and ``trace`` are threaded explicitly (not
    inherited) so the pipeline behaves identically under fork and spawn
    start methods.  The search-totals accumulator is scoped: measuring
    this experiment's DSE work leaves the caller's totals untouched.
    """
    ship_obs = False
    if trace:
        # A forked worker inherits the parent's enabled session; adopt
        # a fresh local one (spawned workers start without any).  Both
        # ship their events home; the in-process path (workers=1)
        # records straight into the caller's session and ships nothing.
        ship_obs = obs.adopt_local()
        if not ship_obs and obs.session() is None:
            obs.enable()
            ship_obs = True
    with default_cache_dir(cache_dir), scoped_search_totals():
        pcache = get_default_cache()
        cache_before = pcache.stats.copy() if pcache is not None else None
        start = time.perf_counter()
        try:
            report = run_experiment(name, candidates=candidates,
                                    warm_start=warm_start,
                                    scaleout_exhaustive=scaleout_exhaustive)
            status = "ok"
        except Exception as exc:  # noqa: BLE001 - one job must not kill the run
            report = f"{type(exc).__name__}: {exc}"
            status = "error"
        wall = time.perf_counter() - start
        cache_stats = (
            (pcache.stats - cache_before).as_dict()
            if pcache is not None else {}
        )
        search = search_totals()
    trace_events: Tuple[Dict[str, object], ...] = ()
    metrics_snapshot: Dict[str, Dict[str, object]] = {}
    if ship_obs:
        session = obs.session()
        if session is not None:
            trace_events = tuple(session.drain_events())
            metrics_snapshot = session.registry.snapshot()
        obs.disable()
    return ExperimentRun(
        name=name,
        status=status,
        report=report,
        wall_time_s=wall,
        search=search,
        cache=cache_stats,
        trace=trace_events,
        metrics=metrics_snapshot,
    )


def run_pipeline(
    names: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    candidates: Optional[bool] = None,
    warm_start: Optional[bool] = None,
    scaleout_exhaustive: Optional[bool] = None,
) -> PipelineResult:
    """Run ``names`` (default: the whole registry) as parallel jobs.

    ``workers`` is the experiment-level process count (default: all
    cores, capped at the job count); ``workers=1`` runs the exact
    serial loop in-process; experiments are the parallel unit.
    ``cache_dir`` selects the shared persistent cache (``None`` defers
    to the ambient default / ``REPRO_CACHE_DIR``).  ``candidates``
    picks the DSE engine's branch-and-bound fast path or its
    exhaustive oracle inside every worker (``--no-candidates`` passes
    ``False``), ``warm_start`` neighbor-seeded sweeps
    (``--warm-start`` passes ``True``) and ``scaleout_exhaustive`` the
    exhaustive outer scale-out reference (``--exhaustive-scaleout``
    passes ``True``); ``None`` keeps the respective default.  Reports
    are byte-identical under every combination.

    A failing experiment is reported with ``status="error"`` and does
    not abort the others — including an experiment whose worker
    *process* dies (OOM kill, segfault, ``os._exit``): the broken pool
    is detected, survivors are re-run on fresh single-job pools, and
    only the job that actually killed its worker is reported as an
    error.  ``progress`` is invoked in the parent, in completion order,
    as each experiment finishes.
    """
    selected = list(names) if names is not None else experiment_names()
    known = set(experiment_names())
    unknown = [n for n in selected if n not in known]
    if unknown:
        raise ValueError(
            f"unknown experiments {unknown}; choose from "
            f"{experiment_names()}"
        )
    if not selected:
        raise ValueError("no experiments selected")
    if workers is None:
        workers = max(1, min(len(selected), os.cpu_count() or 1))
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if cache_dir is None:
        cache_dir = resolve_cache_dir()
    trace = obs.is_enabled()

    def _merge_obs(run: ExperimentRun) -> None:
        session = obs.session()
        if session is not None:
            session.merge(list(run.trace), run.metrics)

    start = time.perf_counter()
    outcomes: Dict[str, ExperimentRun] = {}
    done = 0
    if workers == 1:
        for name in selected:
            run = _execute(name, cache_dir, trace,
                           candidates, warm_start, scaleout_exhaustive)
            outcomes[name] = run
            done += 1
            if progress is not None:
                progress(run, done, len(selected))
    else:
        # A worker killed mid-job (OOM, segfault) breaks the whole
        # pool: every pending future raises BrokenProcessPool and the
        # executor cannot say which job was the casualty.  Collect the
        # lost names here and re-run each in an isolation pool below.
        lost: List[str] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {
                pool.submit(_execute, name, cache_dir, trace,
                            candidates, warm_start,
                            scaleout_exhaustive): name
                for name in selected
            }
            while pending:
                finished, _ = wait(
                    set(pending), return_when=FIRST_COMPLETED
                )
                for future in finished:
                    name = pending.pop(future)
                    try:
                        run = future.result()
                    except BrokenProcessPool:
                        lost.append(name)
                        continue
                    _merge_obs(run)
                    outcomes[name] = run
                    done += 1
                    if progress is not None:
                        progress(run, done, len(selected))
        for name in sorted(lost, key=selected.index):
            run = _execute_isolated(name, cache_dir, trace,
                                    candidates, warm_start,
                                    scaleout_exhaustive)
            _merge_obs(run)
            outcomes[name] = run
            done += 1
            if progress is not None:
                progress(run, done, len(selected))
    return PipelineResult(
        runs=tuple(outcomes[name] for name in selected),
        wall_time_s=time.perf_counter() - start,
        workers=workers,
        cache_dir=cache_dir,
    )


def run_pipeline_via_server(
    names: Optional[Sequence[str]] = None,
    host: str = "127.0.0.1",
    port: int = 7321,
    progress: Optional[ProgressFn] = None,
    timeout: float = 3600.0,
) -> PipelineResult:
    """Run ``names`` through a live DSE service daemon.

    The ``run-all --serve HOST:PORT`` backend: every experiment becomes
    one ``experiment`` request pipelined over a single connection; the
    daemon executes them serially on its dedicated experiment thread
    (sharing its warm engine LRU and persistent cache across callers)
    and the responses are rebuilt into :class:`ExperimentRun` records,
    so :func:`write_manifest` and the CLI summary work unchanged.
    Report text is deterministic, hence byte-identical to a local
    :func:`run_pipeline` — only the accounting (wall times, cache
    warmth) differs.

    ``workers`` is reported as ``0`` in the result: the work happened
    in the daemon's process, not a local pool.  ``cache_dir`` is
    ``None`` for the same reason — cache traffic is accounted per run
    from the daemon's counters, but the directory is the daemon's.
    A failing experiment (or a rejected request) is an
    ``status="error"`` run, mirroring :func:`run_pipeline`.
    """
    from repro.serve.client import ServeClient

    selected = list(names) if names is not None else experiment_names()
    known = set(experiment_names())
    unknown = [n for n in selected if n not in known]
    if unknown:
        raise ValueError(
            f"unknown experiments {unknown}; choose from "
            f"{experiment_names()}"
        )
    if not selected:
        raise ValueError("no experiments selected")

    def _rebuild(name: str, response: Dict[str, object]) -> ExperimentRun:
        if not response.get("ok"):
            return ExperimentRun(
                name=name, status="error",
                report=f"{response.get('code')}: {response.get('error')}",
                wall_time_s=0.0, search={}, cache={},
            )
        payload = response["result"]
        return ExperimentRun(
            name=str(payload["name"]),
            status=str(payload["status"]),
            report=str(payload["report"]),
            wall_time_s=float(payload["wall_time_s"]),
            search=dict(payload["search"]),
            cache=dict(payload["cache"]),
        )

    requests = [
        {"op": "experiment", "name": name, "id": f"exp{index}"}
        for index, name in enumerate(selected)
    ]
    by_id = {req["id"]: req["name"] for req in requests}

    done = 0

    def _on_response(msg: Dict[str, object]) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(_rebuild(by_id[str(msg.get("id"))], msg), done,
                     len(selected))

    start = time.perf_counter()
    with ServeClient(host, port, timeout=timeout) as client:
        responses = client.request_many(requests, on_response=_on_response)
    runs = tuple(
        _rebuild(name, response)
        for name, response in zip(selected, responses)
    )
    return PipelineResult(
        runs=runs,
        wall_time_s=time.perf_counter() - start,
        workers=0,
        cache_dir=None,
    )


def _execute_isolated(name: str,
                      cache_dir: Optional[str],
                      trace: bool,
                      candidates: Optional[bool] = None,
                      warm_start: Optional[bool] = None,
                      scaleout_exhaustive: Optional[bool] = None,
                      ) -> ExperimentRun:
    """Re-run one job lost to a broken pool, in a pool of its own.

    ``BrokenProcessPool`` cannot name its casualty, so every lost job
    gets a fresh single-worker pool: innocents (jobs that merely shared
    the broken pool) complete normally, and the job that kills its own
    private worker is definitively the casualty — synthesized as an
    error run rather than retried forever.  Running the job in a pool
    instead of in-process keeps the parent safe from whatever killed
    the worker (an in-process ``os._exit`` would take the parent with
    it).
    """
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(
                _execute, name, cache_dir, trace,
                candidates, warm_start, scaleout_exhaustive,
            ).result()
    except BrokenProcessPool:
        return ExperimentRun(
            name=name,
            status="error",
            report=(
                "worker process died unexpectedly (BrokenProcessPool): "
                "the experiment was killed mid-run (OOM, segfault or "
                "hard exit) and produced no report"
            ),
            wall_time_s=0.0,
            search={},
            cache={},
        )


def write_manifest(
    result: PipelineResult,
    out_dir: os.PathLike,
    trace: Optional[Dict[str, object]] = None,
) -> Path:
    """Persist reports and the JSON manifest; returns the manifest path.

    Layout: ``<out_dir>/reports/<name>.txt`` per experiment plus
    ``<out_dir>/manifest.json``.  Report files hold the exact report
    bytes (trailing newline added), so two runs can be compared with
    ``diff -r``; the manifest additionally records each report's
    sha256, per-experiment timing/search/cache numbers and the
    aggregate totals.  ``trace`` (the rollup from
    :func:`repro.obs.summary.trace_totals`) is embedded only when
    given, so untraced manifests are unchanged.
    """
    out = Path(out_dir)
    reports_dir = out / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    experiments: List[dict] = []
    for run in result.runs:
        report_path = reports_dir / f"{run.name}.txt"
        report_path.write_text(run.report + "\n")
        experiments.append(
            {
                "name": run.name,
                "status": run.status,
                "wall_time_s": run.wall_time_s,
                "report_path": os.path.relpath(report_path, out),
                "report_sha256": run.report_sha256(),
                "search": run.search,
                "cache": run.cache,
            }
        )
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "cost_model_fingerprint": cost_model_fingerprint(),
        "workers": result.workers,
        "cache_dir": result.cache_dir,
        "wall_time_s": result.wall_time_s,
        "experiments": experiments,
        "aggregate": {
            "experiments": len(result.runs),
            "failures": len(result.failures),
            "search": result.aggregate_search(),
            "cache": result.aggregate_cache(),
        },
    }
    if trace is not None:
        manifest["trace"] = trace
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")
    return manifest_path
