"""runall: the full ``run-all`` registry, cold then warm, in one process.

Each round runs every experiment with ``run_pipeline(workers=1)``
twice over one fresh cache directory: **cold** (empty directory,
evaluation LRU cleared) and **warm** (same directory, LRU cleared
again, so the persistent cache answers).  The registry is the input,
so the seed changes nothing here.

Metric mapping: ``cold_s``/``warm_s`` are median pass times and the
latency unit is one pass, ``heavy`` the cold passes and ``light`` the
warm ones; ``ops_per_s`` is experiment jobs finished per second of
passes.  Every time is steady time (:mod:`calib`): the machine-speed
probe runs at both ends of a pass and before each of its experiments,
off the clock.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from calib import SteadyClock
from spans import install
from stats import median

#: A cold pass meets its objective within this time.
SLO_S = 15.0


def reports_digest(reports: Dict[str, str]) -> str:
    digest = hashlib.sha256()
    for name in sorted(reports):
        digest.update(f"{name}\n{reports[name]}\n".encode())
    return digest.hexdigest()


def measure(seed: int, seconds: float, workdir: str,
            names: Optional[Sequence[str]] = None,
            expected_digest: Optional[str] = None) -> dict:
    from repro.core.engine import (
        clear_evaluation_cache,
        evaluation_cache_info,
    )
    from repro.experiments.pipeline import run_pipeline
    from repro.experiments.runner import experiment_names

    order = list(names or experiment_names())
    clock = SteadyClock()

    def probed(fn):
        def wrapper(*args, **kwargs):
            clock.mark()
            return fn(*args, **kwargs)
        return wrapper

    walls: Dict[str, List[float]] = {"cold": [], "warm": []}
    steady: Dict[str, List[float]] = {"cold": [], "warm": []}
    windows: Dict[str, list] = {"cold": [], "warm": []}
    counters = {"lru_hits": 0, "lru_misses": 0, "cache_corrupt": 0}
    problems: List[str] = []
    attempted = failed = 0
    unprobe = install([("repro.experiments.runner", "run_experiment",
                        probed)])
    begin = time.perf_counter()
    try:
        while True:
            cache_dir = tempfile.mkdtemp(dir=workdir)
            reports = {}
            try:
                for phase in ("cold", "warm"):
                    clear_evaluation_cache()
                    first = clock.mark()
                    start = time.perf_counter()
                    result = run_pipeline(order, workers=1,
                                          cache_dir=cache_dir)
                    end = time.perf_counter()
                    pass_steady, pass_wall = clock.between(first,
                                                           clock.mark())
                    steady[phase].append(pass_steady)
                    walls[phase].append(pass_wall)
                    windows[phase].append((start, end))
                    lru = evaluation_cache_info()
                    counters["lru_hits"] += lru["hits"]
                    counters["lru_misses"] += lru["misses"]
                    counters["cache_corrupt"] += \
                        result.aggregate_cache().get("corrupt", 0)
                    for run in result.runs:
                        attempted += 1
                        if not run.ok:
                            failed += 1
                            problems.append(
                                f"{phase} {run.name}: {run.report}")
                        if phase == "cold":
                            reports[run.name] = run.report
                        elif run.report != reports.get(run.name):
                            problems.append(f"warm report of {run.name} "
                                            "differs from cold")
                    if phase == "warm":
                        evaluated = result.aggregate_search().get(
                            "evaluated", 0)
                        if evaluated:
                            problems.append(
                                f"warm pass evaluated {evaluated}")
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            if expected_digest is not None:
                digest = reports_digest(reports)
                if digest != expected_digest:
                    problems.append(f"runall report digest {digest} != "
                                    f"recorded {expected_digest}")
            elapsed = time.perf_counter() - begin
            rounds = len(walls["cold"])
            if elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        unprobe()
    return {
        "metrics": {
            "cold_s": median(steady["cold"]),
            "warm_s": median(steady["warm"]),
            "light.p50_ms": 1e3 * median(steady["warm"]),
            "heavy.p50_ms": 1e3 * median(steady["cold"]),
            "heavy.slo_pct": 100.0 * sum(t <= SLO_S for t in steady["cold"])
            / len(steady["cold"]),
            "ops_per_s": attempted / (sum(steady["cold"])
                                      + sum(steady["warm"])),
        },
        "wall": {"cold_s": median(walls["cold"]),
                 "warm_s": median(walls["warm"]),
                 "probe_ms": 1e3 * clock.median_probe()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "windows": windows,
        "counters": counters,
        "headline": ("cold_s", "warm_s"),
    }
