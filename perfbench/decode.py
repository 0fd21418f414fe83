"""decode-replay: continuous-batching trace replay under four dataflows.

The platform, model and policy are those of
``benchmarks/bench_decode_serving.py`` (the decode tier, xlm at seq
1024, prefill chunk 512, decode batch 16); the 500-request trace is
drawn here from the seed.  Each round replays the trace under Base-B
(unfused, three passes per decode), FLAT-R64, FLAT-R64 with FLASH-D and
FLAT-R64 with FuseMax.

Metric mapping: ``cold_s`` is the first round's time, ``warm_s``
the median of later rounds; an *op* is one replay, ``light`` the fused
replays and ``heavy`` the unfused ones; ``ops_per_s`` is simulated
engine steps per second of replay.  Every time is steady time
(:mod:`calib`): the machine-speed probe runs between replays, off the
clock.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import replace
from typing import Dict, List, Optional

from calib import SteadyClock
from draws import exponential, uniform_ints
from stats import median

REQUESTS = 500
#: The recorded digest covers this fixed trace, so it holds for any seed.
REFERENCE_SEED, REFERENCE_REQUESTS = 0, 100
#: An unfused replay meets its objective within this time.
SLO_S = 4.0


def setup():
    """Accelerator, model, policy and dataflows of the replay."""
    from repro.arch.memory import OffChipSpec
    from repro.arch.presets import get_platform
    from repro.arch.sfu import SFUSpec
    from repro.core.dataflow import (
        AttentionVariant,
        Granularity,
        base_x,
        flat_r,
    )
    from repro.models.configs import model_config
    from repro.sim.batching import BatchingPolicy

    edge = get_platform("edge")
    accel = replace(
        edge,
        name="edge-decode-tier",
        offchip=OffChipSpec(bandwidth_bytes_per_sec=2000e9),
        sfu=SFUSpec(elements_per_cycle=32,
                    softmax_passes=edge.sfu.softmax_passes),
    )
    dataflows = (
        base_x(Granularity.B),
        flat_r(64),
        flat_r(64, variant=AttentionVariant.FLASH_D),
        flat_r(64, variant=AttentionVariant.FUSEMAX),
    )
    return (accel, model_config("xlm", seq=1024),
            BatchingPolicy(prefill_chunk=512, max_decode_batch=16),
            dataflows)


def make_trace(seed: int, count: int):
    """Exponential arrival gaps (mean 8e6 cycles), uniform prompt
    (128..2048) and output (16..128) lengths, as in
    ``synthetic_trace``, but dealt from stratified decks."""
    from repro.sim.batching import ServeRequest

    rng = random.Random(seed)
    gaps = exponential(rng, 8e6)
    prompts = uniform_ints(rng, 128, 2048, 32)
    outputs = uniform_ints(rng, 16, 128, 16)
    clock = 0.0
    trace = []
    for rid in range(count):
        clock += gaps.draw()
        trace.append(ServeRequest(rid=rid, arrival_cycle=clock,
                                  prompt_tokens=prompts.draw(),
                                  output_tokens=outputs.draw()))
    return tuple(trace)


def summary(report) -> list:
    """Simulated statistics of one replay, in cycles."""
    return [report.completed, report.steps, report.makespan_cycles,
            report.ttft_p50, report.ttft_p99, report.tpot_p50,
            report.tpot_p99]


def replay_digest(seed: int, count: int) -> str:
    from repro.sim.batching import run_serving

    accel, cfg, policy, dataflows = setup()
    trace = make_trace(seed, count)
    stats = {df.name: summary(run_serving(trace, cfg, df, accel, policy))
             for df in dataflows}
    return hashlib.sha256(
        json.dumps(stats, sort_keys=True).encode()).hexdigest()


def measure(seed: int, seconds: float, workdir: str,
            expected_digest: Optional[str] = None) -> dict:
    from repro.sim.batching import run_serving

    accel, cfg, policy, dataflows = setup()
    trace = make_trace(seed, REQUESTS)
    rounds: List[float] = []
    round_walls: List[float] = []
    replay_s: Dict[str, List[float]] = {df.name: [] for df in dataflows}
    first: Dict[str, list] = {}
    problems: List[str] = []
    attempted = failed = steps = 0
    windows = []
    clock = SteadyClock()
    mark = clock.mark()
    begin = time.perf_counter()
    while True:
        round_mark = mark
        round_start = time.perf_counter()
        for df in dataflows:
            report = run_serving(trace, cfg, df, accel, policy)
            end = time.perf_counter()
            mark = clock.mark()
            replay_s[df.name].append(clock.between(mark - 1, mark)[0])
            attempted += REQUESTS
            failed += REQUESTS - report.completed
            steps += report.steps
            stats = summary(report)
            if first.setdefault(df.name, stats) != stats:
                problems.append(f"{df.name} replay is not deterministic")
        round_steady, round_wall = clock.between(round_mark, mark)
        rounds.append(round_steady)
        round_walls.append(round_wall)
        windows.append((round_start, end))
        elapsed = end - begin
        if len(rounds) >= 2 and elapsed * (len(rounds) + 1) / len(rounds) \
                > seconds:
            break
    if expected_digest is not None:
        digest = replay_digest(REFERENCE_SEED, REFERENCE_REQUESTS)
        if digest != expected_digest:
            problems.append(f"decode-replay digest {digest} != recorded "
                            f"{expected_digest}")
    unfused = replay_s[dataflows[0].name]
    fused = [t for df in dataflows[1:] for t in replay_s[df.name]]
    return {
        "metrics": {
            "cold_s": rounds[0],
            "warm_s": median(rounds[1:]),
            "light.p50_ms": 1e3 * median(fused),
            "heavy.p50_ms": 1e3 * median(unfused),
            "heavy.slo_pct": 100.0 * sum(t <= SLO_S for t in unfused)
            / len(unfused),
            "ops_per_s": steps / sum(rounds),
        },
        "wall": {"cold_s": round_walls[0], "warm_s": median(round_walls[1:]),
                 "probe_ms": 1e3 * clock.median_probe()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "windows": {"replay": windows},
        "counters": {},
        "headline": ("warm_s",),
    }
