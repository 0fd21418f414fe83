"""serve-hot and serve-cold: a DSE daemon driven open loop.

The daemon is ``python -m repro.cli serve --port 0`` in its own process
(defaults, no cache directory), or ``perfbench/daemon.py`` for a traced
run.  This process is the load generator: one asyncio thread on a CPU
of its own, two connections, requests sent on a Poisson schedule
whatever the daemon's progress (open loop).  A request's latency runs
from its due time to its response, so a stall charges every request
queued behind it; the generator's own lateness (send minus due) is
reported per phase.

Before the timed phases, the workload's pass set is sent as one burst:
``cold_s`` is the median over the set-up daemons of the time to the
last answer with engine and memo cold, ``warm_s`` the median of the
last daemon's repeated bursts (memo hits).  A burst keeps the daemon
busy for its whole length, so these times measure work rather than
per-request wake-ups, which vary by 2x from run to run on a shared
machine.  Both are steady times (:mod:`calib`): this process probes the
machine's speed between bursts, while the daemon is idle.  For
serve-hot the set is the fixed key set, so the last cold burst also
fills the memo the timed phases then hit.  Then **light** and
**heavy** run for half the measured time each; their latencies are
wall-clock.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from calib import SteadyClock
from draws import Deck, exponential, mix, uniform_ints
from stats import median, nearest_rank

HERE = os.path.dirname(os.path.abspath(__file__))

#: Rates in requests/s and the SLO on heavy-phase latency in ms.  The
#: rates keep each daemon well below its knee even while the shared
#: 2-vCPU machine runs at half speed (see README.md).
PROFILES = {
    "serve-hot": {"light": 125.0, "heavy": 500.0, "slo_ms": 10.0},
    "serve-cold": {"light": 12.5, "heavy": 25.0, "slo_ms": 100.0},
}
CONNECTIONS = 2
#: With two or more CPUs, the daemon's threads run on all CPUs but the
#: last, the generator on the last, and the speed probe on the
#: daemon's CPUs.  Left to the kernel, the two processes landed on
#: either vCPU of the development machine, whose speeds differed from
#: run to run, and a run's memo-hit bursts took 25 or 40 ms depending
#: on where the daemon ran.
ALL_CPUS = set(os.sched_getaffinity(0))
GENERATOR_CPUS = set(sorted(ALL_CPUS)[-1:])
DAEMON_CPUS = ALL_CPUS - GENERATOR_CPUS
#: serve-cold's pass size: one round of the op mix, so a burst stays
#: under the daemon's admission limit of 256 queued queries.
COLD_PASS = 100
#: ``warm_s`` is the median of this many repeats of the pass.
WARM_REPEATS = 60
#: Responses still missing this long after a phase's last send fail.
GRACE_S = 15.0

MODELS = ("bert", "trxl", "flaubert", "t5", "xlm")
SWEEP_DATAFLOWS = ("base", "base-h", "flat-r2", "flat-r4", "flat-r8",
                   "flat-r16", "flat-r32", "flat-r64", "flat-r128",
                   "flat-r256")


# ----------------------------------------------------------------------
# request generation
# ----------------------------------------------------------------------
def hot_keys() -> Dict[str, List[dict]]:
    """The ~150 fixed keys of serve-hot, by op."""
    seqs = (512, 1024, 2048)
    return {
        "cost": [{"op": "cost", "model": m, "seq": s, "batch": 8,
                  "platform": p, "dataflow": d}
                 for m in MODELS for s in seqs for p in ("edge", "cloud")
                 for d in ("base", "flat-r32", "flat-r64")],
        "search": [{"op": "search", "model": m, "seq": s, "batch": 8,
                    "scope": scope}
                   for m in MODELS for s in seqs + (4096,)
                   for scope in ("L-A", "Model")],
        "decode": [{"op": "decode", "model": m, "seq": kv, "batch": 8,
                    "kv_len": kv, "platform": p}
                   for m in ("bert", "xlm") for kv in (1024, 4096)
                   for p in ("edge", "cloud")],
        "scaleout": [{"op": "scaleout", "model": m, "seq": s, "batch": 8,
                      "chips": c}
                     for m, s in (("bert", 2048), ("xlm", 4096),
                                  ("t5", 2048)) for c in (4, 8)],
        "sweep": [{"op": "sweep", "requests": [
                      {"op": "cost", "model": m, "seq": s, "batch": 8,
                       "dataflow": d} for d in SWEEP_DATAFLOWS]}
                  for m, s in (("bert", 512), ("bert", 2048), ("xlm", 1024),
                               ("t5", 1024), ("trxl", 512),
                               ("flaubert", 2048))],
    }


HOT_MIX = (("cost", 60), ("search", 30), ("decode", 5), ("scaleout", 3),
           ("sweep", 2))
COLD_MIX = (("cost", 25), ("search", 55), ("decode", 12), ("scaleout", 3),
            ("sweep", 5))


class HotRequests:
    """serve-hot's draws: an op by the mix, then one of its fixed keys."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.keys = hot_keys()
        self.op = mix(rng, HOT_MIX)

    def __call__(self) -> dict:
        return dict(self.rng.choice(self.keys[self.op.draw()]))


class ColdRequests:
    """serve-cold's draws: fresh parameters for every request, so a
    memo hit is a fluke."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.op = mix(rng, COLD_MIX)
        self.seq = uniform_ints(rng, 256, 16384, 16, step=64)
        self.batch = uniform_ints(rng, 1, 32, 8)
        self.model, self.platform, self.scope, self.objective, \
            self.chips, self.dataflow = (
                Deck(rng, lambda c=cards: c) for cards in (
                    MODELS, ("edge", "cloud"), ("L-A", "Model"),
                    ("runtime", "energy", "edp"), (2, 4, 8),
                    SWEEP_DATAFLOWS))

    def __call__(self) -> dict:
        op = self.op.draw()
        base = {"model": self.model.draw(), "seq": self.seq.draw(),
                "batch": self.batch.draw(),
                "platform": self.platform.draw(),
                "scope": self.scope.draw()}
        if op == "cost":
            return {"op": op, **base, "dataflow": self.dataflow.draw()}
        if op == "search":
            return {"op": op, **base, "objective": self.objective.draw()}
        if op == "decode":
            return {"op": op, **base, "kv_len": base["seq"]}
        if op == "scaleout":
            return {"op": op, **base, "chips": self.chips.draw()}
        return {"op": op, "requests": [
            {"op": "cost", **base, "dataflow": d}
            for d in self.rng.sample(SWEEP_DATAFLOWS, 8)]}


def schedule(rng: random.Random, rate: float, seconds: float,
             make) -> List[Tuple[float, dict]]:
    """(offset_s, request) pairs arriving at ``rate`` with exponential
    gaps."""
    gaps = exponential(rng, 1.0 / rate)
    out, clock = [], 0.0
    while True:
        clock += gaps.draw()
        if clock >= seconds:
            return out
        out.append((clock, make()))


# ----------------------------------------------------------------------
# daemon control
# ----------------------------------------------------------------------
class Daemon:
    """One daemon process: spawn, wait for a ping, shut down."""

    def __init__(self, root: str, spans_path: Optional[str]) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        for var in ("REPRO_CACHE_DIR", "REPRO_TRACE"):
            env.pop(var, None)
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        else:
            argv = [sys.executable, os.path.join(HERE, "daemon.py"),
                    spans_path]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                                     cwd=root, text=True)
        if DAEMON_CPUS:
            os.sched_setaffinity(self.proc.pid, DAEMON_CPUS)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, client: Optional["Client"] = None) -> None:
        try:
            if client is not None:
                asyncio.get_event_loop().run_until_complete(
                    client.call({"op": "shutdown"}))
                self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


class Client:
    """``CONNECTIONS`` connections; responses matched by id."""

    def __init__(self) -> None:
        self.conns: List[Tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []
        self.waiting: Dict[str, asyncio.Future] = {}
        self.readers: List[asyncio.Task] = []
        self.sent = 0

    async def open(self, address) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(*address)
            self.conns.append((reader, writer))
            self.readers.append(asyncio.ensure_future(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            msg = json.loads(line)
            if "event" in msg:
                continue
            future = self.waiting.pop(msg.get("id"), None)
            if future is not None and not future.done():
                future.set_result((now, msg, line))

    def send(self, req_id: str, line: bytes) -> asyncio.Future:
        future = asyncio.get_event_loop().create_future()
        self.waiting[req_id] = future
        writer = self.conns[self.sent % CONNECTIONS][1]
        self.sent += 1
        writer.write(line)
        return future

    async def call(self, req: dict) -> dict:
        req = dict(req, id=req.get("id", f"call-{self.sent}"))
        line = json.dumps(req).encode() + b"\n"
        return (await self.send(req["id"], line))[1]

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)
        for _, writer in self.conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def encode(requests: List[dict], tag: str) -> List[Tuple[str, bytes]]:
    """(id, line) per request, ids ``tag-<index>``."""
    return [(f"{tag}-{i}", json.dumps(dict(req, id=f"{tag}-{i}")).encode()
             + b"\n") for i, req in enumerate(requests)]


async def burst(client: Client, lines: List[Tuple[str, bytes]]) -> int:
    """Send ``lines`` at once and wait for every answer; failed ones."""
    answers = await asyncio.gather(
        *(client.send(req_id, line) for req_id, line in lines))
    return sum(not msg.get("ok") for _, msg, _ in answers)


async def open_phase(client: Client, plan: List[Tuple[float, dict]],
                     tag: str) -> dict:
    """Send ``plan`` on schedule; OK answers' latencies from due time."""
    futures = []
    late = []
    requests = [dict(req, id=f"{tag}-{i}") for i, (_, req) in enumerate(plan)]
    lines = [json.dumps(req).encode() + b"\n" for req in requests]
    start = time.perf_counter() + 0.01
    for (offset, _), req, line in zip(plan, requests, lines):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(time.perf_counter() - due)
        futures.append((due, req, client.send(req["id"], line)))
    last_send = time.perf_counter()
    pending = [f for _, _, f in futures]
    await asyncio.wait(pending, timeout=GRACE_S)
    latencies, ok, records = [], 0, []
    for due, req, future in futures:
        if future.done():
            recv, msg, line = future.result()
            if msg.get("ok"):
                ok += 1
                latencies.append(recv - due)
            records.append((req, line, msg.get("ok"), recv - due))
        else:
            future.cancel()
            client.waiting.pop(req["id"], None)
            records.append((req, None, False, None))
    return {"latencies": latencies, "ok": ok, "sent": len(futures),
            "late": late, "records": records,
            "window": (start, max(last_send, time.perf_counter()))}


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    out = {key: after["scheduler"][key] - before["scheduler"][key]
           for key in ("requests", "memo_hits", "coalesced", "shed",
                       "deadline_expired", "grid_calls", "grid_rows")}
    out["lru_hits"] = after["engine_lru"]["hits"] - \
        before["engine_lru"]["hits"]
    out["lru_misses"] = after["engine_lru"]["misses"] - \
        before["engine_lru"]["misses"]
    return out


def measure(workload: str, seed: int, seconds: float, root: str,
            setups: int, spans_path: Optional[str] = None) -> dict:
    """One serve workload run against a fresh daemon."""
    profile = PROFILES[workload]
    rng = random.Random(seed)
    if workload == "serve-hot":
        make = HotRequests(rng)
        warmup = [req for reqs in make.keys.values() for req in reqs]
    else:
        make = ColdRequests(rng)
        warmup = [make() for _ in range(COLD_PASS)]
    plans = {phase: schedule(rng, profile[phase], seconds / 2, make)
             for phase in ("light", "heavy")}

    if DAEMON_CPUS:
        os.sched_setaffinity(0, GENERATOR_CPUS)
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    setup_times: List[float] = []
    cold: List[float] = []
    cold_walls: List[float] = []
    cold_failed = 0
    clock = SteadyClock(DAEMON_CPUS)
    daemon = client = None
    try:
        for i in range(setups):
            daemon = Daemon(root, spans_path if i == setups - 1 else None)
            client = Client()
            loop.run_until_complete(client.open(daemon.address))
            loop.run_until_complete(client.call({"op": "ping"}))
            setup_times.append(time.perf_counter() - daemon.spawned)
            lines = encode(warmup, f"cold{i}")
            first = clock.mark()
            failed = loop.run_until_complete(burst(client, lines))
            steady, wall = clock.between(first, clock.mark())
            cold.append(steady)
            cold_walls.append(wall)
            cold_failed += failed
            if i < setups - 1:
                daemon.stop(client)
                loop.run_until_complete(client.close())
        warm: List[Tuple[float, float]] = []
        warm_failed = 0
        repeats = [encode(warmup, f"warm{i}") for i in range(WARM_REPEATS)]
        mark = clock.mark()
        for lines in repeats:
            warm_failed += loop.run_until_complete(burst(client, lines))
            warm.append(clock.between(mark, clock.mark()))
            mark += 1
        before = loop.run_until_complete(client.call({"op": "stats"}))
        phases = {}
        # A collection pause here would delay sends and stamp late
        # receipts; the phases allocate little, so collection waits.
        gc.collect()
        gc.disable()
        try:
            for phase in ("light", "heavy"):
                phases[phase] = loop.run_until_complete(
                    open_phase(client, plans[phase], phase))
        finally:
            gc.enable()
        after = loop.run_until_complete(client.call({"op": "stats"}))
        rss = daemon.peak_rss_mb()
        daemon.stop(client)
        daemon = None
        loop.run_until_complete(client.close())
    finally:
        if daemon is not None:
            daemon.stop()
        loop.close()
        asyncio.set_event_loop(None)

    problems = []
    if cold_failed or warm_failed:
        problems.append(f"burst pass failed {cold_failed} cold, "
                        f"{warm_failed} warm requests")
    heavy = phases["heavy"]
    slo_ok = sum(1 for _, _, ok, lat in heavy["records"]
                 if ok and lat * 1e3 <= profile["slo_ms"])
    attempted = sum(p["sent"] for p in phases.values())
    ok_total = sum(p["ok"] for p in phases.values())
    records = [r for p in phases.values() for r in p["records"]]
    lateness = {
        f"loadgen.{phase}.{name}": 1e3 * value
        for phase, p in phases.items()
        for name, value in (("late_p99_ms", nearest_rank(p["late"], 0.99)),
                            ("late_max_ms", max(p["late"])))
    }
    span = sum(p["window"][1] - p["window"][0] for p in phases.values())
    return {
        "metrics": {
            "setup_s": median(setup_times),
            "peak_rss_mb": rss,
            "cold_s": median(cold),
            "warm_s": median([steady for steady, _ in warm]),
            **{f"{phase}.p50_ms": 1e3 * median(p["latencies"])
               for phase, p in phases.items()},
            "heavy.slo_pct": 100.0 * slo_ok / heavy["sent"],
            "ops_per_s": ok_total / span,
        },
        "attempted": attempted,
        "failed": attempted - ok_total,
        "problems": problems,
        "windows": {phase: [p["window"]] for phase, p in phases.items()},
        "counters": _stats_delta(before["result"], after["result"]),
        "lateness": lateness,
        "tails": {phase: {"samples": len(p["latencies"]),
                          **{f"p{q}_ms": 1e3 * nearest_rank(
                              p["latencies"], q / 100) for q in (90, 99)}}
                  for phase, p in phases.items()},
        "records": records,
        "wall": {"cold_s": median(cold_walls),
                 "warm_s": median([wall for _, wall in warm]),
                 "probe_ms": 1e3 * clock.median_probe()},
        "headline": ("light.p50_ms", "heavy.p50_ms"),
    }


def check_sample(records, seed: int, count: int) -> List[str]:
    """Served bytes equal ``answer_direct`` on a seeded sample."""
    from repro.serve import answer_direct, encode_line

    answered = [(req, line) for req, line, ok, _ in records if ok]
    sample = random.Random(seed ^ 0x5EED).sample(
        answered, min(count, len(answered)))
    return [f"served response to {req['id']} differs from answer_direct"
            for req, line in sample
            if line != encode_line(answer_direct(req))]
