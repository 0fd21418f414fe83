"""The repository benchmark: one workload, measured, checked, reported.

Usage::

    python3 perfbench/run.py --workload runall --seed 1 --seconds 10 --trace 0

Workloads: ``runall``, ``serve-cold`` and ``decode-replay`` (see
``BENCHMARK.json`` for why each exists), and ``serve-hot``, which runs
but is not gated (see ``README.md``).  With ``--trace 0``
the last line of standard output is a JSON object carrying every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` the
workload runs twice with identical settings, untraced then with layer
spans, and the object carries every per-layer metric, including
``trace.overhead_pct`` (traced minus untraced, on the workload's
headline timings).  The line before it is a JSON ``detail`` object: the
machine stamp, serve latency tails with sample counts, generator
lateness and any failed check.

A failed output check prints ``"correct": false``.  A missing or
broken program exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from stats import machine_stamp, median  # noqa: E402

WORKLOADS = ("runall", "serve-hot", "serve-cold", "decode-replay")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Served responses compared byte for byte with ``answer_direct``.
SAMPLE = {"serve-hot": 40, "serve-cold": 12}
WORKER_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("REPRO_CACHE_DIR", "REPRO_TRACE"):
        env.pop(var, None)
    return env


def spawn_worker(workload, seed, seconds, workdir, mode):
    """Run one worker process; (set-up seconds, measurement or None)."""
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         str(seed), str(seconds), workdir, mode],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    setup = float(lines[0].split()[1]) - spawned
    return setup, (json.loads(lines[-1]) if mode != "setup" else None)


def run_worker_workload(workload, seed, seconds, workdir, traced):
    setups = [spawn_worker(workload, seed, seconds, workdir, "setup")[0]
              for _ in range(SETUPS - 1)]
    setup, plain = spawn_worker(workload, seed, seconds, workdir, "plain")
    plain["metrics"]["setup_s"] = median(setups + [setup])
    if not traced:
        return plain, None
    return plain, spawn_worker(workload, seed, seconds, workdir,
                               "traced")[1]


def run_serve_workload(workload, seed, seconds, workdir, traced):
    import serve

    plain = serve.measure(workload, seed, seconds, ROOT, SETUPS)
    plain["problems"] += serve.check_sample(
        plain.pop("records"), seed, SAMPLE[workload])
    if not traced:
        return plain, None
    from layers import analyse
    from spans import from_records

    spans_path = os.path.join(workdir, "spans.json")
    result = serve.measure(workload, seed, seconds, ROOT, 1, spans_path)
    result.pop("records")
    with open(spans_path) as handle:
        spans = from_records(json.load(handle))
    result["layers"], problems = analyse(
        workload, spans, result["windows"], result["counters"])
    result["problems"] += problems
    return plain, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = (run_serve_workload if args.workload.startswith("serve")
                  else run_worker_workload)
        plain, traced = runner(args.workload, args.seed, args.seconds,
                               workdir, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    runs = [plain] + ([traced] if traced is not None else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    plain["metrics"]["ok_pct"] = 100.0 * (
        plain["attempted"] - plain["failed"]) / plain["attempted"]
    if traced is None:
        values, entries = plain["metrics"], spec["end_to_end"]
    else:
        headline = plain["headline"]
        base = sum(plain["metrics"][m] for m in headline)
        values = dict(traced["layers"])
        values.update(traced.get("lateness", {}))
        values["trace.overhead_pct"] = 100.0 * (
            sum(traced["metrics"][m] for m in headline) - base) / base
        entries = spec["per_layer"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_stamp(ROOT),
        "wall": plain.get("wall"),
        "tails": plain.get("tails"),
        "lateness": plain.get("lateness"),
        "problems": problems,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            e["name"]: {"value": (values.get(e["name"], 0.0)
                                  if e["name"].startswith("loadgen.")
                                  else values[e["name"]]),
                        "unit": e["unit"]}
            for e in entries
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
