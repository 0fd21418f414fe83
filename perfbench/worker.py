"""The working process of the in-process workloads (runall, decode-replay).

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS WORKDIR MODE``
with MODE ``setup`` (import and build inputs, then exit), ``plain`` or
``traced``.  It prints ``ready <perf_counter>`` once set-up is done,
then, unless MODE is ``setup``, one JSON line with its measurement.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
HERE = os.path.join(ROOT, "perfbench")


def recorded_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as handle:
        return json.load(handle)


def main(workload: str, seed: int, seconds: float, workdir: str,
         mode: str) -> int:
    # The whole run stays on one CPU, so the speed probe (calib.py)
    # measures the CPU the work runs on: the development machine's
    # vCPUs ran at speeds that differed from run to run, and a worker
    # the kernel moved between them was rescaled by the wrong one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if workload == "runall":
        import repro.experiments.pipeline  # noqa: F401
        import runall as body
    else:
        import decode as body
        body.setup()
    print(f"ready {time.perf_counter()!r}", flush=True)
    if mode == "setup":
        return 0
    recorder = None
    if mode == "traced":
        from layers import install_tracing
        from spans import Recorder

        recorder = Recorder()
        install_tracing(recorder)
    result = body.measure(seed, seconds, workdir,
                          expected_digest=recorded_digests()[workload])
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if recorder is not None:
        from layers import analyse

        result["layers"], problems = analyse(
            workload, recorder.spans, result["windows"], result["counters"])
        result["problems"] += problems
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    workload, seed, seconds, workdir, mode = sys.argv[1:]
    sys.exit(main(workload, int(seed), float(seconds), workdir, mode))
