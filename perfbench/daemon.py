"""The traced daemon: ``repro.serve.run_server`` with layer spans.

Usage: ``python3 perfbench/daemon.py SPANS_JSON``.  Installs the span
wrappers of :mod:`layers` before the server starts, announces its
address like ``repro-flat serve`` does, and writes every recorded span
to ``SPANS_JSON`` after a ``shutdown`` op drains it.
"""

import asyncio
import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from layers import install_tracing  # noqa: E402
from spans import Recorder, to_records  # noqa: E402


def main(spans_path: str) -> int:
    recorder = Recorder()
    install_tracing(recorder)
    from repro.serve import run_server

    def announce(host: str, port: int) -> None:
        print(f"serving on {host}:{port}", flush=True)

    code = asyncio.run(run_server("127.0.0.1", 0, announce=announce))
    with open(spans_path, "w") as handle:
        json.dump(to_records(recorder.spans), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
