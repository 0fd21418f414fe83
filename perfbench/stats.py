"""Order statistics and the machine stamp every run carries."""

from __future__ import annotations

import math
import os
import platform
import statistics
from typing import Dict, Sequence


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(values)
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[max(0, min(len(ordered), rank) - 1)]


def machine_stamp(root: str) -> Dict[str, object]:
    """CPU count, interpreter and numpy versions, commit, load average."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as handle:
                    commit = handle.read().strip()
        else:
            commit = ref
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "loadavg": list(os.getloadavg()),
    }
