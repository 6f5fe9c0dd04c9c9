"""Machine-speed references for the benchmark's times.

The machines this benchmark runs on change speed by up to a factor of two
within minutes, because they are shared. A fixed piece of pure-Python
work, timed right before every solve, measures that speed as it changes.
A solve time is reported speed-adjusted: multiplied by NOMINAL_S over the
reference time measured around it, which is the time the solve would have
taken on a machine where the reference takes NOMINAL_S. Import time
follows file-system and loader speed more than CPU speed, so set-up time
is adjusted by the import time of numpy alone, measured in fresh
interpreters between the set-up probes. Raw times are reported alongside.
"""

from __future__ import annotations

import time

# About the median reference time on a 2-vCPU x86-64 cloud VM under
# Python 3.11, so adjusted times are close to that machine's wall-clock times.
NOMINAL_S = 0.003
# Solves on each side whose reference times are averaged for one solve.
WINDOW = 15
# About the median time for a fresh interpreter to import numpy on that VM.
NUMPY_IMPORT_NOMINAL_S = 0.1


def _reference_work() -> int:
    """Dict and tuple churn like the dynamic programs', with no allocation growth."""
    table: dict[tuple[int, int], int] = {}
    x = 12345
    for _ in range(2000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 97, (x >> 8) % 89)
        table[key] = table.get(key, 0) + 1
    return len(sorted(table.items()))


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference work."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def adjust(raw: list[float], refs: list[float]) -> list[float]:
    """Speed-adjust each raw time by the mean reference time of its neighbourhood."""
    prefix = [0.0]
    for ref in refs:
        prefix.append(prefix[-1] + ref)
    out = []
    for i, value in enumerate(raw):
        lo, hi = max(0, i - WINDOW), min(len(refs), i + WINDOW + 1)
        out.append(value * NOMINAL_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out
