"""Benchmark the representative-family prune.

The prune reads the sets in order and keeps a set when some obstruction
of at most q elements avoids it and meets every set kept before it; its
time goes to testing and extending those obstructions. This script times
three pruning workloads, best of N repeats: a family with no shared
element, and the walk's own keep, ``window_keep``, offered the windows of
two radius-3 cells in order, whose windows all end in the hub's color, a
core no obstruction needs. The first is the cell at the hub of a fan,
whose tails share their two first colors. In the second each tail has two
random first colors, the shape of a walk cell in a graph with many colors.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from itertools import combinations
from pathlib import Path

# run from a bare checkout: the package source sits beside this directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rainbowpaths import representative_keep
from rainbowpaths.core import ColorSeq
from rainbowpaths.repfam import window_keep


def make_family(seed: int, universe: int, p: int, count: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    pool = list(combinations(range(universe), p))
    return sorted(rng.sample(pool, min(count, len(pool))))


def fan_cell(width: int) -> list[ColorSeq]:
    """The radius-3 cell at a fan's hub: windows (x, m, hub), x in {0, 1}, m one of ``width`` colors.

    Windows with one tail (m, hub) differ only in x, so the walk's tail
    classes keep them all, two first colors each, and 2 * width above
    ordered_bound(3) = 542 makes the walk filter the cell.
    """
    hub = width + 2
    return [(x, m, hub) for m in range(2, width + 2) for x in (0, 1)]


def random_firsts_cell(seed: int, width: int) -> list[ColorSeq]:
    """A radius-3 cell of windows (x, m, hub): two first colors x per tail, drawn from ``width`` colors.

    2 * width above ordered_bound(3) = 542 makes the walk filter the cell.
    """
    rng = random.Random(seed)
    hub = width
    return [(x, m, hub) for m in range(width) for x in rng.sample([x for x in range(width) if x != m], 2)]


def keep_cell(windows: list[ColorSeq]) -> list[ColorSeq]:
    """The windows ``window_keep`` keeps of a cell's, offered in order."""
    keep = window_keep(windows[0], 3)
    return [w for w in windows if keep(w)]


def timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    universe = 14
    fam = make_family(11, universe, p=4, count=900)
    cell = fan_cell(276)
    walk_cell = random_firsts_cell(5, 280)
    rows = [
        ("prune 900 sets, q=4", lambda: representative_keep(fam, 4)),
        ("keep 552-window cell, r=3", lambda: keep_cell(cell)),
        ("keep 560 random firsts, r=3", lambda: keep_cell(walk_cell)),
    ]
    for label, fn in rows:
        print(f"{label:<28}{timed(fn, args.repeats) * 1000:>10.2f}ms")


if __name__ == "__main__":
    main()
