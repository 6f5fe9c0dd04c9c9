"""Benchmark the modular-arithmetic kernels.

The representative-family pruner spends its time in two places, batched
minor determinants of a Vandermonde matrix and a greedy row basis over a
prime field. This script times both raw kernels and two end-to-end
pruning workloads, best of N repeats: a family with no shared element,
and radius-2 walk cells, whose windows all end in the cell's color, so
the prune strips those shared slots first.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np

# run from a bare checkout: the package source sits beside this directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rainbowpaths import representative_keep, slot_set
from rainbowpaths._kernels import MODULUS, batch_minors, greedy_row_basis


def make_minor_workload(rng: np.random.Generator, rank: int, n_sets: int, p: int):
    """Vandermonde rows, random p-sets of columns, and every p-subset of rows as a coordinate.

    Using all C(rank, p) coordinates, as repfam does, gives the minor
    matrix full column rank.
    """
    universe = 40
    vander = np.empty((rank, universe), dtype=np.int64)
    xs = np.arange(1, universe + 1, dtype=np.int64)
    row = np.ones(universe, dtype=np.int64)
    for i in range(rank):
        vander[i] = row
        row = row * xs % MODULUS
    set_cols = np.stack(
        [rng.choice(universe, size=p, replace=False) for _ in range(n_sets)]
    ).astype(np.int64)
    coords = np.array(list(combinations(range(rank), p)), dtype=np.int64)
    return vander, np.sort(set_cols, axis=1), coords


def make_family(seed: int, universe: int, p: int, count: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    pool = list(combinations(range(universe), p))
    return sorted(rng.sample(pool, min(count, len(pool))))


def walk_cells(num_colors: int) -> list[list[tuple[int, ...]]]:
    """For each color c, the slot sets of every radius-2 window (a, c) over num_colors colors."""
    return [
        [slot_set((a, c), 2) for a in range(num_colors) if a != c] for c in range(num_colors)
    ]


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

    rng = np.random.default_rng(7)
    vander, set_cols, coords = make_minor_workload(rng, rank=8, n_sets=4000, p=4)
    minors = batch_minors(vander, set_cols, coords)
    universe = 14
    fam = make_family(11, universe, p=4, count=900)
    cells = walk_cells(40)
    rows = [
        ("batch minors 4000x70", lambda: batch_minors(vander, set_cols, coords)),
        ("greedy row basis 4000x70", lambda: greedy_row_basis(minors)),
        ("prune 900 sets, q=4", lambda: representative_keep(fam, universe, 4)),
        ("prune 40 walk cells, r=2", lambda: [representative_keep(cell, 80, 2) for cell in cells]),
    ]
    for label, fn in rows:
        print(f"{label:<28}{timed(fn, args.repeats) * 1000:>10.2f}ms")


if __name__ == "__main__":
    main()
