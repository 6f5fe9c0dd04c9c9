"""Benchmark the modular-arithmetic kernels: numba against pure numpy.

The representative-family pruner spends its time in two places, batched
minor determinants of a Vandermonde matrix and a greedy row basis over a
prime field. Both exist twice, a numba-compiled version and a numpy
fallback, selected through RAINBOWPATHS_KERNELS. This script times the
raw kernels and an end-to-end pruning workload under each backend,
asserting along the way that the two produce identical output.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""
from __future__ import annotations

import argparse
import os
import random
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np

# run from a bare checkout: the package source sits beside this directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rainbowpaths import LabeledSetFamily, unordered_representative
from rainbowpaths._kernels import (
    HAS_NUMBA,
    MODULUS,
    active_backend,
    batch_minors,
    greedy_row_basis,
)


def make_minor_workload(rng: np.random.Generator, rank: int, n_sets: int, p: int, n_coords: int):
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
    coords = np.stack(
        [rng.choice(rank, size=p, replace=False) for _ in range(n_coords)]
    ).astype(np.int64)
    return vander, np.sort(set_cols, axis=1), np.sort(coords, axis=1)


def make_family(seed: int, universe: int, p: int, count: int) -> LabeledSetFamily:
    rng = random.Random(seed)
    pool = list(combinations(range(universe), p))
    members = tuple(sorted(rng.sample(pool, min(count, len(pool)))))
    return LabeledSetFamily(universe, members, tuple(range(len(members))))


def timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_backend(name: str, repeats: int) -> dict[str, float | object]:
    os.environ["RAINBOWPATHS_KERNELS"] = name
    assert active_backend() == name
    rng = np.random.default_rng(7)
    vander, set_cols, coords = make_minor_workload(rng, rank=8, n_sets=4000, p=4, n_coords=70)
    minors = batch_minors(vander, set_cols, coords)
    fam = make_family(11, universe=14, p=4, count=900)

    results: dict[str, float | object] = {}
    results["minors_out"] = minors
    results["minors_s"] = timed(lambda: batch_minors(vander, set_cols, coords), repeats)
    results["basis_out"] = greedy_row_basis(minors)
    results["basis_s"] = timed(lambda: greedy_row_basis(minors), repeats)
    kept = unordered_representative(fam, 4)
    results["prune_out"] = tuple(kept.members)
    results["prune_s"] = timed(lambda: unordered_representative(fam, 4), repeats)
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    backends = ["numpy"]
    if HAS_NUMBA:
        # warm the JIT outside the timed region
        os.environ["RAINBOWPATHS_KERNELS"] = "numba"
        rng = np.random.default_rng(1)
        v, s, c = make_minor_workload(rng, rank=5, n_sets=16, p=3, n_coords=4)
        greedy_row_basis(batch_minors(v, s, c))
        backends.append("numba")
    else:
        print("numba is not importable here, timing the numpy backend only")

    rows = {name: run_backend(name, args.repeats) for name in backends}

    if len(backends) == 2:
        a, b = rows["numpy"], rows["numba"]
        assert np.array_equal(a["minors_out"], b["minors_out"]), "minor values diverge"
        assert np.array_equal(a["basis_out"], b["basis_out"]), "basis masks diverge"
        assert a["prune_out"] == b["prune_out"], "pruned families diverge"
        print("agreement: numba and numpy outputs are identical\n")

    header = f"{'workload':<28}" + "".join(f"{name:>12}" for name in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    labels = [
        ("batch minors 4000x70", "minors_s"),
        ("greedy row basis 4000x70", "basis_s"),
        ("prune 900 sets, q=4", "prune_s"),
    ]
    for label, key in labels:
        line = f"{label:<28}"
        for name in backends:
            line += f"{rows[name][key] * 1000:>10.2f}ms"
        if len(backends) == 2:
            line += f"{rows['numpy'][key] / rows['numba'][key]:>9.1f}x"
        print(line)


if __name__ == "__main__":
    main()
