"""The representative prune's arithmetic against pure-Python references on Python ints."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

from helpers import core_sets
from rainbowpaths.repfam import MODULUS as M
from rainbowpaths.repfam import greedy_basis, minors, representative_keep


def det_mod(rows: list[list[int]]) -> tuple[int, int]:
    """Determinant mod M by Gaussian elimination, and the number of row swaps it took."""
    a = [[x % M for x in row] for row in rows]
    det, swaps = 1, 0
    for col in range(len(a)):
        piv = next((i for i in range(col, len(a)) if a[i][col]), None)
        if piv is None:
            return 0, swaps
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det, swaps = -det, swaps + 1
        det = det * a[col][col] % M
        inv = pow(a[col][col], M - 2, M)
        for i in range(col + 1, len(a)):
            f = a[i][col] * inv % M
            a[i] = [(x - f * y) % M for x, y in zip(a[i], a[col])]
    return det % M, swaps


def rank_mod(rows: list[list[int]]) -> int:
    """Rank over Z/M by full Gaussian elimination."""
    a = [[x % M for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], M - 2, M)
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col] * inv % M
                a[i] = [(x - f * y) % M for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def greedy_keep(rows: list[list[int]]) -> list[int]:
    """Keep a row iff it raises the rank of the rows kept before it."""
    kept: list[list[int]] = []
    keep = []
    for row in rows:
        raises = rank_mod(kept + [row]) > len(kept)
        keep.append(int(raises))
        if raises:
            kept.append(row)
    return keep


def sparse_matrix(rng: random.Random, n_rows: int, n_cols: int) -> list[list[int]]:
    """Residues mod M, half of them zero, so elimination needs row swaps."""
    return [[rng.randrange(M) if rng.random() < 0.5 else 0 for _ in range(n_cols)] for _ in range(n_rows)]


def vandermonde_columns(universe: int, rank: int) -> list[list[int]]:
    """Column x holds the powers 0..rank - 1 of x + 1, as the prune builds them."""
    return [[pow(x + 1, i, M) for i in range(rank)] for x in range(universe)]


def test_minors_match_python_determinants():
    rng = random.Random(3)
    zeros = swaps = checked = 0
    for rank, universe, p in ((4, 9, 2), (5, 10, 3), (6, 8, 4), (3, 5, 3), (6, 9, 1)):
        # Vandermonde columns, as the prune uses, and sparse ones, whose minors need row swaps
        for columns in (vandermonde_columns(universe, rank), sparse_matrix(rng, universe, rank)):
            set_cols = [sorted(rng.sample(range(universe), p)) for _ in range(25)]
            for cols in set_cols[:5]:
                cols[-1] = cols[0]  # a repeated column: the minor is zero
            for cols in set_cols:
                out = minors(columns, cols, rank)
                coords = list(combinations(range(rank), p))
                assert len(out) == len(coords)
                for got, rows in zip(out, coords):
                    want, took = det_mod([[columns[b][a] for b in cols] for a in rows])
                    assert got == want, (rank, universe, p, cols, rows)
                    checked += 1
                    zeros += p > 1 and cols[0] == cols[-1]
                    swaps += took > 0 and want != 0
    assert zeros >= 4 * 2 * 5 * 3
    assert swaps >= 50
    assert checked == 2 * 25 * (6 + 10 + 15 + 1 + 6)


def test_minors_of_empty_sets_are_one():
    assert minors(vandermonde_columns(3, 2), [], 2) == [1]


def test_greedy_basis_matches_python_rank_test():
    rng = random.Random(5)
    cases = []
    for n_rows, width in ((12, 5), (6, 6), (4, 9), (20, 3)):
        rows = sparse_matrix(rng, n_rows, width)
        for i in range(1, n_rows, 3):
            # rows that repeat or combine earlier ones, and zero rows
            j, k = rng.randrange(i), rng.randrange(i)
            f = rng.randrange(M)
            rows[i] = [(x + f * y) % M for x, y in zip(rows[j], rows[k])] if i % 2 else rows[j]
        rows[0] = [0] * width
        cases.append(rows)
    # a rank-2 matrix with more rows than width
    a, b = sparse_matrix(rng, 2, 6)
    low_rank = []
    for _ in range(9):
        f, h = rng.randrange(M), rng.randrange(M)
        low_rank.append([(f * x + h * y) % M for x, y in zip(a, b)])
    cases.append(low_rank)
    # tall matrices, rows >= 4 x width, whose basis spans every column early (where reading stops) or never
    for n_rows, width, rank in ((24, 6, 6), (20, 5, 3), (12, 3, 3), (16, 4, 1)):
        basis = [[rng.randrange(M) for _ in range(width)] for _ in range(rank)]
        tall = []
        for _ in range(n_rows):
            fs = [rng.randrange(M) for _ in basis]
            tall.append([sum(f * b[c] for f, b in zip(fs, basis)) % M for c in range(width)])
        cases.append(tall)
    for rows in cases:
        want = greedy_keep(rows)
        read = []
        keep = greedy_basis((read.append(i) or row for i, row in enumerate(rows)), len(rows[0]))
        assert keep == [i for i, k in enumerate(want) if k]
        assert len(keep) == rank_mod(rows)
        assert 0 < len(keep) < len(rows)
        # reading stops at the row that completes a spanning basis
        assert read == list(range(keep[-1] + 1 if len(keep) == len(rows[0]) else len(rows)))


def test_representative_keep_keeps_the_rows_python_would():
    """The prune keeps the sets whose Vandermonde minors raise the rank, in (sorted set, index) order."""
    rng = random.Random(9)
    families = []
    for trial in range(40):
        universe = rng.randint(3, 9)
        p = rng.randint(1, min(4, universe))
        fam = [rng.sample(range(universe), p) for _ in range(rng.randint(1, 20))]
        families.append((fam + fam[:3], rng.randint(0, 3)))
    for trial in range(40):
        universe, p = rng.randint(4, 9), rng.randint(2, 4)
        fam = [rng.sample(s, len(s)) for s in core_sets(rng, universe, p, rng.randint(1, p - 1), 15)]
        families.append((fam, rng.randint(0, 3)))
    for fam, q in families:
        # the reference strips the shared core and the unused elements, then relabels densely
        counts = Counter(x for s in fam for x in s)
        used = sorted(x for x, c in counts.items() if c < len(fam))
        stripped = [sorted(used.index(x) for x in s if x in used) for s in fam]
        p = len(stripped[0])
        rank = p + min(q, len(used) - p)
        columns = vandermonde_columns(len(used), rank)
        order = sorted(range(len(fam)), key=lambda i: (stripped[i], i))
        want = greedy_keep([minors(columns, stripped[i], rank) for i in order])
        assert representative_keep(fam, q) == [i for i, k in zip(order, want) if k]


def test_import_leaves_numpy_unloaded():
    """The CLI and every solver it imports run on the standard library alone."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rainbowpaths.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_bench_kernels_script_runs():
    """The prune benchmark script runs on the current API and prints its two timing rows."""
    script = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    done = subprocess.run(
        [sys.executable, str(script), "--repeats", "1"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()
    assert len(rows) == 2 and all(row.endswith("ms") for row in rows), done.stdout
