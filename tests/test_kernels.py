"""Finite-field kernels against pure-Python references on Python ints."""
from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from rainbowpaths._kernels import MODULUS, batch_minors, greedy_row_basis

M = int(MODULUS)


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


def sparse_matrix(rng: random.Random, n_rows: int, n_cols: int) -> np.ndarray:
    """Residues mod M, half of them zero, so elimination needs row swaps."""
    return np.array(
        [[rng.randrange(M) if rng.random() < 0.5 else 0 for _ in range(n_cols)] for _ in range(n_rows)],
        dtype=np.int64,
    )


def test_batch_minors_match_python_determinants():
    rng = random.Random(3)
    zeros = swaps = checked = 0
    for rank, universe, p in ((4, 9, 2), (5, 10, 3), (6, 8, 4), (3, 5, 3)):
        vander = sparse_matrix(rng, rank, universe)
        set_cols = [sorted(rng.sample(range(universe), p)) for _ in range(25)]
        for cols in set_cols[:5]:
            cols[1] = cols[0]  # a repeated column: the minor is zero
        coord_rows = [sorted(rng.sample(range(rank), p)) for _ in range(8)]
        out = batch_minors(
            vander,
            np.array(set_cols, dtype=np.int64),
            np.array(coord_rows, dtype=np.int64),
        )
        assert out.shape == (len(set_cols), len(coord_rows))
        for i, cols in enumerate(set_cols):
            for c, rows in enumerate(coord_rows):
                minor = [[int(vander[a, b]) for b in cols] for a in rows]
                want, took = det_mod(minor)
                assert int(out[i, c]) == want, (rank, universe, p, i, c)
                checked += 1
                zeros += cols[0] == cols[1]
                swaps += took > 0 and want != 0
    assert checked == 4 * 25 * 8
    assert zeros >= 4 * 5 * 8
    assert swaps >= 50


def test_batch_minors_of_empty_sets_are_one():
    out = batch_minors(
        np.ones((2, 3), dtype=np.int64),
        np.empty((4, 0), dtype=np.int64),
        np.empty((1, 0), dtype=np.int64),
    )
    assert out.tolist() == [[1]] * 4


def test_greedy_row_basis_matches_python_rank_test():
    rng = random.Random(5)
    cases = []
    for n_rows, width in ((12, 5), (6, 6), (4, 9), (20, 3)):
        rows = sparse_matrix(rng, n_rows, width).tolist()
        for i in range(1, n_rows, 3):
            # rows that repeat or combine earlier ones, and zero rows
            j, k = rng.randrange(i), rng.randrange(i)
            f = rng.randrange(M)
            rows[i] = [(x + f * y) % M for x, y in zip(rows[j], rows[k])] if i % 2 else rows[j]
        rows[0] = [0] * width
        cases.append(rows)
    # a rank-2 matrix with more rows than width
    a, b = sparse_matrix(rng, 2, 6).tolist()
    low_rank = []
    for _ in range(9):
        f, h = rng.randrange(M), rng.randrange(M)
        low_rank.append([(f * x + h * y) % M for x, y in zip(a, b)])
    cases.append(low_rank)
    # tall matrices, rows >= 4 x width, whose basis spans every column early (where the loop exits) or never
    for n_rows, width, rank in ((24, 6, 6), (20, 5, 3), (12, 3, 3), (16, 4, 1)):
        basis = [[rng.randrange(M) for _ in range(width)] for _ in range(rank)]
        tall = []
        for _ in range(n_rows):
            fs = [rng.randrange(M) for _ in basis]
            tall.append([sum(f * b[c] for f, b in zip(fs, basis)) % M for c in range(width)])
        cases.append(tall)
    for rows in cases:
        keep = greedy_row_basis(np.array(rows, dtype=np.int64))
        want = greedy_keep(rows)
        assert keep.tolist() == want
        assert sum(want) == rank_mod(rows)
        assert 0 < sum(want) < len(rows)


def test_greedy_row_basis_keeps_the_minor_rows_python_would():
    """The pruner feeds the minor matrix of a Vandermonde family to the basis."""
    rng = random.Random(9)
    universe, rank, p = 8, 5, 2
    vander = np.array(
        [[pow(e + 1, i, M) for e in range(universe)] for i in range(rank)], dtype=np.int64
    )
    set_cols = np.array([sorted(rng.sample(range(universe), p)) for _ in range(15)], dtype=np.int64)
    coord_rows = np.array([(a, b) for a in range(rank) for b in range(a + 1, rank)], dtype=np.int64)
    minors = batch_minors(vander, set_cols, coord_rows)
    assert greedy_row_basis(minors).tolist() == greedy_keep(minors.tolist())


def test_bench_kernels_script_runs():
    """The kernel benchmark script runs on the current API and prints its four timing rows."""
    script = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    done = subprocess.run(
        [sys.executable, str(script), "--repeats", "1"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()
    assert len(rows) == 4 and all(row.endswith("ms") for row in rows), done.stdout
