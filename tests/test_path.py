"""Path DP and its projection dedupe."""
from __future__ import annotations

import random

import pytest

from rainbowpaths import (
    ColoredDigraph,
    Query,
    Witness,
    dist_to_target,
    gen_random,
    oracle_path,
    solve_path,
    solve_walk,
    verify_witness,
)
from rainbowpaths.core import bfs_distances
from rainbowpaths.path import _path_levels


def test_walk_yes_path_no():
    # The only length-4 walk laps the 3-cycle, so no simple path exists.
    g = ColoredDigraph(4, (0, 1, 2, 1), ((0, 1), (1, 2), (2, 0), (0, 3)), 0, 3)
    q = Query(2, 4, "exact")
    assert solve_walk(g, q) == Witness((0, 1, 2, 0, 3))
    assert solve_path(g, q) is None
    assert solve_path(g, Query(2, 4, "atmost")) == Witness((0, 3))


def test_exact_beyond_simple_length_is_no():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    assert solve_path(g, Query(2, 3, "exact")) is None


def test_any_mode_means_up_to_n_minus_one():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    assert solve_path(g, Query(2, 0, "any")) == Witness((0, 1, 2))


def test_atmost_budget_clamps_to_n_minus_one():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    assert solve_path(g, Query(2, 99, "atmost")) == Witness((0, 1, 2))


def test_path_matches_oracle_randomized():
    rng = random.Random(61)
    instances = [
        gen_random(
            rng.randint(2, 8),
            rng.choice((0.25, 0.45)),
            rng.randint(1, 4),
            rng.randint(0, 3),
            rng.randint(0, 8),
            seed=11000 + trial,
            mode=rng.choice(("atmost", "exact")),
        )
        for trial in range(150)
    ]
    # dense radius-1 graphs at exact lengths 4 and 5, whose level-2 cells
    # gather many two-arc paths that differ in one vertex a completion can
    # still reach
    instances += [
        gen_random(
            rng.randint(8, 10),
            0.8,
            rng.randint(5, 8),
            1,
            rng.choice((4, 5)),
            seed=31850 + trial,
            mode="exact",
        )
        for trial in range(40)
    ]
    for trial, (g, q) in enumerate(instances):
        mine = solve_path(g, q)
        ref = oracle_path(g, q)
        assert (mine is None) == (ref is None), (trial, q)
        if mine is not None:
            assert verify_witness(g, q, mine.vertices, require_path=True) == []


def test_large_cells_are_left_whole():
    """The dedupe is the path DP's only cell reducer, however large a cell grows."""
    g, q = gen_random(24, 0.3, 5, 2, 13, seed=0, mode="exact")
    stats: dict = {}
    mine = solve_path(g, q, stats=stats)
    assert mine is not None
    assert verify_witness(g, q, mine.vertices, require_path=True) == []
    # 4096 was the old prune threshold
    assert stats["max_cell"] > 4096, stats["max_cell"]
    assert "rep_calls" not in stats


def test_cells_hold_one_member_per_forward_projection():
    """After dedupe, no two members of a cell agree on what a gated completion can reach.

    The projection of a member at level p in the cell of u keeps the visited
    vertices x with dist(u, x) + dist(x, t) <= ell - p, measured here by a
    fresh BFS from u and one to t. Visited sets are vertex bitmasks,
    decoded here to the vertices they hold.
    """
    rng = random.Random(47)
    shared = 0
    for trial in range(90):
        n = rng.randint(4, 9)
        g, _ = gen_random(n, 0.45, rng.randint(2, 5), 0, 0, seed=23000 + trial)
        ell = rng.randint(2, n - 1)
        r = rng.randint(1, 3)
        levels = _path_levels(g, r, ell, "exact")
        dist_t = dist_to_target(g)
        for p, level in enumerate(levels[1:], start=1):
            for u, cell in level.items():
                row = bfs_distances(g.out_neighbors, u)
                near = {
                    x
                    for x, (d, dt) in enumerate(zip(row, dist_t))
                    if d is not None and dt is not None and d + dt <= ell - p
                }
                keys = {
                    (tuple(x for x in sorted(near) if visited >> x & 1), window)
                    for visited, window in cell
                }
                assert len(keys) == len(cell), (trial, p, u)
                shared += len(cell) > 1
    assert shared >= 40, shared


def symmetric_grid(rows: int, cols: int, num_colors: int, seed: int) -> ColoredDigraph:
    """A rows x cols grid with arcs both ways and random colors; s and t at opposite corners."""
    n = rows * cols
    rng = random.Random(seed)
    raw = [rng.randrange(num_colors) for _ in range(n)]
    dense = {c: i for i, c in enumerate(sorted(set(raw)))}
    arcs = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                arcs += [(i * cols + j, i * cols + j + 1), (i * cols + j + 1, i * cols + j)]
            if i + 1 < rows:
                arcs += [(i * cols + j, (i + 1) * cols + j), ((i + 1) * cols + j, i * cols + j)]
    return ColoredDigraph(n, tuple(dense[c] for c in raw), tuple(arcs), 0, n - 1)


def test_grid_detours_keep_cells_polynomial():
    """At a budget of dist + k, the dedupe leaves at most Δ^(max(k, r) - 1) members per cell.

    Its key holds only vertices a completion can still reach under the
    distance gate, so at most the last k vertices of a path; on a grid Δ
    is 4. A key on every vertex within the remaining budget of u, ignoring
    the gate, leaves cells of 32 to 1,202 members on these grids.
    """
    for cols in (12, 16):
        for k in (3, 4):
            for seed in range(3):
                g = symmetric_grid(4, cols, 16, 1000 * cols + 10 * k + seed)
                q = Query(2, dist_to_target(g)[g.s] + k, "atmost")
                stats: dict = {}
                mine = solve_path(g, q, stats=stats)
                ref = oracle_path(g, q)
                assert (mine is None) == (ref is None), (cols, k, seed)
                if mine is not None:
                    assert verify_witness(g, q, mine.vertices, require_path=True) == []
                assert stats["max_cell"] <= 4 ** (max(k, q.r) - 1), (cols, k, seed, stats)

