"""Path DP and the near-set projection its members store."""
from __future__ import annotations

import random
import tracemalloc

import pytest

from helpers import parity_grid, tight_dag
from rainbowpaths import (
    CnfInput,
    ColoredDigraph,
    Query,
    Witness,
    gen_3sat_instance,
    gen_random,
    oracle_path,
    oracle_walk,
    solve_path,
    solve_walk,
    verify_witness,
)
from rainbowpaths.core import _PAD, rainbow_distances, unwind
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
    # the level loop reads mode "any" itself and runs at budget n - 1
    assert g.t in list(_path_levels(g, 2, 0, "any"))[-1]


def test_atmost_budget_clamps_to_n_minus_one():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    assert solve_path(g, Query(2, 99, "atmost")) == Witness((0, 1, 2))
    # the level loop clamps the budget itself; exact past n - 1 yields no level
    assert g.t in list(_path_levels(g, 2, 99, "atmost"))[-1]
    assert list(_path_levels(g, 2, 3, "exact")) == []


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
    # dense graphs in three or four colors, where many shortest paths
    # repeat a color within radius 2, so the rainbow row of s exceeds
    # dist(s, t) and the DP's gate and near sets follow the row
    instances += [
        gen_random(
            rng.randint(6, 9),
            rng.uniform(0.5, 0.9),
            rng.randint(3, 4),
            rng.randint(2, 3),
            rng.randint(3, 8),
            seed=52000 + trial,
            mode=rng.choice(("atmost", "exact")),
        )
        for trial in range(150)
    ]
    longer = 0
    for trial, (g, q) in enumerate(instances):
        mine = solve_path(g, q)
        ref = oracle_path(g, q)
        assert (mine is None) == (ref is None), (trial, q)
        if mine is not None:
            assert verify_witness(g, q, mine.vertices, require_path=True) == []
        row_s = rainbow_distances(g, q.r)[g.s]
        longer += row_s is not None and row_s > g.dist_to_t[g.s]
    assert longer >= 30, longer


def test_large_cells_are_left_whole():
    """The near-set projection is the path DP's only cell reducer, however large a cell grows."""
    g, q = gen_random(24, 0.3, 5, 2, 13, seed=0, mode="exact")
    stats: dict = {}
    mine = solve_path(g, q, stats=stats)
    assert mine is not None
    assert verify_witness(g, q, mine.vertices, require_path=True) == []
    # 4096 was the old prune threshold
    assert stats["max_cell"] > 4096, stats["max_cell"]
    assert "rep_calls" not in stats


def test_cells_hold_one_member_per_forward_projection():
    """Each member links to its path and stores the part a gated completion can still reach.

    A member of u's cell at level p unwinds to a path of p arcs from s to
    u, and its window holds that path's last min(r, p + 1) colors, padded
    on the left with ``_PAD`` to r. Its mask keeps the vertices x of the
    path whose rainbow row is below ell - p. The row is never below
    dist(x, t), so with k = ell - dist(s, t) each of them sits at step
    p - k + 1 or later, and a mask holds at most the last k vertices.
    Members are dict keys, so a cell holds one member per mask and window.
    """
    rng = random.Random(47)
    shared = tight = 0
    for trial in range(90):
        n = rng.randint(4, 9)
        g, _ = gen_random(n, 0.45, rng.randint(2, 5), 0, 0, seed=23000 + trial)
        ell = rng.randint(2, n - 1)
        r = rng.randint(1, 3)
        row = rainbow_distances(g, r)
        for p, level in enumerate(_path_levels(g, r, ell, "exact")):
            k = ell - g.dist_to_t[g.s]
            for u, cell in level.items():
                for (mask, window), link in cell.items():
                    path = unwind(u, link).vertices
                    assert len(set(path)) == len(path) == p + 1, (trial, p, u, path)
                    assert path[0] == g.s and path[-1] == u, (trial, p, u, path)
                    assert all(b in g.out_neighbors[a] for a, b in zip(path, path[1:])), (trial, p, u, path)
                    last = path[-min(r, p + 1) :]
                    pad = (_PAD,) * (r - len(last))
                    assert window == pad + tuple(g.colors[x] for x in last), (trial, p, u)
                    kept = [i for i, x in enumerate(path) if row[x] < ell - p]
                    assert mask == sum(1 << path[i] for i in kept), (trial, p, u)
                    assert all(i >= p - k + 1 for i in kept), (trial, p, u, path, k)
                    # the bound is met with equality by a vertex other than u
                    tight += p - k + 1 in kept and p - k + 1 < p
                shared += len(cell) > 1
    assert shared >= 40, shared
    assert tight >= 100, tight


def test_sat_levels_follow_the_rainbow_row():
    """The 3-SAT reduction's gate and near sets read the rainbow row, which its shortcuts lengthen.

    Its clause bypasses give s-t routes of 4 arcs whose colors repeat
    within radius 2, while every rainbow route has ell = 32 arcs. The DP
    is exact under a dist_t gate too, so only its levels show which row
    it read: each vertex u at level p has ``row[u] <= ell - p``, some
    member's successor passes the dist_t gate and fails the row, and a
    member's mask holds exactly its path's x with ``row[x] < ell - p``,
    which drops path vertices that a dist_t near set would keep.
    """
    g, q = gen_3sat_instance(CnfInput(((1, 2, 3), (1, -2, -3), (-1, 2, -3), (-1, -2, 3))))
    mine = solve_path(g, q)
    assert mine is not None
    assert verify_witness(g, q, mine.vertices, require_path=True) == []
    row, dist_t = rainbow_distances(g, q.r), g.dist_to_t
    refused = dropped = 0
    for p, level in enumerate(_path_levels(g, q.r, q.ell, "atmost")):
        gate = q.ell - p - 1
        for v, cell in level.items():
            assert row[v] is not None and row[v] <= q.ell - p, (p, v, row[v])
            refused += sum(
                dist_t[u] <= gate and (row[u] is None or row[u] > gate) for u in g.out_neighbors[v]
            )
            for (mask, _), link in cell.items():
                path = unwind(v, link).vertices
                assert mask == sum(1 << x for x in path if row[x] < q.ell - p), (p, v, path)
                dropped += any(dist_t[x] < q.ell - p <= row[x] for x in path)
    assert refused > 0 and dropped > 0, (refused, dropped)


def traced_peak(g: ColoredDigraph, q: Query) -> tuple[Witness | None, int]:
    """solve_path's answer and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return solve_path(g, q), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_chain_keeps_memory_linear():
    """Long graphs stay small in memory, whether the DP runs to the end or stops early.

    In a 3,000-vertex chain every seventh vertex i gets a back arc from
    i + 2, so the region of s-t routes spans the whole chain at a budget
    of n - 1; a near set kept for every vertex at every height would hold
    millions of bitmasks. In an 800-vertex line with arcs both ways, s ->
    x_mid -> t hangs off the middle, so in mode "any" the region is the
    whole line though the DP stops at level 2; near sets built for all of
    it at every height would take tens of megabytes.
    """
    n = 3000
    arcs = [(i, i + 1) for i in range(n - 1)] + [(i + 2, i) for i in range(0, n - 2, 7)]
    chain = ColoredDigraph(n, tuple(i % 5 for i in range(n)), tuple(arcs), 0, n - 1)
    n, mid = 800, 400
    arcs = [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
    arcs += [(n, mid), (mid, n + 1)]
    line = ColoredDigraph(n + 2, tuple(i % 3 for i in range(n)) + (3, 4), tuple(arcs), n, n + 1)
    cases = [
        (chain, Query(2, 3000, "atmost"), tuple(range(3000))),
        (chain, Query(2, 0, "any"), tuple(range(3000))),
        (line, Query(2, 0, "any"), (n, mid, n + 1)),
    ]
    for g, q, want in cases:
        tracemalloc.start()
        try:
            mine = solve_path(g, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mine == Witness(want), (g.n, q)
        assert peak < 16 * 2**20, (g.n, q, peak)


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
    """At a budget of dist + k, a cell holds at most Δ^(max(k, r) - 1) members.

    A member at level p keeps only the visited x with dist(x, t) < ell - p,
    which a completion can still reach under the distance gate. A vertex
    at step i has dist(x, t) >= dist - i, so those are among the last k
    vertices of a path; on a grid Δ is 4. A mask of every vertex within
    the remaining budget of u, ignoring the gate, leaves cells of 32 to
    1,202 members on these grids.
    """
    for cols in (12, 16):
        for k in (3, 4):
            for seed in range(3):
                g = symmetric_grid(4, cols, 16, 1000 * cols + 10 * k + seed)
                q = Query(2, g.dist_to_t[g.s] + k, "atmost")
                stats: dict = {}
                mine = solve_path(g, q, stats=stats)
                ref = oracle_path(g, q)
                assert (mine is None) == (ref is None), (cols, k, seed)
                if mine is not None:
                    assert verify_witness(g, q, mine.vertices, require_path=True) == []
                assert stats["max_cell"] <= 4 ** (max(k, q.r) - 1), (cols, k, seed, stats)


def test_no_heavy_families_match_their_certificates():
    """NO answers that only an exhausted DP proves, each certified without a path oracle.

    In a tight-color DAG at radius 3 every window of four holds all four
    colors, so many budgets past the distance have no path; the graph is
    acyclic, so ``oracle_walk`` answers the path question. The parity
    grid is bipartite with an even s-t distance, so no path has an odd
    length.
    """
    no = 0
    for trial in range(24):
        g = tight_dag(random.Random(80_000 + trial), 20, 8, 4)
        q = Query(3, g.dist_to_t[g.s] + 1 + trial % 3, "exact")
        mine = solve_path(g, q)
        assert (mine is None) == (oracle_walk(g, q) is None), trial
        if mine is None:
            no += 1
        else:
            assert verify_witness(g, q, mine.vertices, require_path=True) == [], trial
    assert no >= 12, no
    grid = parity_grid(6)
    for ell in (11, 13, 15, 17):
        assert solve_path(grid, Query(2, ell, "exact")) is None, ell
