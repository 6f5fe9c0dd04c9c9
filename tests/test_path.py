"""Path search and the near-set projection its keys store."""
from __future__ import annotations

import random
import tracemalloc
from collections import Counter

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
from rainbowpaths.core import rainbow_distances
from rainbowpaths.path import _path_search
from reference import gated_prefixes


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
    # the search reads mode "any" itself and runs at budget n - 1
    witness, keys = _path_search(g, 2, 0, "any")
    assert witness == Witness((0, 1, 2))
    assert sorted(key[:2] for key in keys) == [(0, 0), (1, 1), (2, 2)]


def test_atmost_budget_clamps_to_n_minus_one():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    assert solve_path(g, Query(2, 99, "atmost")) == Witness((0, 1, 2))
    # the search clamps the budget itself; exact past n - 1 enters no key
    witness, keys = _path_search(g, 2, 99, "atmost")
    assert witness == Witness((0, 1, 2))
    assert max(p for p, *_ in keys) == 2
    stats: dict = {}
    assert _path_search(g, 2, 3, "exact", stats) == (None, set())
    assert stats == {"levels": 0, "total_members": 0}


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
    # vertex 2 is entered at level 1 by 0 -> 2 and at level 2 by 0 -> 3 -> 2,
    # both with near mask {0, 2} and window (0,); only the second has the
    # two arcs 2 -> 1 -> 4 left that exact length 4 needs, so a key that
    # failed at one level says nothing about another
    arcs = ((0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 1), (2, 3), (2, 4), (3, 2), (4, 0))
    instances.append((ColoredDigraph(5, (1, 1, 0, 2, 0), arcs, 0, 4), Query(1, 4, "exact")))
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
    """The near-set projection is the path search's only key reducer, however many keys one cell holds.

    Two sides of 8 vertices with arcs both ways between them, in distinct
    colors, and t entered from side A only: s is on side A, so every s-t
    path has odd length and exact length 10 is NO, which only an
    exhausted search proves. Far from t every visited vertex stays in the
    mask, so one level and vertex hold thousands of keys.
    """
    a, t = 8, 16
    arcs = [(x, y) for x in range(a) for y in range(a, 2 * a)]
    arcs += [(y, x) for x, y in arcs] + [(x, t) for x in range(1, a)]
    g = ColoredDigraph(2 * a + 1, tuple(range(2 * a + 1)), tuple(arcs), 0, t)
    stats: dict = {}
    witness, keys = _path_search(g, 2, 10, "exact", stats)
    assert witness is None
    cells = Counter((p, u) for p, u, *_ in keys)
    # 4096 was the old prune threshold
    assert max(cells.values()) > 4096, max(cells.values())
    assert stats == {"levels": 9, "total_members": len(keys), "max_cell": max(cells.values())}
    mine = solve_path(g, Query(2, 11, "exact"))
    assert mine is not None
    assert verify_witness(g, Query(2, 11, "exact"), mine.vertices, require_path=True) == []


def test_cells_hold_one_member_per_forward_projection():
    """Each key the search enters is the key of a gated simple prefix, and a NO enters all of them.

    ``reference.gated_prefixes`` lists the paths from s whose vertex at
    step i has a rainbow row of at most ell - i, by key: the level p, the
    last vertex u, the mask of the path's x whose row is below ell - p,
    and the last min(r, p + 1) colors padded on the left with -1 (the
    package's ``_PAD``) to r. The row is never below dist(x, t), so with k = ell - dist(s, t)
    each masked vertex sits at step p - k + 1 or later, and a mask holds
    at most the last k vertices. A YES stops the search early, so its
    keys are a subset; a NO exhausts it, so its keys are all of them.
    Some cells hold several keys, and some keys stand for several
    prefixes, which the search entered once.
    """
    rng = random.Random(47)
    shared = merged = tight = no = 0
    for trial in range(90):
        n = rng.randint(4, 9)
        g, _ = gen_random(n, 0.45, rng.randint(2, 5), 0, 0, seed=23000 + trial)
        ell = rng.randint(2, n - 1)
        r = rng.randint(1, 3)
        row = rainbow_distances(g, r)
        prefixes = gated_prefixes(g, r, ell, row)
        witness, keys = _path_search(g, r, ell, "exact")
        if witness is None:
            no += 1
            assert keys == set(prefixes), trial
        else:
            assert keys <= set(prefixes), trial
            assert verify_witness(g, Query(r, ell, "exact"), witness.vertices, require_path=True) == []
        for p, u, mask, window in keys:
            k = ell - g.dist_to_t[g.s]
            for path in prefixes[p, u, mask, window]:
                kept = [i for i, x in enumerate(path) if row[x] < ell - p]
                assert all(i >= p - k + 1 for i in kept), (trial, p, u, path, k)
                # the bound is met with equality by a vertex other than u
                tight += p - k + 1 in kept and p - k + 1 < p
            merged += len(prefixes[p, u, mask, window]) > 1
        shared += sum(size > 1 for size in Counter((p, u) for p, u, *_ in keys).values())
    assert no >= 70, no
    assert shared >= 25, shared
    assert merged >= 20, merged
    assert tight >= 100, tight


def test_sat_levels_follow_the_rainbow_row():
    """The 3-SAT reduction's gate and near sets read the rainbow row, which its shortcuts lengthen.

    Its clause bypasses give s-t routes of 4 arcs whose colors repeat
    within radius 2, while every rainbow route has ell = 32 arcs, so exact
    length 33 is NO and exhausts the search. The search is exact under a
    dist_t gate too, so only its keys show which row it read: each vertex
    u at level p has ``row[u] <= ell - p``, some key's successor passes the
    dist_t gate and fails the row, and the keys are those of the gated
    simple prefixes under the row, whose masks hold exactly the path's x
    with ``row[x] < ell - p`` and so drop path vertices that a dist_t near
    set would keep.
    """
    g, q = gen_3sat_instance(CnfInput(((1, 2, 3), (1, -2, -3), (-1, 2, -3), (-1, -2, 3))))
    mine = solve_path(g, q)
    assert mine is not None
    assert verify_witness(g, q, mine.vertices, require_path=True) == []
    ell = q.ell + 1
    row, dist_t = rainbow_distances(g, q.r), g.dist_to_t
    witness, keys = _path_search(g, q.r, ell, "exact")
    prefixes = gated_prefixes(g, q.r, ell, row)
    assert witness is None and keys == set(prefixes)
    refused = dropped = 0
    for p, v, mask, window in keys:
        gate = ell - p - 1
        assert row[v] is not None and row[v] <= ell - p, (p, v, row[v])
        refused += sum(dist_t[u] <= gate and (row[u] is None or row[u] > gate) for u in g.out_neighbors[v])
        for path in prefixes[p, v, mask, window]:
            dropped += any(dist_t[x] < ell - p <= row[x] for x in path)
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
                mine, keys = _path_search(g, q.r, q.ell, q.mode)
                ref = oracle_path(g, q)
                assert (mine is None) == (ref is None), (cols, k, seed)
                if mine is not None:
                    assert verify_witness(g, q, mine.vertices, require_path=True) == []
                biggest = max(Counter((p, u) for p, u, *_ in keys).values())
                assert biggest <= 4 ** (max(k, q.r) - 1), (cols, k, seed, biggest)


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
