"""Path DP, its projection dedupe and prune, and the symmetric r=2 shortcut."""
from __future__ import annotations

import random

import pytest

from rainbowpaths import (
    ColoredDigraph,
    Query,
    Witness,
    dist_from_source,
    dist_to_target,
    gen_random,
    oracle_path,
    solve_path,
    solve_r2_symmetric,
    solve_walk,
    unordered_bound,
    verify_witness,
)
from rainbowpaths import path
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
    for trial in range(150):
        g, q = gen_random(
            rng.randint(2, 8),
            rng.choice((0.25, 0.45)),
            rng.randint(1, 4),
            rng.randint(0, 3),
            rng.randint(0, 8),
            seed=11000 + trial,
            mode=rng.choice(("atmost", "exact")),
        )
        mine = solve_path(g, q)
        ref = oracle_path(g, q)
        assert (mine is None) == (ref is None), (trial, q)
        if mine is not None:
            assert verify_witness(g, q, mine.vertices, require_path=True) == []


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
                row = dist_from_source(g, u)
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


def test_pruned_path_cells_match_oracle(monkeypatch):
    """With the prune threshold at 2, path cells get pruned and answers hold.

    Each prune keeps at most unordered_bound(set size, budget) members, and
    some prunes drop members. Lengths shrink with the radius to keep the
    numpy minors affordable. The last 40 instances are dense radius-1
    graphs at exact lengths 4 and 5, whose level-2 cells gather many
    two-arc paths that differ in one vertex a completion can still reach;
    the prunes that drop members come from them.
    """
    monkeypatch.setattr(path, "PRUNE_THRESHOLD", 2)
    prunes = []
    representative = path.representative_keep

    def recording(sets, universe, q):
        kept = representative(sets, universe, q)
        if kept is not None:
            prunes.append((len(sets[0]), q, len(sets), len(kept)))
        return kept

    monkeypatch.setattr(path, "representative_keep", recording)
    rng = random.Random(97)
    rep_calls = 0
    # at-most solves stop at the first level holding t, which most of them
    # reach before any cell is pruned, and the dedupe leaves most cells with
    # one member, so 100 prunes take 850 instances
    for trial in range(890):
        if trial < 850:
            n = rng.randint(5, 9)
            r = rng.randint(1, 3)
            g, q = gen_random(
                n,
                rng.choice((0.4, 0.6)),
                rng.randint(3, 6),
                r,
                rng.randint(2, 8 - 2 * r),
                seed=31000 + trial,
                mode=rng.choice(("atmost", "exact")),
            )
        else:
            g, q = gen_random(
                rng.randint(8, 10),
                0.8,
                rng.randint(5, 8),
                1,
                rng.choice((4, 5)),
                seed=31000 + trial,
                mode="exact",
            )
        stats: dict = {}
        mine = solve_path(g, q, stats=stats)
        ref = oracle_path(g, q)
        assert (mine is None) == (ref is None), (trial, q)
        if mine is not None:
            assert verify_witness(g, q, mine.vertices, require_path=True) == []
        rep_calls += stats.get("rep_calls", 0)
    assert rep_calls == len(prunes) >= 100, rep_calls
    for set_size, budget, rows, kept in prunes:
        assert rows > 2
        assert kept <= unordered_bound(set_size, budget), (set_size, budget, rows, kept)
    assert sum(kept < rows for _, _, rows, kept in prunes) >= 5


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


def test_r2_symmetric_on_grid_like_graph():
    rng = random.Random(71)
    import helpers

    checked = 0
    for trial in range(200):
        g = helpers.symmetric_no_mono_graph(rng, rng.randint(2, 8), rng.randint(2, 4), 0.4)
        if g is None:
            continue
        d = dist_to_target(g)
        dist = d[g.s]
        if dist is None:
            continue
        checked += 1
        mine = solve_r2_symmetric(g, dist)
        ref = solve_walk(g, Query(2, dist, "atmost"))
        assert (mine is None) == (ref is None), trial
        if mine is not None:
            assert mine.length == dist
            assert verify_witness(g, Query(2, dist, "atmost"), mine.vertices, require_path=True) == []
    assert checked >= 50


def test_r2_symmetric_refusals():
    asym = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    with pytest.raises(ValueError):
        solve_r2_symmetric(asym, 2)
    mono = ColoredDigraph(2, (0, 0), ((0, 1), (1, 0)), 0, 1)
    with pytest.raises(ValueError):
        solve_r2_symmetric(mono, 1)
    sym = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 0), (1, 2), (2, 1)), 0, 2)
    with pytest.raises(ValueError):
        solve_r2_symmetric(sym, 3)
