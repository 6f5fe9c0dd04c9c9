"""Path DP, segment window families, and the symmetric r=2 shortcut."""
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
    r_compatible,
    segment_window_family,
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
    """After dedupe, no two members of a cell agree on what is still reachable.

    The projection of a member at level p in the cell of u keeps the visited
    vertices within ell - p arcs of u, measured here by a fresh BFS from u.
    Visited sets are vertex bitmasks, decoded here to the vertices they hold.
    """
    rng = random.Random(47)
    shared = 0
    for trial in range(60):
        n = rng.randint(4, 9)
        g, _ = gen_random(n, 0.45, rng.randint(2, 5), 0, 0, seed=23000 + trial)
        ell = rng.randint(2, n - 1)
        r = rng.randint(1, 3)
        levels = _path_levels(
            g.out_neighbors, g.colors, dist_to_target(g), g.s, (g.colors[g.s],), g.t, r, ell, "exact"
        )
        for p, level in enumerate(levels[1:], start=1):
            for u, cell in level.items():
                row = dist_from_source(g, u)
                keys = {
                    (
                        tuple(
                            x
                            for x in range(g.n)
                            if visited >> x & 1 and row[x] is not None and row[x] <= ell - p
                        ),
                        window,
                    )
                    for visited, window in cell
                }
                assert len(keys) == len(cell), (trial, p, u)
                shared += len(cell) > 1
    assert shared >= 40, shared


def test_pruned_path_cells_match_oracle(monkeypatch):
    """With the prune threshold at 2, path cells get pruned and answers hold.

    Each prune keeps at most unordered_bound(set size, budget) members, and
    some prunes drop members. Lengths shrink with the radius to keep the
    numpy minors affordable.
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
    # reach before any cell is pruned, so 100 prunes take 450 instances
    for trial in range(450):
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


def two_route_graph() -> ColoredDigraph:
    """Two parallel two-hop routes from 0 to 3 with distinct middle colors, then 3 -> 4 = t."""
    return ColoredDigraph(5, (0, 1, 2, 3, 1), ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4)), 0, 4)


def test_segment_window_family_enumerates_windows():
    g = two_route_graph()
    d = dist_to_target(g)
    fam = segment_window_family(g, d, 0, (0,), d[3], 2, 2)
    windows = sorted(w for v, q, w, _ in fam)
    assert windows == [(1, 3), (2, 3)]
    for v, q, window, vertices in fam:
        assert (v, q) == (3, 2)
        assert vertices[0] == 0 and vertices[-1] == 3
        assert len(vertices) == 3


def test_segment_window_family_respects_incoming_context():
    g = two_route_graph()
    d = dist_to_target(g)
    # An incoming color 1 just before u rules out the route through the
    # color-1 middle vertex: its length-3 window would read (1, 0, 1).
    fam = segment_window_family(g, d, 0, (1, 0), d[3], 2, 2)
    assert sorted(w for v, q, w, _ in fam) == [(2, 3)]


def test_segment_window_family_band_follows_distances():
    g = two_route_graph()
    d = dist_to_target(g)
    # from s the band is every level above 3's; its two routes both end at 3
    fam = segment_window_family(g, d, 0, (0,), d[3], 2, 3)
    assert len(fam) == 2
    # no level lies strictly between d[1] and d[3], so from 1 only the arc 1 -> 3 is a segment
    assert [(v, q) for v, q, _, _ in segment_window_family(g, d, 1, (0, 1), d[3], 2, 3)] == [(3, 1)]


def test_segment_windows_feed_compatibility_checks():
    g = two_route_graph()
    d = dist_to_target(g)
    fam = {w: segment for v, q, w, segment in segment_window_family(g, d, 0, (0,), d[3], 2, 2)}
    # Continuing with color 1 works after the color-2 route only.
    assert r_compatible((2, 3), (1,), 2)
    assert not r_compatible((1, 3), (1,), 2)
    assert set(fam) == {(1, 3), (2, 3)}


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
