"""Detour solver: shortest distance plus a small slack."""
from __future__ import annotations

import random

from helpers import PruneChecker
from rainbowpaths import (
    ColoredDigraph,
    Query,
    Witness,
    dist_to_target,
    distance_separators,
    gen_random,
    oracle_path,
    segment_window_family,
    solve_detour,
    solve_path,
    solve_walk,
    verify_witness,
)
from rainbowpaths import detour
from rainbowpaths.dispatch import MAX_AUTO_DETOUR


def test_negative_slack_is_no():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    assert solve_detour(g, 2, -1) is None


def test_zero_slack_is_shortest_walk():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    assert solve_detour(g, 2, 0) == Witness((0, 1, 2))
    assert solve_detour(g, 2, 1) == Witness((0, 1, 2))


def test_unreachable_target_is_no():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1),), 0, 2)
    assert solve_detour(g, 1, 2) is None


def test_one_step_detour_around_color_clash():
    # dist(0, 3) = 2 but the two-hop route repeats color 0; the valid
    # path takes one extra hop.
    g = ColoredDigraph(4, (0, 1, 2, 0), ((0, 1), (1, 3), (0, 2), (2, 1)), 0, 3)
    assert solve_detour(g, 2, 0) is None
    assert solve_detour(g, 2, 1) == Witness((0, 2, 1, 3))


def test_witness_respects_distance_budget():
    g = ColoredDigraph(4, (0, 1, 2, 0), ((0, 1), (1, 3), (0, 2), (2, 1)), 0, 3)
    w = solve_detour(g, 2, 3)
    d = dist_to_target(g)
    assert w is not None
    assert d[g.s] <= w.length <= d[g.s] + 3


def test_distance_separators_definition():
    d = [2, 1, 2, 0]
    assert distance_separators((0, 2, 1, 3), d) == [2, 3]
    # Strictly decreasing distances make every position a separator but
    # the first, whose distance never exceeds a later one... it does here.
    assert distance_separators((0, 1, 3), d) == [0, 1, 2]


def segment_lengths(g: ColoredDigraph, u: int, j: int) -> dict[int, list[int]]:
    """Arc counts of the segments from u to each vertex of level j; r = 0, so colors never block."""
    lengths: dict[int, list[int]] = {}
    for v, q, _, segment in segment_window_family(g, dist_to_target(g), u, (), j, 0, 5):
        assert segment[0] == u and segment[-1] == v and len(segment) == q + 1
        lengths.setdefault(v, []).append(q)
    return lengths


def test_segment_band_kinds():
    g = ColoredDigraph(4, (0, 1, 2, 0), ((0, 1), (1, 3), (0, 2), (2, 1)), 0, 3)
    # from the source the band is every level above 1's: 0 -> 1, and 0 -> 2 -> 1 through {2}
    assert segment_lengths(g, g.s, 1) == {1: [1, 2]}
    # an interior band lies strictly between the endpoints' levels: empty from 2 to 1
    assert segment_lengths(g, 2, 1) == {1: [1]}
    # no arc 2 -> 3; the segment runs 2 -> 1 -> 3 through band {1}
    assert segment_lengths(g, 2, 0) == {3: [2]}
    # from 0 to level 1 the band is {1}: the route 0 -> 1 -> 2 -> 4 ends at 2, which is on level 1
    g2 = ColoredDigraph(6, (0, 1, 2, 0, 1, 2), ((5, 0), (0, 1), (1, 2), (2, 3), (2, 4), (4, 3)), 5, 3)
    assert segment_lengths(g2, 0, 1) == {2: [2]}


def test_matches_path_solver_randomized():
    rng = random.Random(91)
    compared = 0
    for trial in range(120):
        g, _ = gen_random(rng.randint(2, 8), 0.35, rng.randint(1, 4), 0, 0, seed=13000 + trial)
        r = rng.randint(1, 3)
        k = rng.randint(0, 3)
        d = dist_to_target(g)[g.s]
        mine = solve_detour(g, r, k)
        if d is None:
            assert mine is None
            continue
        compared += 1
        ref = solve_path(g, Query(r, d + k, "atmost"))
        assert (mine is None) == (ref is None), (trial, r, k)
        if mine is not None:
            assert verify_witness(g, Query(r, d + k, "atmost"), mine.vertices, require_path=True) == []
    assert compared >= 60


def test_zero_slack_matches_walk_solver_randomized():
    rng = random.Random(101)
    for trial in range(80):
        g, _ = gen_random(rng.randint(2, 8), 0.35, rng.randint(1, 4), 0, 0, seed=15000 + trial)
        r = rng.randint(1, 3)
        d = dist_to_target(g)[g.s]
        mine = solve_detour(g, r, 0)
        if d is None:
            assert mine is None
            continue
        ref = solve_walk(g, Query(r, d, "atmost"))
        assert (mine is None) == (ref is None), trial


def test_witness_separator_segments_stay_short():
    rng = random.Random(111)
    for trial in range(80):
        g, _ = gen_random(rng.randint(3, 8), 0.4, rng.randint(2, 4), 0, 0, seed=17000 + trial)
        k = rng.randint(0, 3)
        w = solve_detour(g, 2, k)
        if w is None:
            continue
        d = dist_to_target(g)
        seps = distance_separators(w.vertices, d)
        assert seps and seps[-1] == len(w.vertices) - 1
        anchors = [0] + seps
        for a, b in zip(anchors, anchors[1:]):
            assert b - a <= 2 * k + 1


def test_matches_oracle_at_auto_dispatch_maximum():
    """Detour slack k = MAX_AUTO_DETOUR, the largest auto dispatch sends here."""
    k = MAX_AUTO_DETOUR
    rng = random.Random(141)
    yes = no = 0
    for trial in range(100):
        n = rng.randint(2, 10)
        g, _ = gen_random(n, rng.choice((0.25, 0.4)), rng.randint(1, 4), 0, 0, seed=21000 + trial)
        r = rng.randint(1, 3)
        d = dist_to_target(g)[g.s]
        mine = solve_detour(g, r, k)
        if d is None:
            assert mine is None
            continue
        q = Query(r, d + k, "atmost")
        ref = oracle_path(g, q)
        assert (mine is None) == (ref is None), (trial, r)
        if mine is None:
            no += 1
        else:
            yes += 1
            assert verify_witness(g, q, mine.vertices, require_path=True) == []
    assert yes >= 20 and no >= 10, (yes, no)


def fan_graph(rng: random.Random, blocked: bool) -> ColoredDigraph:
    """s feeds 45+ vertices of distinct colours, they feed 2-4 middle vertices, and those feed t.

    Each middle vertex hears from about 80% of the fan, so its radius-2
    window cell outgrows ordered_bound(2) and is pruned. Six random arcs
    among the fan and middle vertices open detours. With ``blocked``, the
    middle vertices take t's colour, so every arc into t is monochromatic.
    """
    fan = list(range(2, 2 + rng.randint(45, 50)))
    middle = list(range(fan[-1] + 1, fan[-1] + 1 + rng.randint(2, 4)))
    n = middle[-1] + 1
    colors = [0, n - 1] + list(range(1, n - 1))
    if blocked:
        for w in middle:
            colors[w] = colors[1]
    arcs = {(0, a) for a in fan} | {(w, 1) for w in middle}
    arcs |= {(a, w) for a in fan for w in middle if rng.random() < 0.8}
    extra = set()
    while len(extra) < 6:
        arc = tuple(rng.sample(fan + middle, 2))
        if arc not in arcs:
            extra.add(arc)
    dense = {c: i for i, c in enumerate(sorted(set(colors)))}
    return ColoredDigraph(n, tuple(dense[c] for c in colors), tuple(sorted(arcs | extra)), 0, 1)


def test_detour_cells_prune_inside_solves(monkeypatch):
    """Fan graphs make the detour DP prune its window cells, and answers still match the oracle.

    The first prunes of each trial are checked to keep an ordered
    representative of their cell.
    """
    rng = random.Random(151)
    rep_calls = yes = no = 0
    checker = PruneChecker(monkeypatch, detour, per_trial=3)
    for trial in range(12):
        checker.next_trial()
        g = fan_graph(rng, blocked=trial % 3 == 2)
        d = dist_to_target(g)[g.s]
        for k in (1, 2):
            stats: dict = {}
            mine = solve_detour(g, 2, k, stats=stats)
            q = Query(2, d + k, "atmost")
            ref = oracle_path(g, q)
            assert (mine is None) == (ref is None), (trial, k)
            if mine is None:
                no += 1
            else:
                yes += 1
                assert verify_witness(g, q, mine.vertices, require_path=True) == []
            rep_calls += stats.get("rep_calls", 0)
    print(f"detour fan graphs: {rep_calls} prunes ({checker.checked} checked), {yes} YES, {no} NO")
    assert rep_calls >= 50 and yes >= 12 and no >= 6, (rep_calls, yes, no)
    assert checker.checked >= 24, checker.checked


def test_matches_oracle_on_sparse_graphs_at_distance_four():
    """G(60, 0.05) graphs at s-t distance 4 with r = 2 and k = 1..4, the benchmark's detour shape.

    Several separators share a distance level there, and bands from the
    source reach past the source's own level.
    """
    seed = 25000
    yes = no = 0
    for trial in range(40):
        while True:
            g, _ = gen_random(60, 0.05, 6, 0, 0, seed=seed)
            seed += 1
            if dist_to_target(g)[g.s] == 4:
                break
        k = 1 + trial % 4
        q = Query(2, 4 + k, "atmost")
        mine = solve_detour(g, 2, k)
        ref = oracle_path(g, q)
        assert (mine is None) == (ref is None), (trial, k)
        if mine is None:
            no += 1
        else:
            yes += 1
            assert verify_witness(g, q, mine.vertices, require_path=True) == []
    print(f"sparse distance-4 graphs: {yes} YES, {no} NO")
    assert yes >= 20 and no >= 8, (yes, no)
