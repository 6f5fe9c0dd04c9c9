"""Detour queries: a budget of the s-t distance plus a small slack k, answered by the path search."""
from __future__ import annotations

import random

from rainbowpaths import (
    ColoredDigraph,
    Query,
    Witness,
    gen_random,
    oracle_path,
    solve,
    solve_path,
    solve_walk,
    verify_witness,
)
from reference import distance_separators


def test_negative_slack_is_no():
    # a budget one below the distance gates out every vertex but s
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    assert solve(g, Query(2, 1, "atmost")) == (None, "path-dp")


def test_zero_slack_is_shortest_walk():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    assert solve(g, Query(2, 2, "atmost")) == (Witness((0, 1, 2)), "walk-dp")
    assert solve(g, Query(2, 3, "atmost")) == (Witness((0, 1, 2)), "path-dp")


def test_unreachable_target_is_no():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1),), 0, 2)
    assert solve(g, Query(1, 3, "atmost")) == (None, "unreachable")
    assert solve_path(g, Query(2, 2, "atmost")) is None


def test_one_step_detour_around_color_clash():
    # dist(0, 3) = 2 but the two-hop route repeats color 0; the valid
    # path takes one extra hop.
    g = ColoredDigraph(4, (0, 1, 2, 0), ((0, 1), (1, 3), (0, 2), (2, 1)), 0, 3)
    assert solve(g, Query(2, 2, "atmost")) == (None, "walk-dp")
    assert solve(g, Query(2, 3, "atmost")) == (Witness((0, 2, 1, 3)), "path-dp")


def test_witness_respects_distance_budget():
    g = ColoredDigraph(4, (0, 1, 2, 0), ((0, 1), (1, 3), (0, 2), (2, 1)), 0, 3)
    d = g.dist_to_t
    w, _ = solve(g, Query(2, d[g.s] + 3, "atmost"))
    assert w is not None
    assert d[g.s] <= w.length <= d[g.s] + 3


def test_distance_separators_definition():
    d = [2, 1, 2, 0]
    assert distance_separators((0, 2, 1, 3), d) == [2, 3]
    # Distances 2, 1, 0 strictly decrease along the path, so every
    # position, the first included, is a separator.
    assert distance_separators((0, 1, 3), d) == [0, 1, 2]


def test_matches_path_solver_randomized():
    rng = random.Random(91)
    compared = 0
    for trial in range(120):
        g, _ = gen_random(rng.randint(2, 8), 0.35, rng.randint(1, 4), 0, 0, seed=13000 + trial)
        r = rng.randint(1, 3)
        k = rng.randint(0, 3)
        d = g.dist_to_t[g.s]
        if d is None:
            assert solve(g, Query(r, k, "atmost"))[0] is None
            continue
        q = Query(r, d + k, "atmost")
        mine, _ = solve(g, q)
        compared += 1
        ref = solve_path(g, q)
        assert (mine is None) == (ref is None), (trial, r, k)
        if mine is not None:
            assert verify_witness(g, q, mine.vertices, require_path=True) == []
    assert compared >= 60


def test_zero_slack_matches_walk_solver_randomized():
    rng = random.Random(101)
    for trial in range(80):
        g, _ = gen_random(rng.randint(2, 8), 0.35, rng.randint(1, 4), 0, 0, seed=15000 + trial)
        r = rng.randint(1, 3)
        d = g.dist_to_t[g.s]
        if d is None:
            continue
        mine = solve_path(g, Query(r, d, "atmost"))
        ref = solve_walk(g, Query(r, d, "atmost"))
        assert (mine is None) == (ref is None), trial


def test_witness_separator_segments_stay_short():
    rng = random.Random(111)
    for trial in range(80):
        g, _ = gen_random(rng.randint(3, 8), 0.4, rng.randint(2, 4), 0, 0, seed=17000 + trial)
        k = rng.randint(0, 3)
        d = g.dist_to_t
        if d[g.s] is None:
            continue
        w, _ = solve(g, Query(2, d[g.s] + k, "atmost"))
        if w is None:
            continue
        seps = distance_separators(w.vertices, d)
        assert seps and seps[-1] == len(w.vertices) - 1
        anchors = [0] + seps
        for a, b in zip(anchors, anchors[1:]):
            assert b - a <= 2 * k + 1


def test_matches_oracle_at_slack_four():
    """Slack k = 4, the largest the benchmark's detour workload asks for."""
    k = 4
    rng = random.Random(141)
    yes = no = 0
    for trial in range(100):
        n = rng.randint(2, 10)
        g, _ = gen_random(n, rng.choice((0.25, 0.4)), rng.randint(1, 4), 0, 0, seed=21000 + trial)
        r = rng.randint(1, 3)
        d = g.dist_to_t[g.s]
        if d is None:
            continue
        q = Query(r, d + k, "atmost")
        mine, _ = solve(g, q)
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

    Each middle vertex hears from about 80% of the fan, so its cell
    gathers dozens of routes with distinct windows. Six random arcs among
    the fan and middle vertices open detours. With ``blocked``, the
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


def test_fan_graph_detours_match_oracle():
    """Fan graphs at slack 1 and 2: many two-arc routes meet at a few middle vertices."""
    rng = random.Random(151)
    yes = no = 0
    for trial in range(12):
        g = fan_graph(rng, blocked=trial % 3 == 2)
        d = g.dist_to_t[g.s]
        for k in (1, 2):
            q = Query(2, d + k, "atmost")
            mine, name = solve(g, q)
            assert name == "path-dp"
            ref = oracle_path(g, q)
            assert (mine is None) == (ref is None), (trial, k)
            if mine is None:
                no += 1
            else:
                yes += 1
                assert verify_witness(g, q, mine.vertices, require_path=True) == []
    print(f"detour fan graphs: {yes} YES, {no} NO")
    assert yes >= 12 and no >= 6, (yes, no)


def test_matches_oracle_on_sparse_graphs_at_distance_four():
    """G(60, 0.05) graphs at s-t distance 4 with r = 2 and k = 1..4, the benchmark's detour shape.

    Auto dispatch sends each to the path search.
    """
    seed = 25000
    yes = no = 0
    for trial in range(40):
        while True:
            g, _ = gen_random(60, 0.05, 6, 0, 0, seed=seed)
            seed += 1
            if g.dist_to_t[g.s] == 4:
                break
        k = 1 + trial % 4
        q = Query(2, 4 + k, "atmost")
        mine, name = solve(g, q)
        assert name == "path-dp"
        ref = oracle_path(g, q)
        assert (mine is None) == (ref is None), (trial, k)
        if mine is None:
            no += 1
        else:
            yes += 1
            assert verify_witness(g, q, mine.vertices, require_path=True) == []
    print(f"sparse distance-4 graphs: {yes} YES, {no} NO")
    assert yes >= 20 and no >= 8, (yes, no)
