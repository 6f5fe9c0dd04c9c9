"""Library dispatch: auto answers match the path oracle, forced solvers refuse."""
from __future__ import annotations

import random
from collections import Counter

import pytest

import helpers
from rainbowpaths import (
    ColoredDigraph,
    Query,
    core,
    dist_from_source,
    gen_random,
    oracle_path,
    path,
    solve,
    verify_witness,
)

AUTO_NAMES = {"unreachable", "walk-dp", "path-dp"}


def check_auto(g: ColoredDigraph, q: Query, names: Counter) -> str:
    witness, name = solve(g, q)
    names[name] += 1
    reference = oracle_path(g, q)
    assert (witness is None) == (reference is None), (g, q, name)
    if witness is not None:
        assert verify_witness(g, q, witness.vertices, require_path=True) == [], (g, q, name)
    return name


def test_auto_dispatch_matches_path_oracle():
    rng = random.Random(2024)
    names: Counter = Counter()
    for seed in range(1000):
        n = rng.randint(2, 8)
        g, q = gen_random(
            n,
            rng.uniform(0.3, 0.8),
            rng.randint(1, 4),
            rng.randint(0, 3),
            rng.randint(0, 8),
            seed,
            rng.choice(("atmost", "exact", "any")),
        )
        check_auto(g, q, names)
    symmetric = 0
    while symmetric < 20:
        g = helpers.symmetric_no_mono_graph(rng, rng.randint(3, 8), rng.randint(2, 4), 0.4)
        dist = dist_from_source(g)[g.t] if g is not None else None
        if dist is None:
            continue
        symmetric += 1
        # at the distance, r = 2 goes to the walk solver like every larger radius
        assert check_auto(g, Query(2, dist, rng.choice(("atmost", "exact"))), names) == "walk-dp"
    assert set(names) == AUTO_NAMES, names


def test_an_auto_solve_runs_one_bfs(monkeypatch):
    """An auto solve runs one plain BFS; a path-dp solve at r >= 2 also searches for one rainbow row.

    Auto reads dist(s, t) from ``g.dist_to_t``, the row both walk engines
    gate on, so a fresh graph runs one BFS over the plain graph. The path
    question gates on ``rainbow_distances(g, r)``: at r <= 1 that is
    ``g.dist_to_t`` again, and at r >= 2 a search of its own.
    """
    calls = []
    searched = []
    bfs, rainbow = core.bfs_distances, path.rainbow_distances

    def counted(adj, source):
        calls.append(source)
        return bfs(adj, source)

    def counted_row(g, r):
        row = rainbow(g, r)
        if row is not g.dist_to_t:
            searched.append(r)
        return row

    monkeypatch.setattr(core, "bfs_distances", counted)
    monkeypatch.setattr(path, "rainbow_distances", counted_row)
    g = ColoredDigraph(4, (0, 1, 2, 1), ((0, 1), (1, 2), (2, 0), (0, 3)), 0, 3)
    cases = (
        (Query(2, 4, "atmost"), "path-dp", [2]),
        (Query(1, 3, "exact"), "path-dp", []),
        (Query(0, 3, "exact"), "path-dp", []),
        (Query(2, 1, "exact"), "walk-dp", []),
    )
    for q, want, want_searched in cases:
        calls.clear()
        searched.clear()
        fresh = ColoredDigraph(g.n, g.colors, g.arcs, g.s, g.t)
        assert solve(fresh, q)[1] == want
        assert calls == [g.t], (q, calls)
        assert searched == want_searched, (q, searched)


def test_forced_solver_refusals_raise_value_error():
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    with pytest.raises(ValueError, match="unknown solver"):
        solve(g, Query(1, 2, "atmost"), "bogus")
    # radius-1 and any-length walks have no solver name of their own: they run as "walk"
    for name in ("r1", "any-walk"):
        with pytest.raises(ValueError, match="unknown solver"):
            solve(g, Query(1, 2, "atmost"), name)
