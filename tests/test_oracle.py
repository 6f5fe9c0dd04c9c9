"""Brute-force reference solvers."""
from __future__ import annotations

import random

import pytest

from rainbowpaths import (
    ColoredDigraph,
    Query,
    Witness,
    gen_random,
    oracle_3sat,
    oracle_path,
    oracle_phs,
    oracle_walk,
    verify_witness,
)


def chain(colors):
    n = len(colors)
    arcs = tuple((i, i + 1) for i in range(n - 1))
    return ColoredDigraph(n, tuple(colors), arcs, 0, n - 1)


def test_walk_chain_yes():
    g = chain((0, 1, 2))
    for mode in ("atmost", "exact"):
        assert oracle_walk(g, Query(2, 2, mode)) == Witness((0, 1, 2))


def test_walk_chain_too_short_budget():
    g = chain((0, 1, 2))
    assert oracle_walk(g, Query(2, 1, "atmost")) is None


def test_walk_rainbow_violation():
    g = chain((0, 0, 1))
    assert oracle_walk(g, Query(1, 2, "atmost")) is None
    assert oracle_walk(g, Query(0, 2, "atmost")) == Witness((0, 1, 2))


def test_walk_budget_zero():
    g = chain((0, 1))
    assert oracle_walk(g, Query(1, 0, "atmost")) is None


def test_walk_any_mode_needs_long_detour():
    # Exit color 0 clashes with the first window at vertex 1, so the walk
    # must lap the cycle 1 -> 2 -> 3 -> 1 before leaving; length 5 > n - 1.
    g = ColoredDigraph(
        5, (0, 1, 2, 3, 0), ((0, 1), (1, 2), (2, 3), (3, 1), (1, 4)), 0, 4
    )
    w = oracle_walk(g, Query(2, 0, "any"))
    assert w == Witness((0, 1, 2, 3, 1, 4))
    assert verify_witness(g, Query(2, 0, "any"), w.vertices) == []


def test_walk_exact_vs_atmost_consistency():
    rng = random.Random(5)
    for trial in range(60):
        g, _ = gen_random(
            rng.randint(2, 7), 0.4, rng.randint(1, 3), 0, 0, seed=trial
        )
        r = rng.randint(0, 3)
        ell = rng.randint(0, 7)
        atmost = oracle_walk(g, Query(r, ell, "atmost"))
        if atmost is None:
            for l2 in range(ell + 1):
                assert oracle_walk(g, Query(r, l2, "exact")) is None
        else:
            # the atmost witness is a shortest one: no shorter exact query is YES
            shortest = next(
                l2 for l2 in range(ell + 1) if oracle_walk(g, Query(r, l2, "exact")) is not None
            )
            assert atmost.length == shortest


def test_walk_refuses_oversized_state_space():
    g, _ = gen_random(40, 0.3, 6, 0, 0, seed=5)
    with pytest.raises(ValueError):
        oracle_walk(g, Query(12, 10, "atmost"))


def test_path_rejects_revisits():
    g = ColoredDigraph(4, (0, 1, 2, 1), ((0, 1), (1, 2), (2, 0), (0, 3)), 0, 3)
    q = Query(2, 4, "exact")
    assert oracle_walk(g, q) == Witness((0, 1, 2, 0, 3))
    assert oracle_path(g, q) is None
    assert oracle_path(g, Query(2, 4, "atmost")) == Witness((0, 3))


def test_path_witnesses_are_paths():
    rng = random.Random(11)
    for trial in range(60):
        g, _ = gen_random(rng.randint(2, 7), 0.45, rng.randint(1, 3), 0, 0, seed=1000 + trial)
        q = Query(rng.randint(0, 2), rng.randint(0, 6), "atmost")
        w = oracle_path(g, q)
        if w is not None:
            assert verify_witness(g, q, w.vertices, require_path=True) == []


def test_phs_singleton():
    assert oracle_phs(1, [{(1, 1)}]) == (1,)
    with pytest.raises(ValueError, match="limited to k <= 8, got 9"):
        oracle_phs(9, [{(1, 1)}])


def test_phs_conflicting_pins():
    assert oracle_phs(2, [{(1, 1)}, {(1, 2)}]) is None


def test_phs_needs_real_permutation():
    # Hitting both families forces the identity on k = 2.
    assert oracle_phs(2, [{(1, 1)}, {(2, 2)}]) == (1, 2)


def test_phs_hit_property_random():
    rng = random.Random(3)
    from itertools import permutations

    for trial in range(40):
        k = rng.randint(1, 3)
        m = rng.randint(1, 3)
        pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
        sets = [set(rng.sample(pairs, rng.randint(1, len(pairs)))) for _ in range(m)]
        got = oracle_phs(k, sets)
        brute = None
        for perm in permutations(range(1, k + 1)):
            if all(any(perm[i - 1] == j for i, j in fam) for fam in sets):
                brute = perm
                break
        assert (got is None) == (brute is None)
        if got is not None:
            assert sorted(got) == list(range(1, k + 1))
            assert all(any(got[i - 1] == j for i, j in fam) for fam in sets)


def test_3sat_satisfiable():
    model = oracle_3sat([(1, 2, 3), (-1, 2, 3)])
    assert model is not None
    with pytest.raises(ValueError, match="limited to 20 variables, got 21"):
        oracle_3sat([(v, v + 1, v + 2) for v in range(1, 20)])
    for clause in [(1, 2, 3), (-1, 2, 3)]:
        assert any(model[abs(l)] == (l > 0) for l in clause)


def test_3sat_unsatisfiable():
    clauses = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    assert oracle_3sat(clauses) is None
