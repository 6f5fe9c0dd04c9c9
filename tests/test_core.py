"""Window predicates, slot encodings, and graph plumbing."""
from __future__ import annotations

import itertools
import random
import re
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from rainbowpaths import (
    ColoredDigraph,
    Query,
    Witness,
    dist_from_source,
    gen_random,
    is_locally_rainbow,
    slot_set,
    verify_witness,
)
from rainbowpaths.core import bfs_distances, rainbow_distances
from reference import blocked_slots, r_compatible


def test_locally_rainbow_windows_clamp_to_length():
    assert is_locally_rainbow((5,), 7)
    assert is_locally_rainbow((), 3)
    assert is_locally_rainbow((1, 2, 1), 1)
    assert not is_locally_rainbow((1, 2, 1), 2)
    assert is_locally_rainbow((0, 1, 2, 0), 2)
    assert not is_locally_rainbow((0, 1, 1), 2)
    # every sequence over 3 colors of length 0-6 at r = 0-4, against the
    # definition: each window of min(r + 1, len) entries is distinct
    for length in range(7):
        for colors in itertools.product(range(3), repeat=length):
            for r in range(5):
                w = min(r + 1, length)
                windows = (colors[i : i + w] for i in range(length - w + 1))
                assert is_locally_rainbow(colors, r) == all(len(set(win)) == w for win in windows), (colors, r)


def test_locally_rainbow_r_zero_accepts_anything():
    assert is_locally_rainbow((4, 4, 4), 0)
    with pytest.raises(ValueError, match="^locality r must be non-negative$"):
        is_locally_rainbow((4, 4, 4), -1)


def test_locally_rainbow_monotone_in_locality():
    # Passing at some r implies passing at every smaller r.
    samples = [(1, 2, 3, 1), (0, 1, 0, 2), (2, 0, 1, 2, 0)]
    for colors in samples:
        for r in range(5):
            if is_locally_rainbow(colors, r):
                for smaller in range(r):
                    assert is_locally_rainbow(colors, smaller)


def test_r_compatible_examples():
    assert r_compatible((1, 2), (3, 1), 2)
    assert not r_compatible((1, 2), (1,), 2)
    assert not r_compatible((1, 2), (3, 2), 2)
    # r = 0 ignores colors entirely
    assert r_compatible((1, 1), (1, 1), 0)
    # An empty continuation is always acceptable.
    assert r_compatible((1,), (), 3)


def test_r_compatible_matches_concatenation_on_rainbow_parts():
    # For rainbow halves, compatibility is exactly the rainbow property
    # of the concatenation.
    parts = [(0,), (1,), (0, 1), (1, 2), (2, 0), (0, 1, 2), (2, 1, 0)]
    for r in (1, 2, 3):
        for a in parts:
            for b in parts:
                if not (is_locally_rainbow(a, r) and is_locally_rainbow(b, r)):
                    continue
                window = a[-r:] if r else ()
                assert r_compatible(window, b, r) == is_locally_rainbow(a + b, r)


def test_blocked_slots_frozen_example():
    assert blocked_slots((1, 2), 2) == frozenset({(1, 1), (2, 1), (2, 2)})
    assert blocked_slots((7,), 1) == frozenset({(7, 1)})
    # Zero locality constrains nothing.
    assert blocked_slots((5, 3), 0) == frozenset()


def test_blocked_slots_rejects_empty_window():
    with pytest.raises(ValueError):
        blocked_slots((), 2)


def test_blocked_slots_size_for_full_rainbow_window():
    # A rainbow window of length L <= r blocks L*r - L*(L-1)/2 slots.
    for r in (1, 2, 3, 4):
        for length in range(1, r + 1):
            window = tuple(range(length))
            expect = length * r - length * (length - 1) // 2
            assert len(blocked_slots(window, r)) == expect
    # Beyond length r only the last r entries matter: r*(r+1)/2 slots.
    for r in (1, 2, 3):
        for length in range(r + 1, r + 4):
            window = tuple(range(length))
            assert len(blocked_slots(window, r)) == r * (r + 1) // 2


def test_slot_set_encodes_blocked_slots():
    rng = random.Random(17)
    for _ in range(500):
        r = rng.randint(0, 4)
        # windows up to r + 2 long, often repeating a color
        window = tuple(rng.randrange(rng.randint(1, 6)) for _ in range(rng.randint(1, r + 2)))
        want = tuple(sorted(c * r + i - 1 for c, i in blocked_slots(window, r)))
        assert slot_set(window, r) == want, (window, r)
    assert slot_set((2, 0), 2) == (0, 1, 4)
    with pytest.raises(ValueError):
        slot_set((), 2)


def test_slot_disjointness_decides_compatibility():
    sigma, rho, r = (1, 2), (3, 1), 2
    disjoint = not (set(slot_set(sigma, r)) & helpers.claimed_slots(rho, r))
    assert disjoint == r_compatible(sigma, rho, r)


def test_digraph_validation_errors():
    with pytest.raises(ValueError):
        ColoredDigraph(1, (0,), (), 0, 0)
    with pytest.raises(ValueError):
        ColoredDigraph(2, (0, 2), ((0, 1),), 0, 1)
    with pytest.raises(ValueError):
        ColoredDigraph(2, (0, 1), ((0, 0),), 0, 1)
    with pytest.raises(ValueError):
        ColoredDigraph(2, (0, 1), ((0, 1), (0, 1)), 0, 1)
    with pytest.raises(ValueError):
        ColoredDigraph(2, (0, 1), ((0, 1),), 0, 0)


def test_digraph_accessors():
    g = ColoredDigraph(4, (0, 1, 2, 1), ((0, 1), (1, 2), (2, 0), (0, 3)), 0, 3)
    assert g.out_neighbors[0] == (1, 3)
    assert g.in_neighbors[0] == (2,)
    assert g.num_colors == 3
    assert g.in_neighbors[3] == (0,)


def test_query_validation():
    with pytest.raises(ValueError):
        Query(-1, 0, "atmost")
    with pytest.raises(ValueError):
        Query(1, -1, "atmost")
    with pytest.raises(ValueError):
        Query(1, 0, "bogus")


def test_witness_basics():
    w = Witness((0, 1, 2))
    assert w.length == 2
    assert Witness([0, 1, 2]) == w


@pytest.mark.parametrize("vertices", [(0, "1", 2), (0, 1, 2.7), (0, True, 2)], ids=["str", "float", "bool"])
def test_witness_refuses_non_int_vertices(vertices):
    with pytest.raises(ValueError, match="^witness vertices must be ints"):
        Witness(vertices)


def test_distances():
    g = ColoredDigraph(4, (0, 1, 2, 1), ((0, 1), (1, 2), (2, 0), (0, 3)), 0, 3)
    assert g.dist_to_t == (1, 3, 2, 0)
    assert dist_from_source(g) == [0, 1, 2, 1]
    assert bfs_distances(g.out_neighbors, 2) == [1, 2, 0, 2]


def test_unreachable_distance_is_none():
    g = ColoredDigraph(3, (0, 1, 0), ((0, 1),), 0, 2)
    assert g.dist_to_t == (None, None, 0)


def forward_rainbow_row(g: ColoredDigraph) -> list[int | None]:
    """Per vertex x, a forward BFS from x over (previous color, vertex) states to g.t at radius 2."""
    row: list[int | None] = []
    for x in range(g.n):
        dist = {(None, x): 0}
        queue = deque(dist)
        found = None
        while queue:
            prev, v = state = queue.popleft()
            if v == g.t:
                found = dist[state]
                break
            for y in g.out_neighbors[v]:
                seq = (() if prev is None else (prev,)) + (g.colors[v], g.colors[y])
                nxt = (g.colors[v], y)
                if is_locally_rainbow(seq, 2) and nxt not in dist:
                    dist[nxt] = dist[state] + 1
                    queue.append(nxt)
        row.append(found)
    return row


def test_rainbow_distances_match_a_forward_search():
    """At r >= 2 the row is the fewest arcs of a radius-2 locally rainbow walk to t.

    Rows past r = 2 equal the r = 2 row, and the r <= 1 rows are the
    plain distance row itself. With at most four colors, many vertices
    reach t only through arcs that repeat a color, so their row is None,
    or longer than their distance.
    """
    rng = random.Random(83)
    unreached = longer = 0
    for trial in range(2000):
        g, _ = gen_random(rng.randint(2, 9), rng.uniform(0.2, 0.6), rng.randint(1, 4), 0, 0, 41000 + trial)
        assert rainbow_distances(g, 0) is g.dist_to_t
        assert rainbow_distances(g, 1) is g.dist_to_t
        row = list(rainbow_distances(g, 2))
        assert row == forward_rainbow_row(g), trial
        unreached += sum(d is None and e is not None for d, e in zip(row, g.dist_to_t))
        longer += sum(d is not None and d > e for d, e in zip(row, g.dist_to_t))
        assert rainbow_distances(g, 3) == rainbow_distances(g, 2), trial
    assert unreached >= 3000 and longer >= 300, (unreached, longer)


@given(
    colors=st.lists(st.integers(0, 4), max_size=8),
    r=st.integers(0, 4),
)
def test_locally_rainbow_equals_windowed_distinctness(colors, r):
    """Property: the predicate matches its window-by-window definition."""
    width = r + 1
    expect = all(
        len(set(colors[max(0, i - width + 1): i + 1])) == min(width, i + 1)
        for i in range(len(colors))
    )
    assert is_locally_rainbow(tuple(colors), r) == expect


@given(
    first=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    second=st.lists(st.integers(0, 3), max_size=4),
    r=st.integers(1, 3),
)
def test_compatibility_never_beats_concatenation(first, second, r):
    """Property: compatible rainbow halves concatenate to a rainbow whole."""
    first, second = tuple(first), tuple(second)
    if not (is_locally_rainbow(first, r) and is_locally_rainbow(second, r)):
        return
    window = first[-r:]
    assert r_compatible(window, second, r) == is_locally_rainbow(first + second, r)


def test_verify_witness_accepts_and_refuses():
    g = ColoredDigraph(4, (0, 1, 2, 1), ((0, 1), (1, 2), (2, 0), (0, 3)), 0, 3)
    q = Query(2, 4, "exact")
    walk = (0, 1, 2, 0, 3)
    assert verify_witness(g, q, walk) == []
    assert verify_witness(g, q, (0, 2, 1, 0, 3))
    assert verify_witness(g, q, walk, require_path=True)
    assert verify_witness(g, Query(2, 3, "exact"), walk)
    assert verify_witness(g, Query(2, 3, "atmost"), walk)
    assert verify_witness(g, Query(2, 4, "atmost"), walk) == []
    assert verify_witness(g, Query(2, 0, "any"), walk) == []
    # colors 0 1 2 0 1: the first four vertices repeat a color
    assert verify_witness(g, Query(3, 4, "exact"), walk) == [
        "colors repeat within 4 consecutive vertices (radius 3)"
    ]
    # wrong endpoints
    assert verify_witness(g, q, (1, 2, 0, 3))


# (n, colors, arcs, s, t), and the start of the message each is refused with
DIGRAPH_REFUSALS = {
    "too-few-colors": ((3, (0, 1), ((0, 1),), 0, 1), "expected 3 colors, got 2"),
    "negative-color": ((2, (0, -1), ((0, 1),), 0, 1), "colors must be non-negative"),
    "arc-out-of-range": ((2, (0, 1), ((0, 2),), 0, 1), "arc (0, 2) out of range"),
    "float-arc-end": ((2, (0, 1), ((0, 1.7),), 0, 1), "arc ends must be ints, got 1.7"),
    "str-arc-end": ((2, (0, 1), ((0, "1"),), 0, 1), "arc ends must be ints, got '1'"),
    "bool-arc-end": ((2, (0, 1), ((0, True),), 0, 1), "arc ends must be ints, got True"),
    "float-s": ((2, (0, 1), ((0, 1),), 0.0, 1), "n, s and t must be ints, got 0.0"),
    "float-n": ((3.0, (0, 1, 0), ((0, 1),), 0, 1), "n, s and t must be ints, got 3.0"),
    "float-color": ((2, (0, 1.0), ((0, 1),), 0, 1), "colors must be ints, got 1.0"),
}


@pytest.mark.parametrize("args, message", DIGRAPH_REFUSALS.values(), ids=DIGRAPH_REFUSALS)
def test_digraph_refuses_bad_input(args, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        ColoredDigraph(*args)


@pytest.mark.parametrize("r, ell", [(2.5, 3), (2, 3.0), (True, 3), (2, "3")])
def test_query_refuses_non_int_sizes(r, ell):
    with pytest.raises(ValueError, match=r"^r and ell must be ints, got "):
        Query(r, ell)


@pytest.mark.parametrize(
    "vertices, problems",
    [
        ((), ["witness is empty"]),
        ((0, 4, 3), ["vertex id out of range in (0, 4, 3)"]),
        ((0, 1, 2), ["witness ends at 2, expected t=3"]),
    ],
)
def test_verify_witness_reports_malformed_witnesses(vertices, problems):
    g = ColoredDigraph(4, (0, 1, 2, 1), ((0, 1), (1, 2), (2, 0), (0, 3)), 0, 3)
    assert verify_witness(g, Query(2, 4), vertices) == problems


@pytest.mark.parametrize("vertices", [(0, 1.5, 2), (0, "1", 2), (0, True, 2)])
def test_verify_witness_refuses_non_int_vertices(vertices):
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    with pytest.raises(ValueError, match=r"^witness vertices must be ints, got "):
        verify_witness(g, Query(2, 2), vertices)
