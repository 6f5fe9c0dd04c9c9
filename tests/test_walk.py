"""The layered walk DP in modes "atmost", "exact" and "any", at every radius."""
from __future__ import annotations

import random

from helpers import PruneChecker, cell_windows, core_windows, fan, keep_windows
from rainbowpaths import (
    ColoredDigraph,
    Query,
    Witness,
    gen_random,
    oracle_path,
    oracle_walk,
    ordered_bound,
    solve,
    solve_walk,
    verify_witness,
)
from rainbowpaths import repfam, walk
from rainbowpaths.core import _PAD, bfs_distances, unwind
from rainbowpaths.repfam import WindowMemo, window_keep
from reference import is_window_representative


def chain(colors):
    n = len(colors)
    arcs = tuple((i, i + 1) for i in range(n - 1))
    return ColoredDigraph(n, tuple(colors), arcs, 0, n - 1)


def test_chain_walk():
    g = chain((0, 1, 2))
    assert solve_walk(g, Query(2, 2, "exact")) == Witness((0, 1, 2))
    assert solve_walk(g, Query(2, 2, "atmost")) == Witness((0, 1, 2))
    assert solve_walk(g, Query(2, 1, "atmost")) is None


def test_chain_color_repeat_blocks():
    assert solve_walk(chain((0, 0, 1)), Query(1, 2, "atmost")) is None
    assert solve_walk(chain((0, 1, 0)), Query(1, 2, "atmost")) == Witness((0, 1, 2))


def test_r_zero_is_plain_reachability():
    g = chain((0, 0, 0))
    assert solve_walk(g, Query(0, 2, "atmost")) == Witness((0, 1, 2))


def test_any_mode_answers():
    assert solve_walk(chain((0, 1)), Query(1, 0, "any")) == Witness((0, 1))
    assert solve_walk(chain((0, 1, 0)), Query(2, 0, "any")) is None
    # the budget is ignored: a bound of 0 arcs still finds the 2-arc walk
    assert solve_walk(chain((0, 1, 2)), Query(2, 0, "any")) == Witness((0, 1, 2))
    # the level loop reads mode "any" itself and sets no budget
    assert 2 in walk._last_level(chain((0, 1, 2)), 2, 0, "any", None)


def test_walk_matches_oracle_randomized():
    rng = random.Random(21)
    for trial in range(150):
        g, q = gen_random(
            rng.randint(2, 8),
            rng.choice((0.2, 0.4)),
            rng.randint(1, 4),
            rng.randint(1, 3),
            rng.randint(0, 9),
            seed=5000 + trial,
            mode=rng.choice(("atmost", "exact")),
        )
        mine = solve_walk(g, q)
        ref = oracle_walk(g, q)
        assert (mine is None) == (ref is None), (trial, q)
        if mine is not None:
            assert verify_witness(g, q, mine.vertices) == []


def test_walk_matches_oracle_at_radius_4_to_6():
    """At r >= 4 a cell can hold windows whose tails differ past their first color; answers and witnesses still match.

    A window's successor class at a head is its tail less the tail's first
    color, plus the head's color. Up to r = 3 every window of a cell feeds
    one class at each head, so only these radii feed several classes of
    one head from one cell. A trial counts as reaching such a cell when
    the exact-mode DP, run to each length up to the query's, has a level
    holding one.
    """
    rng = random.Random(44)
    several = 0
    for trial in range(400):
        g, _ = gen_random(
            rng.randint(6, 12), rng.choice((0.3, 0.45, 0.6)), rng.randint(6, 9), 0, 0, seed=13_000 + trial
        )
        q = Query(rng.randint(4, 6), rng.randint(3, 8), rng.choice(("atmost", "exact", "any")))
        mine = solve_walk(g, q)
        ref = oracle_walk(g, q)
        assert (mine is None) == (ref is None), (trial, q)
        if mine is not None:
            assert verify_witness(g, q, mine.vertices) == []
            assert q.mode == "exact" or mine.length == ref.length, (trial, q)
        r = min(q.r, g.num_colors)
        levels = [walk._last_level(g, r, ell, "exact", None) for ell in range(q.ell + 1)]
        # every window of u's cell ends in u's color, so the prune runs at q = r - 1
        for level in levels:
            for u, cell in level.items():
                assert {w[-1] for w in cell_windows(cell)} == {g.colors[u]}, (trial, u)
        several += any(len({w[2:] for w in cell}) >= 2 for level in levels for cell in level.values())
    assert several >= 150, several


def test_prune_cell_keeps_small_cells_verbatim(monkeypatch):
    """Cells within ordered_bound(r) are never filtered, and a filter with nothing to cut keeps every window.

    ``PruneChecker`` checks that the cells that do reach a filter are past
    the bound. Radius-3 fans of width 250 at exact ell 5 are NO, and their
    cells hold about 470 windows, below ordered_bound(3) = 542, so the
    search enters every window whole.
    """
    checker = PruneChecker(monkeypatch, per_trial=0)
    biggest = 0
    for trial in range(40):
        for mode in ("atmost", "exact"):
            g, q = gen_random(9, 0.5, 5, 2 + trial % 2, 6, seed=6000 + trial, mode=mode)
            stats: dict = {}
            solve_walk(g, q, stats=stats)
            assert "rep_calls" not in stats, (trial, mode)
    for trial in range(4):
        g = fan(random.Random(90_000 + trial), 250, (1, 2, 256)[trial % 3])
        stats = {}
        assert solve_walk(g, Query(3, 5, "exact"), stats=stats) is None
        assert "rep_calls" not in stats, trial
        biggest = max(biggest, stats["max_cell"])
    checker.end_trial()
    assert checker.calls == 0 and 400 <= biggest <= ordered_bound(3), biggest
    # two windows of one tail at r = 2: each alone avoids the other's first color
    keep = window_keep((0, 9), 2)
    assert keep((0, 9)) and keep((1, 9))


def test_prune_cell_output_is_representative(monkeypatch):
    """A cell's entered windows represent every window offered to it, whenever its filter switches on.

    Each family is offered in one order to one memo cell, with the bound
    forced to 1, 3 and 5 windows: the class rule refuses a third first
    color of a tail, and the filter refuses the windows that the windows
    entered before them represent. At most C(5, 2) = 10 windows are kept
    past the bound, the width of an r = 3 keep.
    """
    rng = random.Random(17)
    for bound in (1, 3, 5):
        monkeypatch.setattr(repfam, "ordered_bound", lambda r: bound)
        for _ in range(3):
            windows = core_windows(rng, 3, 1, 9, 60)
            rng.shuffle(windows)
            # the windows the class rule alone admits, in offer order
            admitted: list = []
            for w in windows:
                if sum(v[1:] == w[1:] for v in admitted) < 2:
                    admitted.append(w)
            memo = WindowMemo(3)
            entered = [w for w in windows if memo.enter("u", w)]
            assert entered[:bound] == admitted[:bound] and set(entered) <= set(admitted)
            assert bound <= len(entered) <= bound + 10 and len(memo.keeps) == 1
            assert is_window_representative(entered, windows, 3)


def test_prune_cell_keeps_its_cell_order(monkeypatch):
    """The filter enters windows in offer order: with the bound at 1 it enters what ``keep_windows`` keeps.

    The first window enters before the filter switches on, and the keep is
    then fed it and offered each later window, so the windows entered are
    those ``keep_windows`` keeps of all of them, in order, padding dropped,
    at q = r - 1. The first family lists its tails in descending order,
    two first colors each, and the second pads its windows.
    """
    monkeypatch.setattr(repfam, "ordered_bound", lambda r: 1)
    descending = [(x, m, 9) for m in range(8, 1, -1) for x in (0, 1)]
    padded = [(_PAD, 5, m, 9) for m in range(40, 9, -1)]
    for windows, r, dropped in ((descending, 3, 9), (padded, 4, 27)):
        memo = WindowMemo(r)
        entered = cell_windows([w for w in windows if memo.enter(0, w)])
        assert len(windows) - len(entered) == dropped
        stripped = cell_windows(windows)
        assert entered == [stripped[i] for i in keep_windows(stripped, r, r - 1)]


def test_any_length_matches_walk_oracle():
    rng = random.Random(31)
    for trial in range(120):
        g, _ = gen_random(rng.randint(2, 7), 0.35, rng.randint(1, 4), 0, 0, seed=7000 + trial)
        r = rng.randint(0, 3)
        q = Query(r, 0, "any")
        mine = solve_walk(g, q)
        product = oracle_walk(g, q)
        assert (mine is None) == (product is None), trial
        if mine is not None:
            assert verify_witness(g, q, mine.vertices) == []
            assert mine.length == product.length, trial


def test_any_length_requires_lap_around_cycle():
    # The exit color 0 clashes with the first window at vertex 1, so the
    # walk must loop 1 -> 2 -> 3 -> 1 before leaving; length 5 > n - 1.
    g = ColoredDigraph(
        5, (0, 1, 2, 3, 0), ((0, 1), (1, 2), (2, 3), (3, 1), (1, 4)), 0, 4
    )
    w = solve_walk(g, Query(2, 0, "any"))
    assert w == Witness((0, 1, 2, 3, 1, 4))
    assert oracle_walk(g, Query(2, 0, "any")) is not None


def test_any_length_no_instance_terminates_quickly():
    g = chain((0, 0, 1))
    assert solve_walk(g, Query(1, 0, "any")) is None
    assert oracle_walk(g, Query(1, 0, "any")) is None


def test_any_length_radius2_chain():
    n = 400
    w = solve_walk(chain(tuple(i % 40 for i in range(n))), Query(2, 0, "any"))
    assert w == Witness(tuple(range(n)))


def test_any_length_radius4_chain_answers():
    # every vertex of a chain is reached by one window, so the search keeps n - 1 states
    n = 400
    g = chain(tuple(i % 5 for i in range(n)))
    stats: dict = {}
    w = solve_walk(g, Query(4, 0, "any"), stats=stats)
    assert w is not None and w.length == 399
    assert verify_witness(g, Query(4, 0, "any"), w.vertices) == []
    assert stats == {"levels": 399, "max_cell": 1, "total_windows": 399}


def test_any_length_search_skips_vertices_that_cannot_reach_t():
    """Only the chain s -> 1 -> 2 -> t reaches t; s also steps into 2,000 vertices that cannot.

    The distance gate holds in mode "any" too, so the search keeps the
    chain's three windows and never enters the rest of the graph.
    """
    blob = range(4, 2004)
    arcs = [(0, 1), (1, 2), (2, 3)] + [(0, v) for v in blob]
    arcs += [(v, 4 + (v - 3) % 2000) for v in blob]  # a cycle through the blob
    g = ColoredDigraph(2004, tuple(v % 7 for v in range(2004)), tuple(arcs), 0, 3)
    for r in range(4):
        stats: dict = {}
        assert solve_walk(g, Query(r, 0, "any"), stats=stats) == Witness((0, 1, 2, 3)), r
        assert stats["total_windows"] == 3, (r, stats)


def test_any_length_keeps_two_windows_per_tail():
    """Of two windows at v with one tail, only the one found second can go on to t.

    s reaches v (color 3) through p1 (color 1) first and p2 (color 2)
    second, so v holds windows (1, 3) and (2, 3); x has color 1, which
    only (2, 3) admits. A search that kept one window per tail says NO.
    """
    g = ColoredDigraph(
        6, (0, 1, 2, 3, 1, 4), ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)), 0, 5
    )
    for q in (Query(2, 0, "any"), Query(2, 4, "atmost"), Query(2, 4, "exact")):
        assert solve_walk(g, q) == Witness((0, 2, 3, 4, 5)), q
    assert solve_walk(g, Query(2, 3, "atmost")) is None


def test_auto_r1_matches_path_oracle():
    """At r = 1 auto answers the path question with the walk DP, whose shortest witness is a path."""
    rng = random.Random(41)
    for trial in range(100):
        g, _ = gen_random(rng.randint(2, 8), 0.4, rng.randint(1, 4), 0, 0, seed=9000 + trial)
        q = Query(1, rng.randint(0, 8), rng.choice(("atmost", "any")))
        mine, name = solve(g, q)
        ref = oracle_path(g, q)
        assert (mine is None) == (ref is None), (trial, q)
        assert name in ("walk-dp", "unreachable"), name
        if mine is not None:
            assert verify_witness(g, q, mine.vertices, require_path=True) == [], (trial, q)


def test_stats_are_recorded():
    stats: dict = {}
    solve_walk(chain((0, 1, 2)), Query(2, 2, "atmost"), stats=stats)
    assert stats


def test_walk_cells_prune_inside_solves(monkeypatch):
    """Radius-3 fans make walk cells outgrow ordered_bound(3) mid-solve, in both engines.

    A hub's windows (x, m, hub) have one (r - 1)-color tail per middle
    vertex m and one of two first colors x, so the class rule keeps them
    all: about 2 * 0.96^2 * 300 > ordered_bound(3) = 542 of them, which
    the ordered filter must cut. The level DP answers mode "atmost", and
    every s-t path has 4 arcs, so exact ell 5 is NO, and the search passes
    the hubs' and t's cells through their filters. The graphs are acyclic,
    so answers and witnesses are checked against the path oracle, and the
    first filters of each trial keep an ordered representative of the
    windows offered to them.
    """
    width = 300
    rep_calls = 0
    checker = PruneChecker(monkeypatch, per_trial=4)
    for trial in range(4):
        g = fan(random.Random(90_000 + trial), width, (1, 2, width + 6)[trial % 3])
        for q in (Query(3, 4, "atmost"), Query(3, 4, "exact"), Query(3, 5, "exact")):
            stats: dict = {}
            mine = solve_walk(g, q, stats=stats)
            ref = oracle_path(g, q)
            assert (mine is None) == (ref is None), (trial, q)
            if mine is not None:
                assert verify_witness(g, q, mine.vertices) == []
            assert stats["max_cell"] <= ordered_bound(3), (trial, q)
            rep_calls += stats.get("rep_calls", 0)
        checker.end_trial()
    assert rep_calls >= 22, rep_calls
    assert checker.checked >= 16, checker.checked


def test_radius2_walk_cells_hold_two_windows():
    """On dense radius-2 graphs every window of a cell shares its tail, so the dedupe keeps two.

    With one color per vertex, a cell from level 2 on would hold one
    window per predecessor color; answers and witnesses still match the
    product-graph oracle.
    """
    n = 34
    for trial in range(12):
        rng = random.Random(80_000 + trial)
        arcs = [
            (u, v)
            for v in range(n)
            for u in rng.sample([x for x in range(n) if x != v], rng.choice((20, 31)))
        ]
        g = ColoredDigraph(n, tuple(range(n)), tuple(sorted(arcs)), 0, n - 1)
        for mode in ("atmost", "exact"):
            q = Query(2, rng.randint(3, 4), mode)
            stats: dict = {}
            mine = solve_walk(g, q, stats=stats)
            ref = oracle_walk(g, q)
            assert (mine is None) == (ref is None), (trial, q)
            if mine is not None:
                assert verify_witness(g, q, mine.vertices) == []
            assert stats["max_cell"] <= 2, (trial, q)
            assert "rep_calls" not in stats


def test_dedupe_keeps_two_windows_per_tail_and_a_representative():
    """t's cell keeps two first colors per tail in arrival order, and its windows are an ordered representative.

    Each window of a random family reaches t along a chain of its own from
    s, whose color no window holds, and the chains leave s in random
    order. So t's cell at level r is the family in that order with each
    tail class cut to its first two windows; every kept window links back
    to a walk whose last r colors it is. Classes are cut at every radius
    tried.
    """
    rng = random.Random(61)
    cut_at = set()
    for trial in range(300):
        # one trial in 50 at r = 4, whose exhaustive check costs some 30 times an r = 3 one
        r = 4 if trial % 50 == 49 else rng.randint(2, 3)
        windows = core_windows(rng, r, 1, rng.randint(r + 1, 6), rng.randint(2, 30))
        dense = {c: i for i, c in enumerate(sorted({c for w in windows for c in w}))}
        windows = [tuple(dense[c] for c in w) for w in windows]
        colors, arcs = [len(dense), windows[0][-1]], []
        arrivals = rng.sample(windows, len(windows))
        for w in arrivals:
            prev = 0
            for c in w[:-1]:
                arcs.append((prev, len(colors)))
                prev = len(colors)
                colors.append(c)
            arcs.append((prev, 1))
        g = ColoredDigraph(len(colors), tuple(colors), tuple(arcs), 0, 1)
        cell = walk._last_level(g, r, r, "exact", None)[1]
        expected: list = []
        for w in arrivals:
            if sum(v[1:] == w[1:] for v in expected) < 2:
                expected.append(w)
            else:
                cut_at.add(r)
        assert list(cell) == expected, (trial, r)
        for window, link in cell.items():
            assert tuple(g.colors[v] for v in unwind(1, link).vertices)[-r:] == window, trial
        assert is_window_representative(expected, windows, r), (trial, r, windows)
    assert cut_at == {2, 3, 4}, cut_at


def test_a_class_skips_blocked_windows_and_fills_to_two():
    """A successor class passes over a window that blocks u's color and takes the next two, in arrival order.

    At r = 3, v (color 4) holds three windows, (5, 1, 4), (6, 2, 4) and
    (7, 3, 4), reached through p1, p2 and p3 from a1, a2 and a3, whose
    successors at u fall in one class, tail (4, 5). The first holds 5,
    u's color, so it cannot step to u; the other two can, and the class
    takes both of their first colors, 2 and 3, with their links.
    """
    g = ColoredDigraph(
        9,
        (0, 5, 6, 7, 1, 2, 3, 4, 5),
        ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 7), (6, 7), (7, 8)),
        0,
        8,
    )
    at_v = ColoredDigraph(g.n, g.colors, g.arcs, 0, 7)
    assert walk._last_level(at_v, 3, 3, "exact", None)[7] == {
        (5, 1, 4): (4, (1, (0, None))),
        (6, 2, 4): (5, (2, (0, None))),
        (7, 3, 4): (6, (3, (0, None))),
    }
    assert walk._last_level(g, 3, 4, "exact", None) == {
        8: {(2, 4, 5): (7, (5, (2, (0, None)))), (3, 4, 5): (7, (6, (3, (0, None))))}
    }


def test_exact_walks_go_round_a_cycle_past_n_minus_one_arcs():
    """Exact walks of up to 1,001 arcs around a 3-cycle, YES exactly when ell is 2 mod 3 and at least 5.

    The exit color 0 clashes with s's window at vertex 1, so a walk must
    lap the cycle 1 -> 2 -> 3 -> 1 at least once, and each lap adds 3
    arcs. Seven isolated vertices make n = 12, so the search answers up to
    ell = 11, meeting one (vertex, window) at levels 3 apart, which its
    memo must tell apart, and the level DP answers from ell = 12 on.
    """
    g = ColoredDigraph(12, (0, 1, 2, 3, 0) + tuple(range(4, 11)), ((0, 1), (1, 2), (2, 3), (3, 1), (1, 4)), 0, 4)
    for ell in list(range(18)) + [1_000, 1_001]:
        q = Query(2, ell, "exact")
        mine = solve_walk(g, q)
        assert (mine is not None) == (ell >= 5 and ell % 3 == 2), ell
        if ell < 18:
            assert (mine is None) == (oracle_walk(g, q) is None), ell
        if mine is not None:
            assert verify_witness(g, q, mine.vertices) == [], ell
    assert solve_walk(g, Query(2, 8, "exact")) == Witness((0, 1, 2, 3, 1, 2, 3, 1, 4))


def test_an_exact_walk_far_past_n_arcs_on_a_dag_answers_at_once():
    """Exact ell = 10**9 on a 5-vertex chain is NO as soon as the DP's levels empty.

    No walk of a DAG has n arcs, so nothing the solve allocates may grow
    with ell; the level DP stops at its first empty level.
    """
    stats: dict = {}
    assert solve_walk(chain((0, 1, 2, 3, 4)), Query(2, 10**9, "exact"), stats=stats) is None
    assert stats["levels"] == 5, stats

def test_exact_walk_filters_switched_on_early_match_oracle(monkeypatch):
    """With the memo filter's trigger forced down to 1 or 2 windows, exact walk answers still match the oracle.

    A filter then switches on at most cells of the search, padded ones
    among them, and admits windows past the trigger. Each filter's core
    holds the slots every window of its cell shares as u's color or as
    padding: r slots of one color and the negative slots of the ``_PAD``
    entries.
    """
    families = []

    class Recorded(repfam.RepresentativeFamily):
        def __init__(self, q, core=()):
            super().__init__(q, core)
            self.rows, self.kept = [], []
            families.append(self)

        def offer(self, s):
            self.rows.append(frozenset(s))
            self.kept.append(super().offer(s))
            return self.kept[-1]

    monkeypatch.setattr(repfam, "RepresentativeFamily", Recorded)
    rng = random.Random(77)
    admitted = padded = yes = 0
    for trial in range(300):
        bound = rng.randint(1, 2)
        monkeypatch.setattr(repfam, "ordered_bound", lambda r: bound)
        g, q = gen_random(
            rng.randint(7, 11), 0.6, rng.randint(5, 8), rng.randint(3, 4), rng.randint(2, 8), seed=14_000 + trial, mode="exact"
        )
        families.clear()
        stats: dict = {}
        mine = solve_walk(g, q, stats=stats)
        ref = oracle_walk(g, q)
        assert (mine is None) == (ref is None), (trial, q)
        if mine is not None:
            yes += 1
            assert verify_witness(g, q, mine.vertices) == [], (trial, q)
        r = min(q.r, g.num_colors)
        assert stats.get("rep_calls", 0) == len(families), trial
        for family in families:
            for row in family.rows:
                assert family.core <= row and {x for x in row if x < 0} <= family.core, trial
            assert len({x // r for x in family.core if x >= 0}) == 1, trial
            assert len([x for x in family.core if x >= 0]) == r, trial
            padded += min(family.core) < 0
            # the first bound rows are the memo's dead windows, the rest arrived at the filter
            admitted += any(family.kept[bound:])
    assert yes >= 150 and padded >= 45 and admitted >= 280, (yes, padded, admitted)


def test_level_dp_filters_switched_on_early_match_oracle(monkeypatch):
    """With the filter's trigger forced down to 1-5 windows, the level DP's answers and shortest lengths still match the oracle.

    Modes "atmost" and "any" keep one memo across levels, so a filter there
    is fed windows of earlier levels too; exact questions of n arcs or
    more take a fresh memo each level. Each filter switched on counts in
    ``rep_calls``.
    """
    calls = []

    def counted(window, r, keep=repfam.window_keep):
        calls.append(r)
        return keep(window, r)

    monkeypatch.setattr(repfam, "window_keep", counted)
    rng = random.Random(78)
    filtered = {"atmost": 0, "any": 0, "exact": 0}
    yes = 0
    for trial in range(900):
        bound = rng.randint(1, 5)
        monkeypatch.setattr(repfam, "ordered_bound", lambda r: bound)
        g, _ = gen_random(rng.randint(10, 14), 0.3, rng.randint(4, 7), 0, 0, seed=15_000 + trial)
        # t is a vertex farthest from s, so the DP runs several levels before it answers
        dist = bfs_distances(g.out_neighbors, g.s)
        g = ColoredDigraph(g.n, g.colors, g.arcs, g.s, max(range(1, g.n), key=lambda v: (dist[v] is not None, dist[v] or 0)))
        mode = ("atmost", "any", "exact")[trial % 3]
        q = Query(rng.randint(3, 4), rng.randint(g.n, g.n + 3) if mode == "exact" else rng.randint(2, g.n + 3), mode)
        calls.clear()
        stats: dict = {}
        mine = solve_walk(g, q, stats=stats)
        ref = oracle_walk(g, q)
        assert (mine is None) == (ref is None), (trial, q)
        assert stats.get("rep_calls", 0) == len(calls), trial
        filtered[mode] += bool(calls)
        if mine is not None:
            yes += 1
            assert verify_witness(g, q, mine.vertices) == [], (trial, q)
            assert mode == "exact" or mine.length == ref.length, (trial, q)
    assert yes >= 300 and min(filtered.values()) >= 80, (yes, filtered)


def test_exact_walk_keeps_the_second_window_of_a_tail_around_a_cycle():
    """Of two windows at v with one tail, only the one found second can go on to t, after a lap.

    s (color 0) reaches v (color 3) through p1 (color 1) first and p2
    (color 2) second, so v holds windows (1, 3) and (2, 3); x has color 1,
    which only (2, 3) admits. The cycle s -> a -> b -> s adds 3 to the
    length, so exact budgets 4 and 7 say YES and 5 and 6 say NO. A cell
    that kept one window per tail would answer NO throughout.
    """
    g = ColoredDigraph(
        8,
        (0, 5, 6, 1, 2, 3, 1, 4),
        ((0, 1), (0, 3), (0, 4), (1, 2), (2, 0), (3, 5), (4, 5), (5, 6), (6, 7)),
        0,
        7,
    )
    for ell in range(4, 9):
        q = Query(2, ell, "exact")
        mine = solve_walk(g, q)
        ref = oracle_walk(g, q)
        assert (mine is None) == (ref is None) == (ell % 3 != 1), ell
        if mine is not None:
            assert verify_witness(g, q, mine.vertices) == []
    assert solve_walk(g, Query(2, 7, "exact")) == Witness((0, 1, 2, 0, 4, 5, 6, 7))
    assert solve_walk(g, Query(2, 7, "atmost")) == Witness((0, 4, 5, 6, 7))


def test_radii_from_the_color_count_up_match_oracle():
    """The walk DP runs at min(r, num_colors), which is exact.

    A walk of at most num_colors vertices must be rainbow at either
    radius, and a longer one would need num_colors + 1 distinct colors in
    one window.
    """
    rng = random.Random(31)
    for trial in range(100):
        g, _ = gen_random(rng.randint(2, 7), 0.45, rng.randint(1, 4), 0, 0, seed=12_000 + trial)
        for r in range(g.num_colors, g.num_colors + 4):
            q = Query(r, rng.randint(0, 8), rng.choice(("atmost", "exact", "any")))
            mine = solve_walk(g, q)
            ref = oracle_walk(g, q)
            assert (mine is None) == (ref is None), (trial, q)
            if mine is not None:
                assert verify_witness(g, q, mine.vertices) == []
                assert q.mode == "exact" or mine.length == ref.length, (trial, q)


def test_walks_shorter_than_the_radius_match_oracle():
    """Answers decided within r - 1 steps, where every window is shorter than r and padded.

    On the chain, t's color clashes with s's at distance 3: allowed at
    r = 2, refused at r = 3 and 4. The random sweep keeps ell below r.
    """
    g = chain((0, 1, 2, 0))
    for r in (2, 3, 4):
        for mode in ("atmost", "exact"):
            expect = Witness((0, 1, 2, 3)) if r == 2 else None
            assert solve_walk(g, Query(r, 3, mode)) == expect, (r, mode)
    rng = random.Random(23)
    for trial in range(200):
        r = rng.randint(2, 4)
        g, _ = gen_random(rng.randint(2, 7), 0.4, rng.randint(1, 5), 0, 0, seed=11_000 + trial)
        q = Query(r, rng.randint(0, r - 1), rng.choice(("atmost", "exact")))
        stats: dict = {}
        mine = solve_walk(g, q, stats=stats)
        ref = oracle_walk(g, q)
        assert (mine is None) == (ref is None), (trial, q)
        if mine is not None:
            assert verify_witness(g, q, mine.vertices) == []
            assert q.mode == "exact" or mine.length == ref.length, (trial, q)
