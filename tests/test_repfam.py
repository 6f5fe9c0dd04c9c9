"""Representative-family pruning, for families of sets and of color windows."""
from __future__ import annotations

import math
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from helpers import core_sets, core_windows, keep_windows, offered_keep
from rainbowpaths import ordered_bound, slot_set
from rainbowpaths import repfam
from rainbowpaths.repfam import WindowMemo
from reference import greedy_keep, is_set_representative, is_window_representative


def test_bounds():
    assert ordered_bound(1) == 2
    assert ordered_bound(0) == 1
    assert ordered_bound(2) == 29
    assert ordered_bound(3) == 542
    # (r * e) ** r leaves the float range at r = 123; the bound saturates there
    assert ordered_bound(122) < ordered_bound(123) == ordered_bound(10**20)


def test_keep_has_no_width_limit():
    # four disjoint 10-sets share no element: set i avoids an i-element obstruction that
    # takes one element of each set before it, so at q = 11 all are kept; at q = 1 only two
    disjoint = [tuple(range(i, i + 10)) for i in range(0, 40, 10)]
    assert offered_keep(disjoint, 11) == [0, 1, 2, 3]
    assert offered_keep(disjoint, 1) == [0, 1]
    # a lone set is all core: it is kept
    assert offered_keep([tuple(range(10))], 11) == [0]
    # 10-sets sharing 8 elements are disjoint pairs less their core: up to C(13, 2) = 78 are kept
    shared = [tuple(range(8)) + (8 + 2 * i, 9 + 2 * i) for i in range(8)]
    assert offered_keep(shared, 11) == list(range(8))


def test_walk_cell_widths_stay_within_the_limit():
    """A walk cell's prune keeps at most C(r(r - 1)/2 + r - 1, r - 1) windows, its width after a prune.

    Same-length rainbow windows that end in one color share the slots of
    that color, a core of the family, and the rest of a window's slots
    number at most r(r - 1)/2, which the families here reach at each r.
    The r = 6 families take most of the time: with up to 15 slots outside
    the core and q = 5, ``hitting`` grows to about 230,000 sets.
    """
    rng = random.Random(29)
    for r in range(1, 7):
        bound = math.comb(r * (r - 1) // 2 + r - 1, r - 1)
        widest = 0
        for _ in range(60):
            length = rng.randint(1, r)
            windows = core_windows(rng, length, 1, rng.randint(length, 3 * r + 2), rng.randint(1, 30))
            slots = [set(slot_set(w, r)) for w in windows]
            widest = max(widest, len(slots[0]) - len(set.intersection(*slots)))
            assert len(keep_windows(windows, r, r - 1)) <= bound, (r, windows)
        assert widest == r * (r - 1) // 2, (r, widest)


def test_keep_returns_input_indices_in_row_order():
    # rows are read in input order; (1, 0) repeats (0, 1) and is dropped
    assert offered_keep([(3, 2), (0, 1), (1, 0)], 1) == [0, 1]
    # elements need only be distinct ints, negative ones included, as the _PAD slots are
    assert offered_keep([(5, 9), (-1, 0)], 1) == [0, 1]


def test_keep_matches_the_greedy_reference():
    """The prune keeps exactly the sets ``reference.greedy_keep`` keeps, in input order."""
    rng = random.Random(9)
    families = []
    for trial in range(40):
        universe = rng.randint(3, 9)
        p = rng.randint(1, min(4, universe))
        fam = [rng.sample(range(universe), p) for _ in range(rng.randint(1, 20))]
        families.append((fam + fam[:3], universe, rng.randint(0, 3)))
    for trial in range(40):
        universe, p = rng.randint(4, 9), rng.randint(2, 4)
        fam = [rng.sample(s, len(s)) for s in core_sets(rng, universe, p, rng.randint(1, p - 1), 15)]
        families.append((fam, universe, rng.randint(0, 3)))
    for fam, universe, q in families:
        assert offered_keep(fam, q) == greedy_keep(fam, q, universe), (fam, q)


def test_unordered_singletons_both_kept():
    sets = [(0,), (1,)]
    kept = offered_keep(sets, 1)
    assert sorted(sets[i] for i in kept) == [(0,), (1,)]


def test_unordered_pairs_all_needed():
    # Each pair misses a different singleton obstruction.
    kept = offered_keep([(0, 1), (0, 2), (1, 2)], 1)
    assert len(kept) == 3


def test_unordered_duplicates_collapse():
    kept = offered_keep([(0, 1), (0, 1)], 1)
    assert len(kept) == 1
    assert len(offered_keep([(), ()], 1)) == 1


def test_unordered_prune_is_idempotent():
    rng = random.Random(7)
    universe = 8
    members = [tuple(sorted(rng.sample(range(universe), 3))) for _ in range(40)]
    unique = list(dict.fromkeys(members))
    once = [unique[i] for i in offered_keep(unique, 2)]
    twice = [once[i] for i in offered_keep(once, 2)]
    assert sorted(once) == sorted(twice)


def test_partial_representative_budget_zero_keeps_one():
    kept = offered_keep([(0, 1), (2, 3), (0, 2)], 0)
    assert len(kept) == 1


def test_definitional_checks_refuse_what_is_not_a_representative():
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert is_set_representative(pairs, pairs, 3, 1)
    # (1, 2) alone avoids the obstruction {0}
    assert not is_set_representative([(0, 1)], pairs, 3, 1)
    assert not is_set_representative(pairs + [(0, 3)], pairs, 4, 1)
    windows = [(1, 2), (2, 1)]
    assert is_window_representative(windows, windows, 2)
    # (2, 1) alone may be followed by (3, 2)
    assert not is_window_representative([(1, 2)], windows, 2)
    assert not is_window_representative(windows + [(3, 1)], windows, 2)


def test_unordered_random_families_pass_definition():
    rng = random.Random(13)
    families = []
    for trial in range(30):
        universe = rng.randint(3, 9)
        p = rng.randint(1, min(3, universe))
        q = rng.randint(0, 3)
        pool = list(combinations(range(universe), p))
        families.append((sorted(rng.sample(pool, min(len(pool), rng.randint(1, 25)))), universe, p, q, 0))
    # families sharing a core, the shape of path and walk cells; duplicates included
    core_rng = random.Random(14)
    for trial in range(30):
        universe = core_rng.randint(4, 9)
        p = core_rng.randint(2, 4)
        core = core_rng.randint(1, p - 1)
        fam = core_sets(core_rng, universe, p, core, core_rng.randint(2, 25))
        families.append((fam, universe, p, core_rng.randint(0, 3), core))
    for fam, universe, p, q, core in families:
        kept = [fam[i] for i in offered_keep(fam, q)]
        # a shared core leaves only p - core elements per set to represent
        assert len(kept) <= math.comb(p - core + q, q)
        assert is_set_representative(kept, fam, universe, q)


def test_ordered_transposed_pair_both_kept():
    windows = [(1, 2), (2, 1)]
    kept = keep_windows(windows, 2, 2)
    assert sorted(windows[i] for i in kept) == [(1, 2), (2, 1)]


def test_ordered_regression_needs_non_rainbow_obstructions():
    # (2, 2, 0) separates these two members at r = 3, so neither may be
    # dropped even though every rainbow continuation treats them alike.
    windows = [(0, 1), (1, 0)]
    kept = [windows[i] for i in keep_windows(windows, 3, 3)]
    assert sorted(kept) == [(0, 1), (1, 0)]
    assert is_window_representative(kept, windows, 3)


def test_ordered_r_zero_single_member():
    # at r = 0 every window blocks nothing, so one member represents the family
    windows = [(), ()]
    assert keep_windows(windows, 0, 0) == [0]
    assert is_window_representative([windows[0]], windows, 0)


def test_ordered_random_families_pass_definition():
    rng = random.Random(99)
    families = []
    for trial in range(25):
        r = rng.randint(1, 3)
        num_colors = rng.randint(max(1, r), 4)
        length = rng.randint(1, r)
        pool = set()
        for _ in range(40):
            seq = tuple(rng.sample(range(num_colors), min(length, num_colors)))
            pool.add(seq)
        families.append((sorted(pool), r, r))
    # windows sharing their last c colors, as every window of a walk cell ends in its vertex's color
    core_rng = random.Random(100)
    for trial in range(25):
        r = core_rng.randint(1, 3)
        length = core_rng.randint(1, r)
        core = core_rng.randint(1, length)
        fam = core_windows(core_rng, length, core, core_rng.randint(length + 1, 5), 20)
        families.append((fam, r, r - 1))
    for fam, r, q in families:
        kept = [fam[i] for i in keep_windows(fam, r, q)]
        assert len(kept) <= ordered_bound(r)
        assert is_window_representative(kept, fam, r)


def test_walk_cell_windows_keep_the_stripped_bound():
    # r = 2 windows of a walk cell end in one color, whose two slots every member blocks;
    # position 2 is blocked by that color alone, so one slot of an obstruction matters
    rng = random.Random(21)
    for trial in range(6):
        fam = core_windows(rng, 2, 1, rng.randint(5, 12), 20)
        kept = [fam[i] for i in keep_windows(fam, 2, 1)]
        assert len(kept) <= math.comb(1 + 1, 1) == 2
        assert is_window_representative(kept, fam, 2)


def test_ordered_tags_follow_members():
    windows = [(2, 1), (1, 2)]
    tags = ["b", "a"]
    kept = {windows[i]: tags[i] for i in keep_windows(windows, 2, 2)}
    assert kept == {(1, 2): "a", (2, 1): "b"}


def test_window_memo_refuses_a_third_or_repeated_first_color_and_filters_from_the_bound(monkeypatch):
    """A tail takes two distinct first colors in arrival order, and the filter switches on at exactly ordered_bound(r).

    Cells are independent: a window refused in one cell is entered in
    another. At r = 1 every window is its own first color, so a cell
    holds one window.
    """
    memo = WindowMemo(3)
    assert [memo.enter("a", w) for w in ((1, 5, 9), (1, 5, 9), (2, 5, 9), (3, 5, 9), (3, 6, 9))] == [
        True, False, True, False, True,
    ]
    assert memo.classes["a"] == {(5, 9): [(1, 5, 9), (2, 5, 9)], (6, 9): [(3, 6, 9)]}
    assert memo.enter("b", (3, 5, 9)) and memo.sizes == {"a": 3, "b": 1} and not memo.keeps
    one = WindowMemo(1)
    assert one.enter(0, (4,)) and not one.enter(0, (4,))
    for bound in (1, 2, 4, 7):
        monkeypatch.setattr(repfam, "ordered_bound", lambda r: bound)
        memo = WindowMemo(3)
        # distinct tails, so the class rule refuses none of them
        windows = [(0, m, 99) for m in range(1, 12)]
        for i, w in enumerate(windows):
            entered = memo.enter("u", w)
            assert (i < bound) <= entered, (bound, i)
            assert ("u" in memo.keeps) == (i >= bound), (bound, i)
        assert memo.sizes["u"] <= bound + 10


def test_bench_kernels_script_runs():
    """The prune benchmark script runs on the current API and prints its three timing rows."""
    script = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    done = subprocess.run(
        [sys.executable, str(script), "--repeats", "1"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()
    assert len(rows) == 3 and all(row.endswith("ms") for row in rows), done.stdout
