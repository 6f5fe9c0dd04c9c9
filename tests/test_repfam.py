"""Representative-family pruning, both set and sequence flavors."""
from __future__ import annotations

import random
from itertools import combinations

import pytest

from rainbowpaths import (
    LabeledSetFamily,
    SeqFamily,
    is_ordered_representative,
    is_unordered_representative,
    ordered_bound,
    ordered_representative,
    unordered_bound,
    unordered_representative,
)

BACKENDS = ("algebraic", "exhaustive")


def test_family_validation():
    with pytest.raises(ValueError):
        LabeledSetFamily(3, ((0, 0),), (0,))
    with pytest.raises(ValueError):
        LabeledSetFamily(3, ((0,), (1, 2)), (0, 1))
    with pytest.raises(ValueError):
        LabeledSetFamily(2, ((0, 2),), (0,))
    fam = LabeledSetFamily.from_sets(4, [{1, 3}, {0, 2}])
    assert fam.set_size == 2
    assert len(fam) == 2


def test_seq_family_requires_rainbow_members():
    with pytest.raises(ValueError):
        SeqFamily(2, ((0, 0),), (0,))
    with pytest.raises(ValueError):
        SeqFamily(2, ((0, 1), (2,)), (0, 1))
    fam = SeqFamily(2, ((0, 1), (1, 0)), (0, 1))
    assert len(fam.sequences) == 2


def test_bounds():
    assert unordered_bound(1, 1) == 2
    assert unordered_bound(2, 3) == 10
    assert ordered_bound(1) == 2
    assert ordered_bound(0) == 1
    assert ordered_bound(2) == 29


@pytest.mark.parametrize("backend", BACKENDS)
def test_unordered_singletons_both_kept(backend):
    fam = LabeledSetFamily.from_sets(2, [{0}, {1}])
    kept = unordered_representative(fam, 1, backend=backend)
    assert sorted(kept.members) == [(0,), (1,)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_unordered_pairs_all_needed(backend):
    # Each pair misses a different singleton obstruction.
    fam = LabeledSetFamily.from_sets(3, [{0, 1}, {0, 2}, {1, 2}])
    kept = unordered_representative(fam, 1, backend=backend)
    assert len(kept) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_unordered_duplicates_collapse(backend):
    fam = LabeledSetFamily(3, ((0, 1), (0, 1)), (0, 1))
    kept = unordered_representative(fam, 1, backend=backend)
    assert len(kept) == 1


def test_unordered_prune_is_idempotent():
    rng = random.Random(7)
    universe = 8
    members = [tuple(sorted(rng.sample(range(universe), 3))) for _ in range(40)]
    unique = tuple(dict.fromkeys(members))
    fam = LabeledSetFamily(universe, unique, tuple(range(len(unique))))
    once = unordered_representative(fam, 2)
    twice = unordered_representative(once, 2)
    assert sorted(once.members) == sorted(twice.members)


def test_partial_representative_budget_zero_keeps_one():
    fam = LabeledSetFamily.from_sets(4, [{0, 1}, {2, 3}, {0, 2}])
    kept = unordered_representative(fam, 0)
    assert len(kept) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_unordered_random_families_pass_definition(backend):
    rng = random.Random(13)
    for trial in range(30):
        universe = rng.randint(3, 9)
        p = rng.randint(1, min(3, universe))
        q = rng.randint(0, 3)
        pool = list(combinations(range(universe), p))
        members = tuple(sorted(rng.sample(pool, min(len(pool), rng.randint(1, 25)))))
        fam = LabeledSetFamily(universe, members, tuple(range(len(members))))
        kept = unordered_representative(fam, q, backend=backend)
        assert len(kept) <= unordered_bound(p, q)
        assert is_unordered_representative(kept, fam, q)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ordered_transposed_pair_both_kept(backend):
    fam = SeqFamily(2, ((1, 2), (2, 1)), (0, 1))
    kept = ordered_representative(fam, backend=backend)
    assert sorted(kept.sequences) == [(1, 2), (2, 1)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_ordered_regression_needs_non_rainbow_obstructions(backend):
    # (2, 2, 0) separates these two members at r = 3, so neither may be
    # dropped even though every rainbow continuation treats them alike.
    fam = SeqFamily(3, ((0, 1), (1, 0)), (0, 1))
    kept = ordered_representative(fam, backend=backend)
    assert sorted(kept.sequences) == [(0, 1), (1, 0)]
    assert is_ordered_representative(kept, fam, 3)


def test_ordered_r_zero_single_member():
    fam = SeqFamily(0, ((), ()), (0, 1))
    kept = ordered_representative(fam)
    assert len(kept.sequences) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_ordered_random_families_pass_definition(backend):
    rng = random.Random(99)
    for trial in range(25):
        r = rng.randint(1, 3)
        num_colors = rng.randint(max(1, r), 4)
        length = rng.randint(1, r)
        pool = set()
        for _ in range(40):
            seq = tuple(rng.sample(range(num_colors), min(length, num_colors)))
            pool.add(seq)
        seqs = tuple(sorted(pool))
        fam = SeqFamily(r, seqs, tuple(range(len(seqs))))
        kept = ordered_representative(fam, backend=backend)
        assert len(kept.sequences) <= ordered_bound(r)
        assert is_ordered_representative(kept, fam, r)


def test_ordered_tags_follow_members():
    fam = SeqFamily(2, ((1, 2), (2, 1)), ("a", "b"))
    kept = ordered_representative(fam)
    for seq, tag in zip(kept.sequences, kept.tags):
        assert tag == dict(zip(fam.sequences, fam.tags))[seq]
