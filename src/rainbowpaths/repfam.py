"""Representative set families, the pruning engine behind the solvers.

A q-representative of a family of p-element sets preserves, for every
obstruction set Y with |Y| <= q, the existence of a member disjoint from Y.
The ordered variant preserves, for every continuation sequence, the
existence of a compatible suffix window; it reduces to the unordered case
through the blocked-slot encoding. Two backends are provided: an algebraic
one (wedge coordinates of a Vandermonde matrix over a prime field, greedy
row basis) and an exhaustive one (greedy obstruction coverage) that serves
as a simple correctness reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Any, Iterable, Sequence

import numpy as np

from . import _kernels
from .core import ColorSeq, blocked_slots, encoded_slot_index, is_locally_rainbow, r_compatible


@dataclass(frozen=True)
class LabeledSetFamily:
    """Uniform-cardinality subsets of [0, universe_size) with opaque tags."""

    universe_size: int
    members: tuple[tuple[int, ...], ...]
    tags: tuple[Any, ...]

    def __post_init__(self) -> None:
        if len(self.members) != len(self.tags):
            raise ValueError("one tag per member required")
        sizes = {len(m) for m in self.members}
        if len(sizes) > 1:
            raise ValueError(f"family is not uniform: set sizes {sorted(sizes)}")
        for m in self.members:
            if list(m) != sorted(set(m)):
                raise ValueError(f"member {m} must be strictly increasing")
            if m and (m[0] < 0 or m[-1] >= self.universe_size):
                raise ValueError(f"member {m} outside universe [0, {self.universe_size})")

    @classmethod
    def from_sets(
        cls,
        universe_size: int,
        sets: Sequence[Sequence[int]],
        tags: Sequence[Any] | None = None,
    ) -> "LabeledSetFamily":
        members = tuple(tuple(sorted(set(s))) for s in sets)
        for raw, canon in zip(sets, members):
            if len(set(raw)) != len(tuple(raw)):
                raise ValueError(f"set {raw} repeats an element")
        if tags is None:
            tags = tuple(range(len(members)))
        return cls(universe_size, members, tuple(tags))

    @property
    def set_size(self) -> int:
        return len(self.members[0]) if self.members else 0

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SeqFamily:
    """Equal-length, locally rainbow color sequences with opaque tags."""

    r: int
    sequences: tuple[ColorSeq, ...]
    tags: tuple[Any, ...]

    def __post_init__(self) -> None:
        if len(self.sequences) != len(self.tags):
            raise ValueError("one tag per sequence required")
        lengths = {len(s) for s in self.sequences}
        if len(lengths) > 1:
            raise ValueError(f"sequences of mixed lengths {sorted(lengths)}")
        for s in self.sequences:
            if not is_locally_rainbow(s, self.r):
                raise ValueError(f"sequence {s} is not locally rainbow at r={self.r}")

    @property
    def seq_length(self) -> int:
        return len(self.sequences[0]) if self.sequences else 0

    def __len__(self) -> int:
        return len(self.sequences)


def unordered_bound(p: int, q: int) -> int:
    """Guaranteed size bound of a q-representative of p-sets."""
    return math.comb(p + q, p)


def ordered_bound(r: int) -> int:
    """Guaranteed size bound of an ordered representative at locality r."""
    return max(1, math.floor((r * math.e) ** r))


# Largest algebraic_width a solver lets a prune materialize; wider cells stay unpruned.
WEDGE_WIDTH_LIMIT = 200_000


def algebraic_width(p: int, q: int, universe_size: int) -> int:
    """Number of wedge coordinates the algebraic backend would materialize."""
    q_eff = min(q, max(0, universe_size - p))
    return math.comb(p + q_eff, p)


def _lex_dedupe(family: LabeledSetFamily) -> tuple[list[tuple[int, ...]], list[Any]]:
    """Sort members lexicographically and drop duplicates, keeping the earliest tag."""
    order = sorted(range(len(family.members)), key=lambda i: (family.members[i], i))
    members: list[tuple[int, ...]] = []
    tags: list[Any] = []
    for i in order:
        if members and members[-1] == family.members[i]:
            continue
        members.append(family.members[i])
        tags.append(family.tags[i])
    return members, tags


def _algebraic_keep(members: list[tuple[int, ...]], universe_size: int, q: int) -> list[int]:
    """Indices of a greedy wedge-vector row basis over the prime field."""
    p = len(members[0])
    q_eff = min(q, max(0, universe_size - p))
    rank = p + q_eff
    mod = int(_kernels.MODULUS)
    vander = np.empty((rank, max(1, universe_size)), dtype=np.int64)
    for e in range(universe_size):
        x = e + 1
        acc = 1
        for i in range(rank):
            vander[i, e] = acc
            acc = acc * x % mod
    set_cols = np.array([list(m) for m in members], dtype=np.int64).reshape(len(members), p)
    coord_rows = np.array(list(combinations(range(rank), p)), dtype=np.int64).reshape(-1, p)
    mat = _kernels.batch_minors(vander, set_cols, coord_rows)
    keep = _kernels.greedy_row_basis(mat)
    return [i for i in range(len(members)) if keep[i]]


def _exhaustive_keep(members: list[tuple[int, ...]], universe_size: int, q: int) -> list[int]:
    """Greedy coverage: keep a set iff it serves a not-yet-served obstruction.

    Obstructions are exactly the q_eff-subsets of the universe; a member
    serves an obstruction by being disjoint from it. Each kept member
    carries a witness obstruction that all earlier kept members intersect,
    which bounds the kept count by unordered_bound(p, q).
    """
    p = len(members[0])
    q_eff = min(q, max(0, universe_size - p))
    kept: list[int] = []
    kept_sets: list[frozenset[int]] = []
    for idx, m in enumerate(members):
        mset = set(m)
        rest = [e for e in range(universe_size) if e not in mset]
        for obstruction in combinations(rest, q_eff):
            oset = frozenset(obstruction)
            if not any(not (k & oset) for k in kept_sets):
                kept.append(idx)
                kept_sets.append(frozenset(mset))
                break
    return kept


def unordered_representative(
    family: LabeledSetFamily, q: int, backend: str = "algebraic"
) -> LabeledSetFamily:
    """Prune a uniform family while preserving disjointness against small sets.

    Args:
        family: uniform family of p-element sets.
        q: obstruction budget; every Y with |Y| <= q stays served.
        backend: "algebraic" (deterministic linear algebra) or "exhaustive"
            (greedy obstruction coverage, exponential in q).

    Returns:
        A subfamily of size at most binom(p + q, p), tags preserved.
    """
    if q < 0:
        raise ValueError("obstruction budget q must be non-negative")
    if backend not in ("algebraic", "exhaustive"):
        raise ValueError(f"unknown backend {backend!r}")
    if not family.members:
        return family
    members, tags = _lex_dedupe(family)
    if backend == "algebraic":
        keep = _algebraic_keep(members, family.universe_size, q)
    else:
        keep = _exhaustive_keep(members, family.universe_size, q)
    return LabeledSetFamily(
        family.universe_size,
        tuple(members[i] for i in keep),
        tuple(tags[i] for i in keep),
    )


def _slot_universe(sequences: Sequence[ColorSeq], r: int) -> int:
    top = max((max(s) for s in sequences if s), default=-1)
    return (top + 1) * r


def ordered_representative(
    w: SeqFamily, r: int | None = None, backend: str = "algebraic"
) -> SeqFamily:
    """Prune a window family while preserving compatible continuations.

    For every continuation sequence of length at most r, if some stored
    window is compatible to it then some kept window still is. Size after
    pruning is at most ordered_bound(r).
    """
    if r is None:
        r = w.r
    elif r != w.r:
        raise ValueError(f"explicit r={r} differs from family r={w.r}")
    if not w.sequences:
        return w
    order = sorted(range(len(w.sequences)), key=lambda i: (w.sequences[i], i))
    sequences: list[ColorSeq] = []
    tags: list[Any] = []
    for i in order:
        if sequences and sequences[-1] == w.sequences[i]:
            continue
        sequences.append(w.sequences[i])
        tags.append(w.tags[i])
    if r == 0:
        return SeqFamily(0, (sequences[0],), (tags[0],))
    if backend == "algebraic":
        keep = _ordered_algebraic_keep(sequences, r)
    elif backend == "exhaustive":
        keep = _ordered_exhaustive_keep(sequences, r)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return SeqFamily(w.r, tuple(sequences[i] for i in keep), tuple(tags[i] for i in keep))


def _ordered_algebraic_keep(sequences: list[ColorSeq], r: int) -> list[int]:
    universe = _slot_universe(sequences, r)
    flat = []
    seen: dict[tuple[int, ...], int] = {}
    rep_of: list[int] = []
    for idx, s in enumerate(sequences):
        key = tuple(sorted(encoded_slot_index(c, i, r) for c, i in blocked_slots(s, r)))
        if key in seen:
            continue
        seen[key] = idx
        flat.append(key)
        rep_of.append(idx)
    fam = LabeledSetFamily(universe, tuple(flat), tuple(rep_of))
    kept = unordered_representative(fam, r, backend="algebraic")
    return sorted(kept.tags)


def _fresh_palette(sequences: Iterable[ColorSeq], r: int) -> list[int]:
    """Family colors plus r fresh ones.

    Any continuation over arbitrary colors behaves, against every stored
    window, like one whose out-of-family colors are replaced by distinct
    fresh colors, and a continuation has at most r positions, so r fresh
    colors make the enumeration exhaustive.
    """
    colors = sorted({c for s in sequences for c in s})
    base = (colors[-1] + 1) if colors else 0
    return colors + [base + i for i in range(r)]


def _ordered_exhaustive_keep(sequences: list[ColorSeq], r: int) -> list[int]:
    """Greedy coverage over all continuations of length <= r."""
    palette = _fresh_palette(sequences, r)
    kept: list[int] = []
    for length in range(r + 1):
        for rho in product(palette, repeat=length):
            if any(r_compatible(sequences[i], rho, r) for i in kept):
                continue
            for idx, s in enumerate(sequences):
                if r_compatible(s, rho, r):
                    kept.append(idx)
                    break
    return sorted(kept)


def is_unordered_representative(
    kept: LabeledSetFamily, full: LabeledSetFamily, q: int
) -> bool:
    """Definitional check, exhaustive over all obstructions of size <= q."""
    kept_sets = [set(m) for m in kept.members]
    if not all(m in full.members for m in kept.members):
        return False
    full_sets = [set(m) for m in full.members]
    for size in range(q + 1):
        for obstruction in combinations(range(full.universe_size), size):
            oset = set(obstruction)
            if any(not (m & oset) for m in full_sets) and not any(
                not (m & oset) for m in kept_sets
            ):
                return False
    return True


def is_ordered_representative(
    kept: SeqFamily, full: SeqFamily, r: int, palette: Sequence[int] | None = None
) -> bool:
    """Definitional check over all continuations of length <= r.

    Continuations are drawn from ``palette`` (default: the family's
    colors plus r fresh ones, which is exhaustive up to renaming); all
    sequences are tried, rainbow or not.
    """
    if not all(s in full.sequences for s in kept.sequences):
        return False
    if palette is None:
        palette = _fresh_palette(full.sequences, r)
    for length in range(r + 1):
        for rho in product(palette, repeat=length):
            if any(r_compatible(s, rho, r) for s in full.sequences) and not any(
                r_compatible(s, rho, r) for s in kept.sequences
            ):
                return False
    return True
