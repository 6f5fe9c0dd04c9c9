"""Representative set families, the pruning engine behind the walk DP.

A q-representative of a family of p-element sets preserves, for every
obstruction set Y with |Y| <= q, the existence of a member disjoint from Y.
The walk DP's ordered variant reduces to it through ``core.slot_set``;
the path DP does not prune.
``representative_keep`` computes it in plain Python on the family stripped
of the elements every member shares: ``minors`` gives a set's binom(p + q, p)
Vandermonde minors over a prime field, and ``greedy_basis`` keeps the sets
whose minors raise the rank. The definitional checks the tests hold a
prune to live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

MODULUS = 2**31 - 1  # prime


def unordered_bound(p: int, q: int) -> int:
    """Guaranteed size bound of a q-representative of p-sets."""
    return math.comb(p + q, p)


def ordered_bound(r: int) -> int:
    """Guaranteed size bound of an ordered representative at locality r.

    Past the float range, from r = 123 on, it saturates at the largest
    float; no cell grows that large.
    """
    try:
        return math.floor((r * math.e) ** r)
    except OverflowError:
        return math.floor(sys.float_info.max)


# Most wedge coordinates a prune may materialize; wider families are refused.
WEDGE_WIDTH_LIMIT = 200_000


def representative_keep(sets: Sequence[Sequence[int]], q: int) -> list[int]:
    """Indices of a q-representative subfamily of ``sets``.

    The sets must be equally sized sets of integers. The prune runs on the
    family stripped of the core C of elements every set contains, with the
    rest of their union relabelled densely. This is exact: an obstruction
    meeting C blocks every member, a member avoids one that misses C
    exactly when its stripped part does, and elements outside the union
    decide nothing. Rows are taken in order of (sorted set, input index),
    which stripping leaves unchanged, and a row is kept iff its wedge
    vector is independent of the rows kept before it, so of equal sets
    only the first is kept. The kept indices come back in that row order,
    at most unordered_bound(p - |C|, q) of them.

    Raises:
        ValueError: if q < 0, or the sets differ in size or repeat an
            element, or the stripped family would materialize more than
            ``WEDGE_WIDTH_LIMIT`` wedge coordinates.
    """
    if q < 0:
        raise ValueError("obstruction budget q must be non-negative")
    if not sets:
        return []
    rows = [sorted(s) for s in sets]
    if len(set(map(len, rows))) > 1:
        raise ValueError("sets must all have the same size")
    if any(a == b for row in rows for a, b in zip(row, row[1:])):
        raise ValueError("a set repeats an element")
    # strip the core every row shares, then relabel the rest of the union densely
    core = set(rows[0]).intersection(*rows[1:])
    label = {x: i for i, x in enumerate(sorted({x for row in rows for x in row} - core))}
    rows = [[label[x] for x in row if x in label] for row in rows]
    universe, p = len(label), len(rows[0])
    rank = p + min(q, universe - p)
    width = math.comb(rank, p)
    if width > WEDGE_WIDTH_LIMIT:
        raise ValueError(f"family too wide to prune: {width} wedge coordinates, limit {WEDGE_WIDTH_LIMIT}")
    vander = [[pow(x, i, MODULUS) for i in range(rank)] for x in range(1, universe + 1)]
    order = sorted(range(len(rows)), key=rows.__getitem__)  # stable: equal sets keep input order
    kept = greedy_basis((minors(vander, rows[i], rank) for i in order), width)
    return [order[k] for k in kept]


def greedy_basis(rows: Iterable[Sequence[int]], width: int) -> list[int]:
    """Positions of the rows independent mod MODULUS of those kept before; stops once they span."""
    basis: list[tuple[int, int, list[int]]] = []  # (position, lead, row from lead on, scaled to 1)
    for i, row in enumerate(rows):
        row = [x % MODULUS for x in row]
        for _, lead, red in basis:
            if f := row[lead]:
                row[lead:] = [(a - f * b) % MODULUS for a, b in zip(row[lead:], red)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], MODULUS - 2, MODULUS)
            basis.append((i, lead, [x * inv % MODULUS for x in row[lead:]]))
            if len(basis) == width:
                break
    return [i for i, _, _ in basis]


def minors(columns: Sequence[Sequence[int]], cols: Sequence[int], rank: int) -> list[int]:
    """Minors mod MODULUS of the columns ``cols`` on each len(cols)-subset of rows, in order."""
    out = [1]
    for col, expansions in zip(cols, _laplace_plan(rank, len(cols))):
        column = columns[col]
        out = [sum(s * column[t] * out[sub] for s, t, sub in terms) % MODULUS for terms in expansions]
    return out


@lru_cache(maxsize=16)  # the few (rank, p) shapes a solve's prunes share
def _laplace_plan(rank: int, p: int) -> list[list[list[tuple[int, int, int]]]]:
    """Per k = 1..p and k-subset T of the rows: (sign, T[j], index of T minus T[j]) for each j."""
    plan, index = [], {(): 0}
    for k in range(1, p + 1):
        subsets = list(combinations(range(rank), k))
        plan.append([
            [((-1) ** (k - 1 - j), t, index[T[:j] + T[j + 1 :]]) for j, t in enumerate(T)]
            for T in subsets
        ])
        index = {T: i for i, T in enumerate(subsets)}
    return plan
