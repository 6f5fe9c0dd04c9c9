"""Representative set families, the pruning engine behind the walk DP.

A q-representative of a family of p-element sets preserves, for every
obstruction set Y with |Y| <= q, the existence of a member disjoint from Y.
The walk DP's ordered variant reduces to it through ``core.slot_set``;
the path search does not prune.
``representative_keep`` computes one greedily in plain Python: it keeps a
set when some obstruction avoids it and meets every set kept before it.
Frankl's skew version of Bollobás's theorem bounds what it keeps. The
definitional checks the tests hold a prune to live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence


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


def representative_keep(sets: Sequence[Sequence[int]], q: int) -> list[int]:
    """Indices of a q-representative subfamily of ``sets``, in input order.

    The sets must be equally sized sets of integers. They are read in
    input order, and a set is kept iff some obstruction Y of at most q
    elements avoids it and meets every set kept before it. This is exact:
    a dropped set has no such Y, so every Y it avoids also avoids a kept
    set. Of equal sets only the first is kept.

    Such a Y misses the core C of elements every set contains. ``hitting``
    holds Ys of at most q elements outside C that meet every kept set,
    among them every minimal one, so a set is kept iff one of them avoids
    it. The kept sets less C, each with a Y that avoids it and meets
    every set kept before it, form a skew Bollobás system, so at most
    unordered_bound(p - |C|, q) sets are kept.

    Raises:
        ValueError: if q < 0, or the sets differ in size or repeat an
            element.
    """
    if q < 0:
        raise ValueError("obstruction budget q must be non-negative")
    if not sets:
        return []
    if len(set(map(len, sets))) > 1:
        raise ValueError("sets must all have the same size")
    rows = [frozenset(s) for s in sets]
    if any(len(row) < len(s) for row, s in zip(rows, sets)):
        raise ValueError("a set repeats an element")
    core = frozenset.intersection(*rows)
    hitting = {frozenset()}
    keep = []
    for i, row in enumerate(rows):
        if not any(y.isdisjoint(row) for y in hitting):
            continue
        keep.append(i)
        hitting = {y for y in hitting if not y.isdisjoint(row)} | {
            y | {x} for y in hitting if len(y) < q and y.isdisjoint(row) for x in row - core
        }
    return keep
