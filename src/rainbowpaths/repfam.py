"""Representative set families, the pruning engine behind the solvers.

A q-representative of a family of p-element sets preserves, for every
obstruction set Y with |Y| <= q, the existence of a member disjoint from Y.
The walk DP's ordered variant (preserve a compatible window for every
continuation) reduces to it through ``core.slot_set``. One routine,
``representative_keep``, computes it algebraically. It first strips the
elements every member shares, which leaves the answer unchanged but
shrinks p, and with it the binom(p + q, p) wedge coordinates of the
Vandermonde matrix over a prime field; a greedy row basis of those
coordinates then picks the kept members. In a walk cell every window ends
in the vertex's color, so at r = 2 the strip takes p from 3 to 1. The
exhaustive references and the definitional checks live in ``oracle``.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

from . import _kernels


def unordered_bound(p: int, q: int) -> int:
    """Guaranteed size bound of a q-representative of p-sets."""
    return math.comb(p + q, p)


def ordered_bound(r: int) -> int:
    """Guaranteed size bound of an ordered representative at locality r."""
    return max(1, math.floor((r * math.e) ** r))


# Largest algebraic_width a prune may materialize; wider families stay unpruned.
WEDGE_WIDTH_LIMIT = 200_000


def algebraic_width(p: int, q: int, universe_size: int) -> int:
    """Number of wedge coordinates a prune of p-sets at budget q materializes."""
    q_eff = min(q, max(0, universe_size - p))
    return math.comb(p + q_eff, p)


def representative_keep(
    sets: Sequence[Sequence[int]], universe: int, q: int
) -> list[int] | None:
    """Indices of a q-representative subfamily of ``sets``, or None if too wide to compute.

    The sets must be equally sized subsets of [0, universe). The prune runs
    on a stripped family: the core C of elements every set contains is
    dropped, and so is every element no set contains. This is exact: an
    obstruction meeting C blocks every member, a member avoids one that
    misses C exactly when its stripped part does, and elements outside the
    union decide nothing. Rows are taken in order of
    (sorted set, input index), which stripping leaves unchanged, and a row
    is kept iff its wedge vector is independent of the rows kept before
    it; a duplicate set gives an equal row, so only its first copy is
    kept. The kept indices come back in that row order, at most
    unordered_bound(p - |C|, q) of them. None means the stripped family
    would materialize more than ``WEDGE_WIDTH_LIMIT`` wedge coordinates
    and the prune was not run.

    Raises:
        ValueError: if q < 0, or the sets differ in size, repeat an
            element, or leave [0, universe).
    """
    if q < 0:
        raise ValueError("obstruction budget q must be non-negative")
    if not sets:
        return []
    try:
        rows = np.array(sets, dtype=np.int64)
    except ValueError as exc:
        raise ValueError("sets must all have the same size") from exc
    if rows.ndim != 2:
        raise ValueError("sets must all have the same size")
    rows.sort(axis=1)
    if rows.size and (rows[:, 0].min() < 0 or rows[:, -1].max() >= universe):
        raise ValueError(f"set elements must lie in [0, {universe})")
    if np.any(rows[:, 1:] == rows[:, :-1]):
        raise ValueError("a set repeats an element")
    # strip the core every row shares, then relabel the rest of the union densely
    counts = np.bincount(rows.ravel(), minlength=universe)
    rest = (counts > 0) & (counts < len(rows))
    rows = (np.cumsum(rest) - 1)[rows[rest[rows]].reshape(len(rows), -1)]
    universe = int(np.count_nonzero(rest))
    p = rows.shape[1]
    if algebraic_width(p, q, universe) > WEDGE_WIDTH_LIMIT:
        return None
    rank = p + min(q, max(0, universe - p))
    xs = np.arange(1, universe + 1, dtype=np.int64)
    vander = np.empty((rank, xs.size), dtype=np.int64)
    power = np.ones_like(xs)
    for i in range(rank):
        vander[i] = power
        power = power * xs % _kernels.MODULUS
    # lexsort is stable and reads its last key first, so equal sets keep input order
    order = np.lexsort(rows.T[::-1]) if p else np.arange(len(rows))
    coords = np.array(list(combinations(range(rank), p)), dtype=np.int64)
    keep = _kernels.greedy_row_basis(_kernels.batch_minors(vander, rows[order], coords))
    return order[keep.astype(bool)].tolist()
