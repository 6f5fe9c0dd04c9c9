"""Representative set families, the pruning engine behind the walk solvers.

A q-representative of a family of p-element sets preserves, for every
obstruction set Y with |Y| <= q, the existence of a member disjoint from Y.
``RepresentativeFamily(q, core)`` grows one greedily, online: ``offer``
keeps a set when some obstruction avoids it and meets every set kept
before it. Frankl's skew version of Bollobás's theorem bounds what it
keeps. Its one caller is ``window_keep``, which offers walk windows
through ``core.slot_set`` with a cell's shared slots as core.
``WindowMemo`` is the one memo of both walk engines: it enters a window
into its cell by the tail class rule and, once the cell is full, by
``window_keep``. The path question does not prune. The definitional
checks the tests hold a prune to live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from typing import Callable, Hashable, Iterable

from .core import ColorSeq, slot_set


def ordered_bound(r: int) -> int:
    """Guaranteed size bound of an ordered representative at locality r.

    Past the float range, from r = 123 on, it saturates at the largest
    float; no cell grows that large.
    """
    try:
        return math.floor((r * math.e) ** r)
    except OverflowError:
        return math.floor(sys.float_info.max)


class RepresentativeFamily:
    """A q-representative subfamily, grown online from the sets offered to it.

    ``offer`` keeps a set iff some obstruction Y of at most q elements
    avoids it and meets every set kept before it. This is exact: a
    dropped set has no such Y, so every Y it avoids also avoids a kept
    set. Of equal sets only the first is kept.

    The sets offered must be equally sized and all contain ``core``; such
    a Y misses the core. ``hitting`` holds Ys of at most q elements
    outside the core that meet every kept set, among them every minimal
    one, so a set is kept iff one of them avoids it. The kept sets less
    the core, each with a Y that avoids it and meets every set kept
    before it, form a skew Bollobás system, so by Frankl's theorem at
    most C(p - |core| + q, q) sets of p elements are kept.
    """

    def __init__(self, q: int, core: Iterable[int]):
        self.q = q
        self.core = frozenset(core)
        self.hitting = {frozenset()}

    def offer(self, s: Iterable[int]) -> bool:
        """Keep ``s`` if some obstruction avoids it and every set kept so far; say whether it was kept."""
        row, hitting, q = frozenset(s), self.hitting, self.q
        if not any(y.isdisjoint(row) for y in hitting):
            return False
        fresh = row - self.core
        self.hitting = {y for y in hitting if not y.isdisjoint(row)} | {
            y | {x} for y in hitting if len(y) < q and y.isdisjoint(row) for x in fresh
        }
        return True


def window_keep(window: ColorSeq, r: int) -> Callable[[ColorSeq], bool]:
    """The online ordered keep, at r >= 1, for the windows of one walk cell, ``window`` among them.

    Every window of a cell ends in its vertex's color, and position r of
    a continuation is blocked only by a window's last color, so those
    slots are core, which no obstruction needs, and the windows are kept
    at q = r - 1. Their ``_PAD`` entries, the same in each window, give
    negative slots that are core too. A cell's windows also share their
    length, so at most C(r(r - 1)/2 + r - 1, r - 1) of them are kept.
    The keep answers, for each window offered in turn, whether it is kept.
    """
    core = [x for x in slot_set(window, r) if x < 0 or x // r == window[-1]]
    offer = RepresentativeFamily(r - 1, core).offer
    return lambda w: offer(slot_set(w, r))


class WindowMemo:
    """The windows entered into each cell of a walk engine, and the rule that admits a new one.

    A window of r colors blocks the next color with its first color and
    with its tail, the r - 1 colors after it, and its successors depend
    on the tail alone. So a cell takes at most two distinct first colors
    per tail: two admit every next color outside the tail, one admits all
    of those but itself, and a third adds nothing. Once a cell holds
    ``ordered_bound(r)`` windows, a new window is entered only if
    ``window_keep`` keeps it after the cell's earlier windows, which it is
    fed first when the cell's filter switches on. A window refused either
    way admits no continuation that an entered one does not.

    ``sizes`` maps each cell to the count of windows it entered, and ``keeps`` each
    cell whose filter switched on to its keep. Cells are any hashable
    key: (level, vertex) in the search, a vertex in the level DP.
    """

    def __init__(self, r: int):
        self.r, self.bound = r, ordered_bound(r)
        # cell -> tail -> the windows its class took in, in arrival order
        self.classes: defaultdict[Hashable, dict[ColorSeq, list[ColorSeq]]] = defaultdict(dict)
        self.sizes: defaultdict[Hashable, int] = defaultdict(int)
        self.keeps: dict[Hashable, Callable[[ColorSeq], bool]] = {}

    def enter(self, cell: Hashable, window: ColorSeq) -> bool:
        """Enter ``window`` into ``cell`` if the cell's rules admit it; say whether it was entered."""
        classes, tail = self.classes[cell], window[1:]
        kept = classes.get(tail)
        if kept is None:
            kept = classes[tail] = []
        elif len(kept) == 2 or window in kept:
            return False
        size = self.sizes[cell]
        if size >= self.bound:
            keep = self.keeps.get(cell)
            if keep is None:
                keep = self.keeps[cell] = window_keep(window, self.r)
                for windows in classes.values():
                    for w in windows:
                        keep(w)
            if not keep(window):
                return False
        kept.append(window)
        self.sizes[cell] = size + 1
        return True
