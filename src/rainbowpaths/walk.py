"""Locally rainbow walk solver.

``solve_walk`` answers walk queries over (level, vertex, trailing color
window) states, with no visited set, by one of two engines. An exact
question of fewer than n arcs goes to the depth-first search of
``path._path_search``, which stops at its first accepted walk. Every
other question goes to a layered dynamic program that holds one level at
a time: an exact one of n arcs or more, where the search would keep a
memo of ell levels, and modes "atmost" and "any". A window of r colors
blocks the next color with its first color and with its (r - 1)-color
tail, and the successors it steps to depend on the tail alone. So a cell
maps each tail to at most two first colors: two distinct first colors
admit every next color outside the tail, one admits all of those but
itself, and a third adds nothing. A successor's tail is its
predecessor's stem (the tail less its first color) plus its own color,
so tails that share a stem feed one class at each successor; the
expansion groups a cell's tails by stem, looks that class up once per
group and feeds it until it holds two first colors. In modes "atmost"
and "any" a class also keeps its first colors across levels, so the DP
is a breadth-first search over (vertex, window) states that finds a
shortest walk, and at radius 0 and 1 a path. Every window of a cell ends
in the cell's color, so at r = 2 a cell holds at most two windows. Cells
that still outgrow ``ordered_bound(r)`` are pruned with ordered
representative families at q = r - 1, the shared color's slots stripped,
which bounds cell sizes by a function of the radius alone. The search
keeps its memos small by the same two rules.
"""

from __future__ import annotations

import math
from typing import Any

from .core import _PAD, ColoredDigraph, ColorSeq, Query, Witness, unwind
from .path import _path_search
from .repfam import ordered_bound, window_keep

# tail -> first color -> link, where a link is (vertex, link) for the walk
# before the window's vertex, or None at s
WalkCell = dict[ColorSeq, dict[int, Any]]


def prune_window_cell(cell: WalkCell, r: int) -> WalkCell:
    """Replace a walk cell by an ordered representative of its windows, at r >= 1.

    ``window_keep`` reads the windows in cell order, so which windows it
    keeps follows that order. The kept entries are filed back in cell
    order, links untouched.
    """
    entries = [((first,) + tail, tail, first, link) for tail, firsts in cell.items() for first, link in firsts.items()]
    keep = window_keep(entries[0][0], r)
    pruned: WalkCell = {}
    for window, tail, first, link in entries:
        if keep(window):
            pruned.setdefault(tail, {})[first] = link
    return pruned


def _new_entries(cell: WalkCell, old: WalkCell) -> WalkCell:
    """The entries of a cell that its classes, holding ``old`` from earlier levels, take in.

    A class takes new first colors in arrival order until it holds two;
    they are recorded in ``old``. ``old`` shares its dicts with earlier
    levels' cells, which are all expanded by the time it changes.
    """
    new: WalkCell = {}
    for tail, firsts in cell.items():
        kept = old.get(tail)
        if kept is None:
            old[tail] = new[tail] = firsts
            continue
        for first, link in firsts.items():
            if len(kept) < 2 and first not in kept:
                kept[first] = new.setdefault(tail, {})[first] = link
    return new


def _last_level(
    g: ColoredDigraph, r: int, ell: int, mode: str, stats: dict | None
) -> dict[int, WalkCell]:
    """The walk DP's last level: each vertex u it reaches, with u's cell.

    A window is padded on the left with ``_PAD`` to r colors and filed as
    its first color under its tail. At r <= 1 no color drops out of a
    step's window, so the tail is the whole window and the first color
    is ``_PAD``. An arc into u at level p extends a window when u's color
    is not in it and ``dist_t[u] <= ell - p``; mode "any" ignores ``ell``
    and sets no budget, so only vertices that cannot reach t are gated. Each
    window links to the walk before it, so the last level alone gives the
    witness.

    Each level groups a cell's tails by stem, since the tails of a stem
    feed one successor class at each head. The class is looked up once per
    group and head and skipped when it already holds two first colors;
    otherwise the group's tails that do not block the head's color feed it
    in cell order until it holds two. Each class so receives its entries
    in (vertex, tail) order, as a tail-by-tail expansion would give them,
    and misses only those it would drop. Classes are created group by
    group, which from r = 4 on can differ from tail order and so change
    the witness, never the answer; at r <= 3 every cell has one stem.

    In mode "exact" level p holds the windows of walks of p arcs from s.
    In modes "atmost" and "any" a (vertex, tail) class keeps the first
    colors it collects across all levels, at most two, and a level holds
    only the entries new at it. A first color dropped from a full class is
    covered by one of the two that arrived no later, so the search stays
    exact and its first level holding t is the shortest length; at r <= 1
    a class is its vertex, so the witness is a path.

    The DP stops after level ``ell``, after an empty level, or, outside
    mode "exact", after the first level holding t. ``stats`` receives
    ``levels``, ``max_cell``, ``total_windows`` (first colors kept,
    summed over levels) and, once a cell is pruned, ``rep_calls``; a gate
    that refuses s leaves ``levels`` and ``total_windows`` at 0.
    """
    colors, out_adj, dist_t = g.colors, g.out_neighbors, g.dist_to_t
    level: dict[int, WalkCell] = {g.s: {((_PAD,) * (r - 2) + (colors[g.s],))[:r]: {_PAD: None}}}
    stats = {} if stats is None else stats
    stats.setdefault("levels", 0)
    stats.setdefault("total_windows", 0)
    last = math.inf if mode == "any" else ell
    if dist_t[g.s] is None or dist_t[g.s] > last:  # type: ignore[operator]
        return level
    # u -> tail -> the first colors u's class took in at all levels; none in exact mode
    seen: dict[int, WalkCell] | None = None if mode == "exact" else {g.s: level[g.s]}
    bound = ordered_bound(r)
    p = 0
    while p < last:
        p += 1
        # u -> (color, the colors u adds to a tail, cell) for each u past
        # the distance gate; at r = 0 tails stay empty
        heads_at: dict[int, tuple[int, ColorSeq, WalkCell]] = {}
        for v, cell in level.items():
            heads = []
            for u in out_adj[v]:
                head = heads_at.get(u)
                if head is None:
                    if dist_t[u] is None or dist_t[u] > last - p:  # type: ignore[operator]
                        continue
                    head = heads_at[u] = (colors[u], (colors[u],)[:r], {})
                heads.append(head)
            # stem -> [(lead, blocked, a, via_a, via_b) per tail]: a successor's
            # first color is the tail's first (its lead), its tail the stem
            # plus u's color
            stems: dict[ColorSeq, list] = {}
            for tail, firsts in cell.items():
                if len(firsts) == 2:
                    (a, link_a), (_, link_b) = firsts.items()
                    blocked = tail
                else:
                    ((a, link_a),) = firsts.items()
                    link_b = link_a
                    blocked = tail + (a,)
                stems.setdefault(tail[1:], []).append(
                    (tail[0] if r > 1 else _PAD, blocked, a, (v, link_a), (v, link_b))
                )
            for stem, entries in stems.items():
                for c, added, successors in heads:
                    key = stem + added
                    kept = successors.get(key)
                    if kept is not None and len(kept) == 2:
                        continue
                    for lead, blocked, a, via_a, via_b in entries:
                        if c in blocked:
                            continue
                        if kept is None:
                            kept = successors[key] = {lead: via_b if c == a else via_a}
                        elif lead not in kept:
                            kept[lead] = via_b if c == a else via_a
                            break
        level = {}
        total = biggest = prunes = 0
        for u, (*_, cell) in heads_at.items():
            if cell and seen is not None:
                old = seen.setdefault(u, cell)
                if old is not cell:
                    cell = _new_entries(cell, old)
            if not cell:
                continue
            size = sum(map(len, cell.values()))
            if size > bound:
                cell = prune_window_cell(cell, r)
                prunes += 1
                size = sum(map(len, cell.values()))
            level[u] = cell
            total += size
            biggest = max(biggest, size)
        stats["levels"] = p
        stats["total_windows"] += total
        if level:
            stats["max_cell"] = max(stats.get("max_cell", 0), biggest)
        if prunes:
            stats["rep_calls"] = stats.get("rep_calls", 0) + prunes
        if not level or (seen is not None and g.t in level):
            break
    return level


def solve_walk(g: ColoredDigraph, query: Query, *, stats: dict | None = None) -> Witness | None:
    """Decide existence of a locally rainbow s-t walk within a length bound.

    Mode "exact" below n arcs runs the search, whose first accepted walk
    is the witness; everything else runs the layered program.

    Args:
        g: the colored digraph.
        query: radius, length bound, and mode; mode "any" ignores the bound.
        stats: optional dict populated with the engine's size counters.

    Returns:
        A witness walk, or None. Outside mode "exact" the witness is a
        shortest locally rainbow walk, and at r <= 1 it is a path.
    """
    # a radius past num_colors changes no answer: a walk of at most
    # num_colors vertices must be rainbow at either, and a longer one would
    # need num_colors + 1 distinct colors in one window
    r = min(query.r, g.num_colors)
    # below n arcs the search's memo spans fewer than n levels; from n on it
    # would grow with ell, and the program keeps one level
    if query.mode == "exact" and query.ell < g.n:
        return _path_search(g, r, query.ell, "exact", stats, walk=True)[0]
    cell = _last_level(g, r, query.ell, query.mode, stats).get(g.t)
    if cell is None:
        return None
    return unwind(g.t, next(iter(next(iter(cell.values())).values())))
