"""Locally rainbow walk solver.

``solve_walk`` answers walk queries over (level, vertex, trailing color
window) states, with no visited set, by one of two engines. An exact
question of fewer than n arcs goes to the depth-first search of
``path._path_search``, which stops at its first accepted walk. Every
other question goes to a layered dynamic program that holds one level at
a time: an exact one of n arcs or more, where the search would keep a
memo of ell levels, and modes "atmost" and "any". Both engines enter
each window through a ``repfam.WindowMemo``: at most two first colors
per tail class, and past ``ordered_bound(r)`` windows in a cell only the
ordered representatives of its windows, which bounds cell sizes by a
function of the radius alone. In modes "atmost" and "any" the memo keeps
its cells across levels, so the DP is a breadth-first search over
(vertex, window) states that finds a shortest walk, and at radius 0 and
1 a path. Every window of a cell ends in the cell's color, so at r = 2 a
cell holds at most two windows.
"""

from __future__ import annotations

import math
from typing import Any

from .core import _PAD, ColoredDigraph, ColorSeq, Query, Witness, unwind
from .path import _path_search
from .repfam import WindowMemo


def _last_level(
    g: ColoredDigraph, r: int, ell: int, mode: str, stats: dict | None
) -> dict[int, dict[ColorSeq, Any]]:
    """The walk DP's last level: each vertex u it reaches, with u's cell, a window -> link dict.

    A window is the last r colors, padded on the left with ``_PAD`` to r.
    An arc into u at level p extends a window when u's color is not in it
    and ``dist_t[u] <= ell - p``; mode "any" ignores ``ell`` and sets no
    budget, so only vertices that cannot reach t are gated. The successor
    is entered when a ``WindowMemo`` keyed by u admits it, and links to
    the walk before it, so the last level alone gives the witness.

    In mode "exact" level p holds the windows of walks of p arcs from s,
    and each level has a fresh memo. In modes "atmost" and "any" one memo
    spans all levels, so a level holds only the windows new at it. A
    window the memo refuses is covered by one entered no later, so the
    search stays exact and its first level holding t is the shortest
    length; at r <= 1 a cell holds one window, so the witness is a path.

    The DP stops after level ``ell``, after an empty level, or, outside
    mode "exact", after the first level holding t. ``stats`` receives
    ``levels``, ``max_cell``, ``total_windows`` (windows entered, summed
    over levels) and, once a memo's filter switches on, ``rep_calls``
    (the cells filtered); a gate that refuses s leaves ``levels`` and
    ``total_windows`` at 0.
    """
    colors, out_adj, dist_t = g.colors, g.out_neighbors, g.dist_to_t
    start = ((_PAD,) * (r - 1) + (colors[g.s],))[:r]
    level: dict[int, dict[ColorSeq, Any]] = {g.s: {start: None}}
    stats = {} if stats is None else stats
    stats.setdefault("levels", 0)
    stats.setdefault("total_windows", 0)
    last = math.inf if mode == "any" else ell
    if dist_t[g.s] is None or dist_t[g.s] > last:  # type: ignore[operator]
        return level
    # the colors u adds to a window; at r = 0 windows stay empty
    added = [(c,)[:r] for c in colors]
    memo = WindowMemo(r)
    memo.enter(g.s, start)
    filters = p = 0
    while p < last:
        p += 1
        if mode == "exact":
            filters += len(memo.keeps)
            memo = WindowMemo(r)
        enter, budget = memo.enter, last - p
        nxt: dict[int, dict[ColorSeq, Any]] = {}
        for v, cell in level.items():
            heads = [u for u in out_adj[v] if dist_t[u] is not None and dist_t[u] <= budget]  # type: ignore[operator]
            for window, link in cell.items():
                stem, via = window[1:], (v, link)
                for u in heads:
                    if colors[u] not in window and enter(u, successor := stem + added[u]):
                        nxt.setdefault(u, {})[successor] = via
        level = nxt
        stats["levels"] = p
        stats["total_windows"] += sum(map(len, level.values()))
        if level:
            stats["max_cell"] = max(stats.get("max_cell", 0), *map(len, level.values()))
        if not level or (mode != "exact" and g.t in level):
            break
    filters += len(memo.keeps)
    if filters:
        stats["rep_calls"] = stats.get("rep_calls", 0) + filters
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
    return unwind(g.t, next(iter(cell.values())))
