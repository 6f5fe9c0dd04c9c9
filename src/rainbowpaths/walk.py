"""Locally rainbow walk solvers.

The main solver runs the layered dynamic program of ``core.layered_dp``
with no visited set, so its cells hold trailing color windows. A window
of r colors blocks the next color with its first color and with its
(r - 1)-color tail, and the successors it steps to depend on the tail
alone; so each cell first keeps, per tail, the two windows with the
smallest first colors. At r = 2 every window of a cell ends in the
cell's color, so that leaves at most two windows. Cells that still
outgrow ``ordered_bound(r)`` are pruned with ordered representative
families, so cell sizes stay bounded by a function of the locality
radius alone. ``bfs_walk`` answers walks of any length, and at-most
queries at radius 0 and 1, by a breadth-first search over (vertex,
window) states that keeps at most two full windows per vertex and tail.
"""

from __future__ import annotations

from typing import Any

from .core import (
    Cell,
    ColoredDigraph,
    ColorSeq,
    Level,
    Query,
    Witness,
    layered_dp,
    slot_set,
    witness_at,
)
from .repfam import ordered_bound, representative_keep


def dedupe_window_cell(windows: dict[ColorSeq, Any], r: int) -> dict[ColorSeq, Any]:
    """Keep, of the full windows sharing a tail ``window[1:]``, the two with the smallest first colors.

    A window of r colors admits a next color c when c is in none of them,
    and steps to ``tail + (c,)``: its first color matters for that one step
    only. So windows with one tail step to the same successors, and two of
    them with distinct first colors admit every c that any of the class
    admits. Shorter windows pass untouched, each kept window keeps its
    value, and which windows are kept depends only on the cell's windows,
    not on their order.
    """
    classes: dict[ColorSeq, list[ColorSeq]] = {}
    for window in windows:
        classes.setdefault(window[1:], []).append(window)
    if max(map(len, classes.values())) <= 2:
        return windows
    # in a class of full windows, which share the tail, sorting orders by first color
    return {
        w: windows[w]
        for tail, c in classes.items()
        for w in (sorted(c)[:2] if len(c) > 2 and len(tail) == r - 1 else c)
    }


def prune_window_cell(
    windows: dict[ColorSeq, Any], r: int, stats: dict | None = None
) -> dict[ColorSeq, Any]:
    """Replace a window cell by an ordered representative when it grows too large.

    Values of the dict are carried along untouched, and kept windows come
    back in sorted order; a cell too wide to prune stays as it is.
    """
    if r == 0 or len(windows) <= ordered_bound(r):
        return windows
    keys = sorted(windows)
    keep = window_keep(keys, r)
    if keep is None:
        return windows
    if stats is not None:
        stats["rep_calls"] = stats.get("rep_calls", 0) + 1
    return {keys[i]: windows[keys[i]] for i in sorted(keep)}


def window_keep(windows: list[ColorSeq], r: int) -> list[int] | None:
    """Indices of an ordered representative of nonempty windows, at r >= 1; None if too wide.

    Position r of a continuation is blocked only by a window's last color.
    When every window ends in the same color, as in a walk cell,
    those slots are a core the prune strips, so at most r - 1 elements of
    an obstruction matter and the family is pruned at q = r - 1.
    """
    universe = (max(max(w) for w in windows) + 1) * r
    q = r - 1 if len({w[-1] for w in windows}) == 1 else r
    return representative_keep([slot_set(w, r) for w in windows], universe, q)


def _walk_levels(
    g: ColoredDigraph,
    r: int,
    ell: int,
    mode: str,
    stats: dict | None,
) -> list[Level]:
    """The walk DP: members keep no visited vertex, and each cell is deduped, then pruned.

    The tail dedupe leaves at most two windows per (r - 1)-color tail, so
    at r = 2, where every window ends in the cell's color, at most two in
    all; a cell still above ``ordered_bound(r)`` gets the ordered prune.
    """

    def reduce(u: int, p: int, cell: Cell) -> Cell:
        windows = {window: parent for (_, window), parent in cell.items()}
        kept = prune_window_cell(dedupe_window_cell(windows, r), r, stats)
        if kept is windows:
            return cell
        return {(0, window): parent for window, parent in kept.items()}

    nothing = [0] * g.n
    return layered_dp(
        g.out_neighbors, g.colors, lambda p, prev: nothing, g.s, g.t, g.dist_to_t, r, ell, mode,
        reduce, stats, total_key="total_windows",
    )


def solve_walk(g: ColoredDigraph, query: Query, *, stats: dict | None = None) -> Witness | None:
    """Decide existence of a locally rainbow s-t walk within a length bound.

    Args:
        g: the colored digraph.
        query: radius, length bound, and mode ("atmost" or "exact").
        stats: optional dict populated with DP size counters.

    Returns:
        A witness walk, or None. In "atmost" mode the witness is a shortest
        locally rainbow walk.
    """
    if query.mode not in ("atmost", "exact"):
        raise ValueError("solve_walk handles modes 'atmost' and 'exact'; bfs_walk answers mode 'any'")
    levels = _walk_levels(g, query.r, query.ell, query.mode, stats)
    return witness_at(levels, g.t)


def bfs_walk(
    g: ColoredDigraph, r: int, ell: int | None = None, *, stats: dict | None = None
) -> Witness | None:
    """A shortest locally rainbow s-t walk of at most ell arcs (any length if ell is None), or None.

    A breadth-first search over (vertex, last r colors) states. A full
    window is skipped once its vertex holds two with its (r - 1)-color
    tail: by ``dedupe_window_cell``'s argument one of the two admits every
    next color it admits, and all three step to the same successors, so the
    search stays exact and, as the two were found no later, shortest. At
    r <= 1 a state is its vertex, so the witness is a path.

    ``stats`` receives ``levels``, the depth searched, and
    ``total_windows``, the states kept past the start.
    """
    colors, out_adj = g.colors, g.out_neighbors
    cut = -r if r >= 1 else 1  # slicing from ``cut`` keeps the last r colors; none at r = 0
    start = (g.s, (colors[g.s],)[:r])
    parent: dict[tuple[int, ColorSeq], tuple[int, ColorSeq] | None] = {start: None}
    full_per_tail: dict[tuple[int, ColorSeq], int] = {}
    frontier = [start]
    depth = 0
    found = None
    while frontier and found is None and depth != ell:
        depth += 1
        nxt = []
        for state in frontier:
            window = state[1]
            for u in out_adj[state[0]]:
                c = colors[u]
                if c in window:
                    continue
                child = (u, (window + (c,))[cut:])
                if child in parent:
                    continue
                if len(child[1]) == r:
                    key = (u, child[1][1:])
                    kept = full_per_tail.get(key, 0)
                    if kept == 2:
                        continue
                    full_per_tail[key] = kept + 1
                parent[child] = state
                nxt.append(child)
                if u == g.t and found is None:
                    found = child
        frontier = nxt
    if stats is not None:
        stats["levels"] = depth
        stats["total_windows"] = len(parent) - 1
    vertices = []
    while found is not None:
        vertices.append(found[0])
        found = parent[found]
    return Witness(tuple(reversed(vertices))) if vertices else None
