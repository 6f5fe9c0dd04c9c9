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
radius alone. The any-length variant caps the searched length (the cap
is linear in the vertex count for fixed radius). Shortcuts for radius 0
and 1 reduce to plain reachability.
"""

from __future__ import annotations

from math import ceil, e
from typing import Any

from .core import (
    Cell,
    ColoredDigraph,
    ColorSeq,
    Level,
    Query,
    Witness,
    bfs_distances,
    dist_to_target,
    layered_dp,
    slot_set,
    witness_at,
)
from .repfam import ordered_bound, representative_keep

ANY_LENGTH_BUDGET = 10**7


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
    dist_t: list[int | None],
    ell: int,
    mode: str,
    stats: dict | None,
) -> list[Level]:
    """The walk DP: members keep an empty visited mask, and each cell is deduped, then pruned.

    The tail dedupe leaves at most two windows per (r - 1)-color tail, so
    at r = 2, where every window ends in the cell's color, at most two in
    all; a cell still above ``ordered_bound(r)`` gets the ordered prune.
    Both keep the same windows whatever order the cell was filled in, so
    mode "any"'s repeated-state test in ``layered_dp`` stays sound.
    """

    def reduce(u: int, p: int, cell: Cell) -> Cell:
        windows = {window: parent for (_, window), parent in cell.items()}
        kept = prune_window_cell(dedupe_window_cell(windows, r), r, stats)
        if kept is windows:
            return cell
        return {(0, window): parent for window, parent in kept.items()}

    no_bits = [0] * g.n
    return layered_dp(
        g.out_neighbors, g.colors, no_bits, g.s, g.t, dist_t, r, ell, mode, reduce, stats,
        total_key="total_windows",
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
        raise ValueError("solve_walk handles modes 'atmost' and 'exact'; see solve_walk_any_length")
    levels = _walk_levels(g, query.r, dist_to_target(g), query.ell, query.mode, stats)
    return witness_at(levels, g.t)


def any_length_cap(n: int, r: int) -> int:
    """Length bound beyond which an any-length search cannot gain anything."""
    if r <= 1:
        return n
    return n * ceil(((r - 1) * e) ** (r - 1))


def solve_walk_any_length(
    g: ColoredDigraph, r: int, *, stats: dict | None = None
) -> Witness | None:
    """Decide existence of a locally rainbow s-t walk of unrestricted length.

    Runs the walk DP up to a radius-dependent cap, stopping early if the
    pruned level state repeats. Its distance gate admits every vertex that
    can reach t at every level, so the transition does not depend on the
    level, and a repeat proves divergence.

    Raises:
        ValueError: if the estimated DP work exceeds ``ANY_LENGTH_BUDGET``.
    """
    cap = any_length_cap(g.n, r)
    # the tail dedupe keeps two windows per (r - 1)-color tail, which ends in the cell's color
    per_cell = 1 if r <= 1 else min(ordered_bound(r), 2 * max(1, g.num_colors - 1) ** (r - 2))
    if cap * g.n * per_cell > ANY_LENGTH_BUDGET:
        raise ValueError(
            f"estimated any-length walk DP work {cap * g.n * per_cell} exceeds "
            f"{ANY_LENGTH_BUDGET}; use --solver oracle"
        )
    reaches_t = [None if d is None else 0 for d in dist_to_target(g)]
    return witness_at(_walk_levels(g, r, reaches_t, cap, "any", stats), g.t)


def bfs_walk(g: ColoredDigraph, r: int, ell: int) -> Witness | None:
    """Shortcut for r <= 1: a shortest s-t walk of length at most ell by plain BFS, or None.

    At r = 0 every arc may be walked, and at r = 1 every arc between two
    different colors; no other constraint applies at these radii. A
    shortest such walk is simple, so this also answers the path question.
    """
    colors = g.colors

    def allowed(u: int, v: int) -> bool:
        return r == 0 or colors[u] != colors[v]

    adj = [[v for v in g.out_neighbors[u] if allowed(u, v)] for u in range(g.n)]
    dist = bfs_distances(adj, g.s)
    d = dist[g.t]
    if d is None or d > ell:
        return None
    vertices = [g.t]
    while d > 0:
        d -= 1
        v = vertices[-1]
        vertices.append(next(u for u in g.in_neighbors[v] if dist[u] == d and allowed(u, v)))
    return Witness(tuple(reversed(vertices)))
