"""Locally rainbow path solvers.

The path dynamic program is ``core.layered_dp`` with one bit per vertex,
so it tracks, per level and endpoint, pairs of (visited vertex set,
trailing color window); a visited set is stored as a vertex bitmask.
Three devices keep cells small: the engine's distance gate toward the
target, a projection dedupe that identifies members agreeing on the
forward-reachable part of their visited set (it keys each member on
``visited & near``, where ``near`` masks the vertices within the
remaining budget), and representative-family pruning over a flattened
universe mixing vertices with blocked color slots. The same engine runs
the detour solver's segments: from a separator and its prefix's window,
on the graph itself, with the gate admitting only the band of distance
levels the segment may cross. A radius-2 shortcut handles symmetric
instances at shortest-path length.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    Cell,
    ColorSeq,
    ColoredDigraph,
    Level,
    Member,
    Query,
    Witness,
    backtrack,
    bfs_distances,
    dist_from_source,
    dist_to_target,
    layered_dp,
    slot_set,
    witness_at,
)
from .repfam import representative_keep

PRUNE_THRESHOLD = 4096


def _near_masks(row: Sequence[int | None], horizon: int) -> list[int]:
    """Cumulative masks of a BFS row: near[d] holds every x with row[x] <= d, for d <= horizon."""
    near = [0] * (horizon + 1)
    for x, d in enumerate(row):
        if d is not None and d <= horizon:
            near[d] |= 1 << x
    for d in range(1, horizon + 1):
        near[d] |= near[d - 1]
    return near


def _dedupe_cell(cell: Cell, near_mask: int) -> Cell:
    """Keep one member per (forward-relevant visited set, window) projection.

    ``near_mask`` holds the vertices reachable within the remaining budget.
    Two members whose visited sets agree on those vertices admit exactly
    the same completions, so dropping one of them loses nothing; the
    first member of each projection, in cell order, is kept.
    """
    kept: Cell = {}
    seen: set[Member] = set()
    for member, parent in cell.items():
        visited, window = member
        key = (visited & near_mask, window)
        if key in seen:
            continue
        seen.add(key)
        kept[member] = parent
    return kept


def _prune_cell(
    cell: Cell,
    n: int,
    num_colors: int,
    r: int,
    budget: int,
    stats: dict | None,
) -> Cell:
    """Representative-family pruning over the vertex + blocked-slot universe."""
    if len(cell) <= PRUNE_THRESHOLD:
        return cell
    assert budget >= 0
    members = list(cell)
    sets = [
        tuple(x for x in range(n) if visited >> x & 1) + slot_set(window, r, n)
        for visited, window in members
    ]
    keep = representative_keep(sets, n + num_colors * r, budget)
    if keep is None:
        return cell
    if stats is not None:
        stats["rep_calls"] = stats.get("rep_calls", 0) + 1
    return {members[i]: cell[members[i]] for i in keep}


def _path_levels(
    out_adj: Sequence[Sequence[int]],
    colors: Sequence[int],
    dist_t: Sequence[int | None],
    source: int,
    window: ColorSeq,
    target: int,
    r: int,
    ell: int,
    mode: str,
    stats: dict | None = None,
) -> list[Level]:
    """The path DP gated on ``dist_t``: members carry visited bits; cells are deduped and pruned."""
    n = len(out_adj)
    num_colors = max(colors, default=0) + 1
    # near masks of forward BFS rows, filled in when a vertex first needs a dedupe
    reach: list[list[int] | None] = [None] * n

    def reduce(u: int, p: int, cell: Cell) -> Cell:
        near = reach[u]
        if near is None:
            near = reach[u] = _near_masks(bfs_distances(out_adj, u), ell)
        cell = _dedupe_cell(cell, near[ell - p])
        return _prune_cell(cell, n, num_colors, r, r + ell - p, stats)

    bits = [1 << x for x in range(n)]
    return layered_dp(
        out_adj, colors, bits, source, window, target, dist_t, r, ell, mode, reduce, stats
    )


def solve_path(g: ColoredDigraph, query: Query, *, stats: dict | None = None) -> Witness | None:
    """Decide existence of a locally rainbow s-t path within a length bound.

    Mode "exact" asks for length exactly ell, "atmost" for any length up
    to ell, and "any" for any length at all (equivalent to atmost n-1).

    Returns:
        A witness path, or None.
    """
    if query.mode == "any":
        ell, mode = g.n - 1, "atmost"
    elif query.mode == "atmost":
        ell, mode = min(query.ell, g.n - 1), "atmost"
    else:
        ell, mode = query.ell, "exact"
        if ell > g.n - 1:
            return None
    levels = _path_levels(
        g.out_neighbors, g.colors, dist_to_target(g), g.s, (g.colors[g.s],)[:query.r], g.t,
        query.r, ell, mode, stats,
    )
    return witness_at(levels, g.t)


def segment_window_family(
    g: ColoredDigraph,
    d: Sequence[int | None],
    u: int,
    window: ColorSeq,
    j: int,
    r: int,
    ell: int,
) -> list[tuple[int, int, ColorSeq, tuple[int, ...]]]:
    """Simple segments of at most ``ell`` arcs from u to distance level j, one per end window.

    Runs the path DP in exact mode on ``g.out_neighbors`` from the member
    ``(1 << u, window)``, where ``window`` is the trailing color window of
    a prefix that ends at u, so a segment's window at its end is the
    window of the stitched prefix there. Interior vertices lie in the
    band: the distance levels strictly between j and d[u], or every level
    above j when u is g.s. Level-j vertices lose their out-arcs, so they
    can only end a segment. The gate is ``d[w] - j`` on the band and
    level j, and ``d[u] - j`` at u; an arc lowers the distance to g.t by
    at most one, so it never exceeds the arcs from w to level j in the band.

    Args:
        g: the graph.
        d: distances to g.t.
        u: segment start vertex.
        window: trailing colors of the prefix ending at u.
        j: distance level of the segment end vertices, below d[u].
        r: locality radius.
        ell: the most arcs a segment may have.

    Returns:
        Tuples (v, q, window at v, segment vertices u..v) of q arcs, one per
        distinct (v, q, window), in order of q.
    """
    top = g.n if u == g.s else d[u]  # every distance is below n
    gate: list[int | None] = [
        dw - j if dw is not None and j <= dw < top else None for dw in d  # type: ignore[operator]
    ]
    gate[u] = d[u] - j  # type: ignore[operator]
    out_adj = [() if dw == j else arcs for dw, arcs in zip(d, g.out_neighbors)]
    # exact mode never stops at a target, so none is named
    levels = _path_levels(out_adj, g.colors, gate, u, window, -1, r, ell, "exact")
    # a level-j vertex reaches only itself, so the dedupe leaves one member per window in its cell
    return [
        (v, q, member[1], backtrack(levels, q, v, member))
        for q in range(1, len(levels))
        for v, cell in levels[q].items()
        if d[v] == j
        for member in cell
    ]


def solve_r2_symmetric(g: ColoredDigraph, ell: int, *, stats: dict | None = None) -> Witness | None:
    """Radius-2 shortcut for symmetric graphs at shortest-path length.

    Searches the product of vertices with the predecessor's color; a walk
    of length exactly dist(s, t) is automatically simple, so the result
    answers the path question.

    Raises:
        ValueError: if the graph is not symmetric, has a monochromatic
            arc, or ell differs from the s-t distance.
    """
    if not g.is_symmetric():
        raise ValueError("shortcut requires a symmetric graph")
    if g.has_monochromatic_arc():
        raise ValueError("shortcut requires no monochromatic arc")
    if dist_from_source(g)[g.t] != ell:
        raise ValueError("shortcut requires ell equal to the s-t distance")
    # state: (vertex, color of the previous vertex); None before any step
    start = (g.s, -1)
    parent: dict[tuple[int, int], tuple[int, int] | None] = {start: None}
    frontier = [start]
    steps = 0
    while frontier and steps < ell:
        steps += 1
        nxt = []
        for state in frontier:
            v, prev_color = state
            for u in g.out_neighbors[v]:
                if g.colors[u] == prev_color or g.colors[u] == g.colors[v]:
                    continue
                new_state = (u, g.colors[v])
                if new_state in parent:
                    continue
                parent[new_state] = state
                if u == g.t and steps == ell:
                    vertices = [u]
                    cur = state
                    while cur is not None:
                        vertices.append(cur[0])
                        cur = parent[cur]
                    return Witness(tuple(reversed(vertices)))
                nxt.append(new_state)
        frontier = nxt
        if stats is not None:
            stats["levels"] = steps
    return None
