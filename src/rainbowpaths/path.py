"""Locally rainbow path solvers.

The path dynamic program is ``core.layered_dp`` with one bit per vertex,
so it tracks, per level and endpoint, pairs of (visited vertex set,
trailing color window); a visited set is stored as a vertex bitmask.
Two devices keep cells small: the engine's distance gate toward the
target, and a projection dedupe that identifies members agreeing on the
part of their visited set a gated completion can still reach. The dedupe
keys a member of u's cell at level p on ``visited & near``, where
``near`` holds the x with ``dist(u, x) + dist_t[x] <= ell - p``. At a
budget of dist(s, t) + k, a vertex x other than u in that mask has
dist_t[x] < dist(s, t) + k - p, so a path reaches it after step p - k:
the key holds at most the last k vertices, and a cell at most
Δ^(max(k, r) - 1) members, Δ the largest in-degree. That is polynomial
for fixed k and r.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    Cell,
    ColoredDigraph,
    Level,
    Member,
    Query,
    Witness,
    bfs_distances,
    dist_to_target,
    layered_dp,
    witness_at,
)


def _near_masks(
    row: Sequence[int | None], dist_t: Sequence[int | None], horizon: int
) -> list[int]:
    """near[h] holds every x with row[x] + dist_t[x] <= h, for h <= horizon.

    With ``row`` the BFS row from u, these are the vertices a completion
    from u can visit under the distance gate with h arcs left: it reaches
    x after at least row[x] arcs, and the gate then needs dist_t[x] arcs
    more.
    """
    near = [0] * (horizon + 1)
    for x, (d, dt) in enumerate(zip(row, dist_t)):
        if d is not None and dt is not None and d + dt <= horizon:
            near[d + dt] |= 1 << x
    for h in range(1, horizon + 1):
        near[h] |= near[h - 1]
    return near


def _dedupe_cell(cell: Cell, near_mask: int) -> Cell:
    """Keep one member per (forward-relevant visited set, window) projection.

    ``near_mask`` holds the vertices a gated completion can still visit.
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


def _path_levels(
    g: ColoredDigraph, r: int, ell: int, mode: str, stats: dict | None = None
) -> list[Level]:
    """The path DP from g.s, gated on distances to g.t, with deduped cells."""
    n = g.n
    dist_t = dist_to_target(g)
    # near masks per vertex, filled in when a vertex first needs a dedupe
    reach: list[list[int] | None] = [None] * n

    def reduce(u: int, p: int, cell: Cell) -> Cell:
        near = reach[u]
        if near is None:
            near = reach[u] = _near_masks(bfs_distances(g.out_neighbors, u), dist_t, ell)
        return _dedupe_cell(cell, near[ell - p])

    bits = [1 << x for x in range(n)]
    return layered_dp(
        g.out_neighbors, g.colors, bits, g.s, g.t, dist_t, r, ell, mode, reduce, stats
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
    return witness_at(_path_levels(g, query.r, ell, mode, stats), g.t)

