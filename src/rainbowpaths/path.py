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
on the auxiliary graphs used by the detour solver's segment queries, and
a radius-2 shortcut handles symmetric instances at shortest-path length.
"""

from __future__ import annotations

from typing import Any, Sequence

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
    n: int,
    colors: Sequence[int],
    out_adj: Sequence[Sequence[int]],
    source: int,
    target: int,
    r: int,
    ell: int,
    mode: str,
    stats: dict | None = None,
) -> list[Level]:
    """The path DP: members carry visited bits, and cells get the dedupe and the prune."""
    in_adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for u in out_adj[v]:
            in_adj[u].append(v)
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
    dist_t = bfs_distances(in_adj, target)
    return layered_dp(out_adj, colors, bits, source, target, dist_t, r, ell, mode, reduce, stats)


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
    levels = _path_levels(g.n, g.colors, g.out_neighbors, g.s, g.t, query.r, ell, mode, stats)
    return witness_at(levels, g.t)


def segment_window_family(
    g: ColoredDigraph,
    u: int,
    v: int,
    band: Any,
    q: int,
    tau: ColorSeq,
    r: int,
) -> list[tuple[ColorSeq, tuple[int, ...]]]:
    """Windows of u-to-v path segments through a band, under a color context.

    Builds an auxiliary graph consisting of u, v, the band's vertices, and
    a fresh chain carrying the context colors ``tau`` (the colors walked
    immediately before u), then runs the path DP for exact length
    len(tau) + q. Every returned window is therefore valid as the
    continuation of any prefix that ends with ``tau`` followed by u's
    color.

    Args:
        g: the original graph.
        u: segment start vertex.
        v: segment end vertex.
        band: the allowed interior vertex set (an object with a
            ``vertices`` attribute, or any iterable of vertex ids).
        q: number of arcs in the segment, at least 1.
        tau: colors immediately preceding u on the prefix, possibly empty.
        r: locality radius.

    Returns:
        Pairs (window, segment vertices u..v); windows are the trailing
        min(q+1, r) colors of the full context walk, one pair per distinct
        window.
    """
    if q < 1:
        raise ValueError("a segment needs at least one arc")
    interior = frozenset(getattr(band, "vertices", band)) - {u, v}
    real = [u, v] + sorted(interior)
    aux_id = {orig: i for i, orig in enumerate(real)}
    n_aux = len(real) + len(tau)
    colors = [g.colors[orig] for orig in real] + list(tau)
    out_adj: list[list[int]] = [[] for _ in range(n_aux)]
    allowed = interior | {v}
    for orig in [u] + sorted(interior):
        for w in g.out_neighbors[orig]:
            if w in allowed:
                out_adj[aux_id[orig]].append(aux_id[w])
    chain_base = len(real)
    for i in range(len(tau)):
        nxt = chain_base + i + 1 if i + 1 < len(tau) else aux_id[u]
        out_adj[chain_base + i].append(nxt)
    source = chain_base if tau else aux_id[u]
    length = len(tau) + q
    levels = _path_levels(n_aux, colors, out_adj, source, aux_id[v], r, length, "exact")
    results: list[tuple[ColorSeq, tuple[int, ...]]] = []
    seen: set[ColorSeq] = set()
    for member in levels[-1].get(aux_id[v], ()):
        window = member[1][-min(q + 1, r):] if r >= 1 else ()
        if window in seen:
            continue
        seen.add(window)
        aux_path = backtrack(levels, length, aux_id[v], member)
        segment = tuple(real[x] for x in aux_path[len(tau):])
        results.append((window, segment))
    return results


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
