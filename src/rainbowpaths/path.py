"""Locally rainbow path solvers.

The path dynamic program gates on ``row = rainbow_distances(g, r)``:
at r >= 2 the fewest arcs of a radius-2 locally rainbow walk from each
vertex to t, and at r <= 1 the plain distance to t. Every completion of
a member is a radius-r locally rainbow walk, so a completion from u has
at least ``row[u]`` arcs, and u enters level p only if
``row[u] <= ell - p``. Each member remembers only the near part of its
visited set, as a vertex bitmask. A completion from level p
takes at least one more step to reach any x, so it can visit x only if
``row[x] < ell - p``; a member at level p stores ``visited & near`` for
that level's ``near`` set. Members agreeing there admit the same
completions, so they meet as one key when inserted, and the first one
stays.

The row is never below dist_t, the plain distance to t, so each mask is
a subset of the one a dist_t gate keeps, and the cell bound is that
gate's. At a budget of dist(s, t) + k, a vertex at step i of a path has
dist_t >= dist(s, t) - i, so it stays in the mask only while i > p - k:
the mask holds at most the last k vertices, and a cell at most
Δ^(max(k, r) - 1) members, Δ the largest in-degree. That is polynomial
for fixed k and r. Measuring k from ``row[s]`` instead would need
``row[s] <= i + row[x]``, which fails when x's shortest rainbow walk
clashes with the colors before x.
"""

from __future__ import annotations

from typing import Any, Iterator

from .core import _PAD, ColoredDigraph, ColorSeq, Query, Witness, rainbow_distances, unwind

# (near part of the visited set as a vertex bitmask, last r colors padded to r) -> link,
# where a link is (vertex, link) for the path before the member's vertex, or None at s
PathCell = dict[tuple[int, ColorSeq], Any]


def _path_levels(
    g: ColoredDigraph, r: int, ell: int, mode: str, stats: dict | None = None
) -> Iterator[dict[int, PathCell]]:
    """The path DP's levels, each yielded once it is built: each vertex u reached, with u's cell.

    Level p holds the paths of p arcs from g.s. A window holds a path's
    last r colors, padded on the left with ``_PAD`` to r, so a step drops
    its first color. An arc into u extends a member when u's bit is not in
    its mask, u's color is not in its window, and ``row[u] <= ell - p``,
    with ``row = rainbow_distances(g, r)`` built once per call; the new
    member stores ``(mask | 1 << u) & near``, where ``near`` holds the x
    with ``row[x] < ell - p``. ``near`` is one bitmask per level: the
    vertices are bucketed by ``row`` once, and each level drops the ring
    ``row == ell - p``. A vertex that leaves ``near`` is refused by the
    gate at every later level, so the mask needs it no more. The DP stops
    after level ``ell``, after an empty level, or, outside mode "exact",
    after the first level holding g.t. No path has more than n - 1 arcs, so
    mode "any" runs at budget n - 1 and "atmost" at ``min(ell, n - 1)``;
    mode "exact" past n - 1, or a gate that refuses g.s, yields no level.

    ``stats`` receives ``levels``, ``max_cell``, and ``total_members``,
    the member count summed over levels; a DP that yields no level leaves
    ``levels`` and ``total_members`` at 0.
    """
    colors, out_adj = g.colors, g.out_neighbors
    stats = {} if stats is None else stats
    stats.setdefault("levels", 0)
    stats.setdefault("total_members", 0)
    if mode != "exact":
        ell = g.n - 1 if mode == "any" else min(ell, g.n - 1)
    elif ell >= g.n:
        return
    row = rainbow_distances(g, r)
    if row[g.s] is None or row[g.s] > ell:  # type: ignore[operator]
        return
    # rings[d] is the bitmask of the vertices whose row is d < ell
    rings = [0] * ell
    for x, d in enumerate(row):
        if d is not None and d < ell:
            rings[d] |= 1 << x
    near = sum(rings)
    start = ((_PAD,) * (r - 1) + (colors[g.s],))[:r]
    level: dict[int, PathCell] = {g.s: {((1 << g.s) & near, start): None}}
    yield level
    for p in range(1, ell + 1):
        near ^= rings[ell - p]
        # u -> (bit, color, the colors u adds to a window, cell) for each u
        # past the gate, built once per level; at r = 0 windows stay empty,
        # and an empty window admits every color
        heads_at: dict[int, tuple[int, int, ColorSeq, PathCell]] = {}
        for v, members in level.items():
            heads = []
            for u in out_adj[v]:
                head = heads_at.get(u)
                if head is None:
                    if row[u] is None or row[u] > ell - p:  # type: ignore[operator]
                        continue
                    head = heads_at[u] = (1 << u, colors[u], (colors[u],)[:r], {})
                heads.append(head)
            for (mask, window), link in members.items():
                stem = window[1:]
                via = (v, link)
                for bit, c, added, cell in heads:
                    if mask & bit or c in window:
                        continue
                    member = ((mask | bit) & near, stem + added)
                    cell.setdefault(member, via)
        level = {u: cell for u, (*_, cell) in heads_at.items() if cell}
        stats["levels"] = p
        stats["total_members"] += sum(map(len, level.values()))
        if level:
            stats["max_cell"] = max(stats.get("max_cell", 0), max(map(len, level.values())))
        yield level
        if not level or (mode != "exact" and g.t in level):
            break


def solve_path(g: ColoredDigraph, query: Query, *, stats: dict | None = None) -> Witness | None:
    """Decide existence of a locally rainbow s-t path within a length bound.

    Mode "exact" asks for length exactly ell, "atmost" for any length up
    to ell, and "any" for any length at all (equivalent to atmost n-1).

    Returns:
        A witness path, or None.
    """
    # as in solve_walk, a radius past num_colors changes no answer
    level: dict[int, PathCell] = {}
    for level in _path_levels(g, min(query.r, g.num_colors), query.ell, query.mode, stats):
        pass
    cell = level.get(g.t)
    return None if cell is None else unwind(g.t, next(iter(cell.values())))
