"""Locally rainbow path solvers.

The path dynamic program makes each member remember only the near part
of its visited set, as a vertex bitmask. A member of u's cell at level p
stores ``visited & near``, where ``near`` holds the x with ``dist(u, x)
+ dist_t[x] <= ell - p``: the vertices a completion from u can still
visit under the DP's distance gate toward the target. Members agreeing
there admit the same completions, so they meet as one key when
inserted, and the first one stays. At a budget of dist(s, t) + k, a
vertex x other than u in a stored mask has dist_t[x] < dist(s, t) + k -
p, so a path reaches it after step p - k: the mask holds at most the
last k vertices, and a cell at most Δ^(max(k, r) - 1) members, Δ the
largest in-degree. That is polynomial for fixed k and r.
"""

from __future__ import annotations

from typing import Any, Iterator

from .core import ColoredDigraph, ColorSeq, Query, Witness, unwind

# (near part of the visited set as a vertex bitmask, last r colors) -> link,
# where a link is (vertex, link) for the path before the member's vertex, or None at s
PathCell = dict[tuple[int, ColorSeq], Any]


def _path_levels(
    g: ColoredDigraph, r: int, ell: int, mode: str, stats: dict | None = None
) -> Iterator[dict[int, PathCell]]:
    """The path DP's levels, each yielded once it is built: each vertex u reached, with u's cell.

    Level p holds the paths of p arcs from g.s. An arc into u extends a
    member when u's bit is not in its mask, u's color is not in its
    window, and ``dist_t[u] <= ell - p``; the new member stores ``(mask |
    1 << u) & held[u]``. The DP stops after level ``ell``, after an empty
    level, or, in mode "atmost", after the first level holding g.t;
    ``mode`` is "atmost" or "exact". A budget past n - 1, which no path
    fits, or a gate that refuses g.s yields no level.

    ``held[u]`` is u's near set at the current level, built only on the
    vertices the DP reached below it, which are all a member can have
    visited. Once x is reached at level p - 1, a BFS over in-arcs from x
    finds the ring of u with dist(u, x) = d, and these u hold x through
    level ell - d - dist_t[x]. The BFS stops at d = ell - p - dist_t[x]
    and skips u with dist(s, u) + d + dist_t[x] > ell, which the DP cannot
    meet in time; their predecessors cannot either, so the distances it
    finds are exact. Only vertices the DP reaches start a BFS, so a DP
    that stops early builds little.

    ``stats`` receives ``levels``, ``max_cell``, and ``total_members``,
    the member count summed over levels; a DP that yields no level leaves
    ``levels`` and ``total_members`` at 0.
    """
    colors, out_adj, in_adj = g.colors, g.out_neighbors, g.in_neighbors
    ds, dt = g.dist_from_s, g.dist_to_t
    if stats is not None:
        stats.setdefault("levels", 0)
        stats.setdefault("total_members", 0)
    if ell >= g.n or dt[g.s] is None or dt[g.s] > ell:  # type: ignore[operator]
        return
    # a member always remembers its own vertex
    held = [1 << u for u in range(g.n)]
    started: set[int] = set()
    # level -> (ring, bit) pairs whose vertex leaves the ring's near set at that level
    drops: dict[int, list[tuple[list[int], int]]] = {}
    level: dict[int, PathCell] = {g.s: {(1 << g.s, (colors[g.s],)[:r]): None}}
    yield level
    for p in range(1, ell + 1):
        for ring, bit in drops.pop(p, ()):
            for u in ring:
                held[u] ^= bit
        for x in level.keys() - started:
            started.add(x)
            bit, ring, seen = 1 << x, [x], {x}
            # the ring at distance d = 1, 2, ... holds x through level ``last``
            for last in range(ell - 1 - dt[x], p - 1, -1):  # type: ignore[operator]
                below, ring = ring, []
                for w in below:
                    for u in in_adj[w]:
                        if u not in seen:
                            seen.add(u)
                            if ds[u] is not None and ds[u] <= last:  # type: ignore[operator]
                                ring.append(u)
                                held[u] |= bit
                if not ring:
                    break
                drops.setdefault(last + 1, []).append((ring, bit))
        # u -> (bit, color, the colors u adds to a window, near set, cell) for
        # each u past the distance gate, built once per level; at r = 0
        # windows stay empty, and an empty window admits every color
        heads_at: dict[int, tuple[int, int, ColorSeq, int, PathCell]] = {}
        for v in sorted(level):
            heads = []
            for u in out_adj[v]:
                head = heads_at.get(u)
                if head is None:
                    if dt[u] is None or dt[u] > ell - p:  # type: ignore[operator]
                        continue
                    head = heads_at[u] = (1 << u, colors[u], (colors[u],)[:r], held[u], {})
                heads.append(head)
            for (mask, window), link in level[v].items():
                # a step keeps all of a short window, and a full one but its first color
                stem = window[1:] if len(window) == r else window
                via = (v, link)
                for bit, c, added, near, cell in heads:
                    if mask & bit or c in window:
                        continue
                    member = ((mask | bit) & near, stem + added)
                    if member not in cell:
                        cell[member] = via
        level = {u: cell for u, (*_, cell) in heads_at.items() if cell}
        if stats is not None:
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
    if query.mode == "exact":
        ell, mode = query.ell, "exact"
    else:
        ell, mode = (g.n - 1 if query.mode == "any" else min(query.ell, g.n - 1)), "atmost"
    level: dict[int, PathCell] = {}
    for level in _path_levels(g, query.r, ell, mode, stats):
        pass
    cell = level.get(g.t)
    return None if cell is None else unwind(g.t, next(iter(cell.values())))
