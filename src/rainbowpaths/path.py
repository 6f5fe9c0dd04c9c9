"""Locally rainbow path solvers.

The path dynamic program is ``core.layered_dp`` with a keep that makes
each member remember only the near part of its visited set, as a vertex
bitmask. A member of u's cell at level p stores ``visited & near``,
where ``near`` holds the x with ``dist(u, x) + dist_t[x] <= ell - p``:
the vertices a completion from u can still visit under the engine's
distance gate toward the target. Members agreeing there admit the same
completions, so they meet as one key when inserted, and the first one
stays. At a budget of dist(s, t) + k, a vertex x other than u in a
stored mask has dist_t[x] < dist(s, t) + k - p, so a path reaches it
after step p - k: the mask holds at most the last k vertices, and a cell
at most Δ^(max(k, r) - 1) members, Δ the largest in-degree. That is
polynomial for fixed k and r.
"""

from __future__ import annotations

from .core import ColoredDigraph, Level, Query, Witness, layered_dp, witness_at


def _path_levels(
    g: ColoredDigraph, r: int, ell: int, mode: str, stats: dict | None = None
) -> list[Level]:
    """The path DP from g.s, gated on distances to g.t, whose members keep their near vertices.

    A member at level p has visited only vertices the DP reached below p,
    so u's keep needs near(u, ell - p) only on those. Once x is reached at
    level p - 1, a BFS over in-arcs from x finds the ring of u with
    dist(u, x) = d, and these u hold x through level ell - d - dist_t[x].
    The BFS stops at d = ell - p - dist_t[x] and skips u with dist(s, u) +
    d + dist_t[x] > ell, which the DP cannot meet in time; their
    predecessors cannot either, so the distances it finds are exact. Only
    vertices the DP reaches start a BFS, so a DP that stops early builds
    little.
    """
    ds, dt, in_adj = g.dist_from_s, g.dist_to_t, g.in_neighbors
    # held[u] is u's keep at the current level; a member always remembers u itself
    held = [1 << u for u in range(g.n)]
    started: set[int] = set()
    # level -> (ring, bit) pairs whose vertex leaves the ring's keep at that level
    drops: dict[int, list[tuple[list[int], int]]] = {}

    def keep(p: int, prev: Level) -> list[int]:
        for ring, bit in drops.pop(p, ()):
            for u in ring:
                held[u] ^= bit
        for x in prev.keys() - started:
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
        return held

    return layered_dp(
        g.out_neighbors, g.colors, keep, g.s, g.t, dt, r, ell, mode, stats=stats
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

