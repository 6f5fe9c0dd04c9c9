"""Locally rainbow walk solvers.

The main solver runs a level-by-level dynamic program whose cells hold
trailing color windows, pruned with ordered representative families so
cell sizes stay bounded by a function of the locality radius alone. The
any-length variant either caps the searched length (the cap is linear in
the vertex count for fixed radius) or falls back to an explicit product
search. A radius-1 shortcut reduces to plain reachability.
"""

from __future__ import annotations

from collections import deque
from math import ceil, e

from .core import ColoredDigraph, Query, Witness, backtrack, dist_to_target
from .oracle import oracle_walk
from .repfam import (
    WEDGE_WIDTH_LIMIT,
    SeqFamily,
    algebraic_width,
    ordered_bound,
    ordered_representative,
)

ANY_LENGTH_BUDGET = 10**7

Parent = tuple[int, tuple[int, ...]] | None
Cells = dict[int, dict[tuple[int, ...], Parent]]


def prune_window_cell(
    windows: dict[tuple[int, ...], Parent], r: int, stats: dict | None = None
) -> dict[tuple[int, ...], Parent]:
    """Replace a window cell by an ordered representative when it grows too large.

    Values of the dict are carried along untouched; also used by the
    detour solver, whose cells have the same shape.
    """
    if r == 0 or len(windows) <= ordered_bound(r):
        return windows
    keys = list(windows)
    family = SeqFamily(r, tuple(keys), tuple(keys))
    universe = (max(max(w) for w in keys) + 1) * r
    length = len(keys[0])
    slots = length * r - length * (length - 1) // 2
    if algebraic_width(slots, r, universe) > WEDGE_WIDTH_LIMIT:
        return windows
    kept = ordered_representative(family, backend="algebraic")
    if stats is not None:
        stats["rep_calls"] = stats.get("rep_calls", 0) + 1
    return {w: windows[w] for w in kept.sequences}


def _advance(
    g: ColoredDigraph,
    cells: Cells,
    r: int,
    allowed: dict[int, bool],
    stats: dict | None,
) -> Cells:
    """One DP level: extend every stored window along every out-arc."""
    nxt: Cells = {}
    for v in sorted(cells):
        for window, _parent in cells[v].items():
            for u in g.out_neighbors[v]:
                if not allowed.get(u, False):
                    continue
                if r >= 1:
                    c = g.colors[u]
                    if c in window:
                        continue
                    new_window = (window + (c,))[-r:]
                else:
                    new_window = ()
                cell = nxt.setdefault(u, {})
                if new_window not in cell:
                    cell[new_window] = (v, window)
    for u in list(nxt):
        nxt[u] = prune_window_cell(nxt[u], r, stats)
    if stats is not None:
        stats["total_windows"] = stats.get("total_windows", 0) + sum(len(c) for c in nxt.values())
        if nxt:
            stats["max_cell"] = max(stats.get("max_cell", 0), max(len(c) for c in nxt.values()))
    return nxt


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
    r, ell = query.r, query.ell
    dist_t = dist_to_target(g)
    start: Cells = {g.s: {(g.colors[g.s],) if r >= 1 else (): None}}
    if dist_t[g.s] is None or dist_t[g.s] > ell:
        return None
    levels: list[Cells] = [start]
    for p in range(1, ell + 1):
        allowed = {
            v: dist_t[v] is not None and dist_t[v] <= ell - p for v in range(g.n)
        }
        nxt = _advance(g, levels[p - 1], r, allowed, stats)
        levels.append(nxt)
        if stats is not None:
            stats["levels"] = p
        if query.mode == "atmost" and g.t in nxt:
            window = next(iter(nxt[g.t]))
            return Witness(backtrack(levels, p, g.t, window))
        if not nxt:
            return None
    if query.mode == "exact" and g.t in levels[ell]:
        window = next(iter(levels[ell][g.t]))
        return Witness(backtrack(levels, ell, g.t, window))
    return None


def any_length_cap(n: int, r: int) -> int:
    """Length bound beyond which an any-length search cannot gain anything."""
    if r <= 1:
        return n
    return n * ceil(((r - 1) * e) ** (r - 1))


def solve_walk_any_length(
    g: ColoredDigraph, r: int, backend: str = "cap", *, stats: dict | None = None
) -> Witness | None:
    """Decide existence of a locally rainbow s-t walk of unrestricted length.

    The "cap" backend reruns the bounded DP up to a radius-dependent cap,
    stopping early if the pruned level state repeats (the transition is
    deterministic, so a repeat proves divergence). The "product" backend
    searches the explicit (vertex, window) product graph.
    """
    if backend == "product":
        return oracle_walk(g, Query(r=r, ell=0, mode="any"))
    if backend != "cap":
        raise ValueError(f"unknown backend {backend!r}")
    cap = any_length_cap(g.n, r)
    per_cell = min(ordered_bound(r), max(1, g.num_colors) ** r)
    if cap * g.n * per_cell > ANY_LENGTH_BUDGET:
        raise ValueError(
            f"estimated cap-backend work {cap * g.n * per_cell} exceeds {ANY_LENGTH_BUDGET}; "
            "use backend='product'"
        )
    dist_t = dist_to_target(g)
    if dist_t[g.s] is None:
        return None
    allowed = {v: dist_t[v] is not None for v in range(g.n)}
    levels: list[Cells] = [{g.s: {(g.colors[g.s],) if r >= 1 else (): None}}]
    seen_states: set[frozenset] = set()
    for p in range(1, cap + 1):
        nxt = _advance(g, levels[p - 1], r, allowed, stats)
        levels.append(nxt)
        if stats is not None:
            stats["levels"] = p
        if g.t in nxt:
            window = next(iter(nxt[g.t]))
            return Witness(backtrack(levels, p, g.t, window))
        signature = frozenset((v, w) for v, cell in nxt.items() for w in cell)
        if not signature or signature in seen_states:
            return None
        seen_states.add(signature)
    return None


def solve_r1(g: ColoredDigraph, ell: int) -> Witness | None:
    """Radius-1 shortcut: drop monochromatic arcs, then plain BFS.

    Returns a shortest walk witness of length at most ell, or None. At
    radius 1 a shortest compliant walk is simple, so this also answers the
    path question.
    """
    parent: dict[int, int | None] = {g.s: None}
    frontier = deque([(g.s, 0)])
    while frontier:
        v, d = frontier.popleft()
        if v == g.t:
            vertices = []
            cur: int | None = v
            while cur is not None:
                vertices.append(cur)
                cur = parent[cur]
            return Witness(tuple(reversed(vertices)))
        if d == ell:
            continue
        for u in g.out_neighbors[v]:
            if u in parent or g.colors[u] == g.colors[v]:
                continue
            parent[u] = v
            frontier.append((u, d + 1))
    return None
