"""Brute-force reference solvers.

Small-instance oracles, run by ``solve --solver oracle`` and
``--solver oracle-path``, by ``crosscheck``, and by the benchmark for its
recorded answers: a levelled product-graph search for walks, an
exhaustive DFS for simple paths, and direct enumeration for permutation
hitting and 3-SAT. All are deliberately simple. The walk search and the
two enumerations refuse inputs past a size ceiling; the path DFS has
none, so its time grows with the number of simple paths it tries.
"""

from __future__ import annotations

from itertools import permutations
from typing import Any

from .core import ColoredDigraph, ColorSeq, Query, Witness, unwind

STATE_CEILING = 10**7


def _extend_window(window: tuple[int, ...], color: int, r: int) -> tuple[int, ...] | None:
    """New trailing window after appending a color, or None if not rainbow."""
    if r == 0:
        return ()
    if color in window:
        return None
    return (window + (color,))[-r:]


def oracle_walk(g: ColoredDigraph, query: Query) -> Witness | None:
    """Search the product of the graph with trailing color windows, level by level.

    States are (vertex, window of the last min(r, steps+1) colors), and
    level p holds the states that p-step walks reach, each with its link
    back to s as ``core.unwind`` reads it. Modes "atmost" and "any" expand
    each state once, "any" with no level cap, so the first level that
    reaches t gives a shortest witness. Mode "exact" dedupes within a
    level only, as a state may lie on walks of several lengths.

    Raises:
        ValueError: if the state space exceeds STATE_CEILING.
    """
    budget = g.n * g.num_colors ** min(query.r, g.n + 1)
    if budget > STATE_CEILING:
        raise ValueError(f"product state space {budget} exceeds {STATE_CEILING}")
    exact = query.mode == "exact"
    cap = None if query.mode == "any" else query.ell
    r, colors, out = query.r, g.colors, g.out_neighbors
    frontier: dict[tuple[int, ColorSeq], Any] = {(g.s, (colors[g.s],)[:r]): None}
    seen: set[tuple[int, ColorSeq]] = set()  # states of earlier levels, unless exact
    level = 0
    while frontier and level != cap:
        level += 1
        if not exact:
            seen.update(frontier)
        layer: dict[tuple[int, ColorSeq], Any] = {}
        for (v, window), link in frontier.items():
            for u in out[v]:
                new_window = _extend_window(window, colors[u], r)
                state = (u, new_window)
                if new_window is not None and state not in layer and state not in seen:
                    layer[state] = (v, link)
        if not exact or level == cap:
            hit = next((link for (u, _), link in layer.items() if u == g.t), None)
            if hit is not None:
                return unwind(g.t, hit)
        frontier = layer
    return None


def oracle_path(g: ColoredDigraph, query: Query) -> Witness | None:
    """Exhaustive DFS over simple locally rainbow s-t paths.

    The DFS keeps its own stack, one out-neighbor iterator per path vertex,
    so a path of any length fits; it tries out-neighbors in order.
    """
    ell = g.n - 1 if query.mode == "any" else query.ell
    exact = query.mode == "exact"
    colors = g.colors
    out = g.out_neighbors
    path = [g.s]
    visited = {g.s}
    # (out-neighbors not yet tried, window) for each path vertex that may extend
    stack = [(iter(out[g.s] if ell > 0 else ()), (colors[g.s],)[:query.r])]
    while stack:
        successors, window = stack[-1]
        for u in successors:
            if u in visited:
                continue
            new_window = _extend_window(window, colors[u], query.r)
            if new_window is None:
                continue
            if u == g.t:
                if not exact or len(path) == ell:
                    return Witness(tuple(path) + (u,))
            elif len(path) < ell:
                path.append(u)
                visited.add(u)
                stack.append((iter(out[u]), new_window))
                break
        else:
            stack.pop()
            visited.remove(path.pop())
    return None


def oracle_phs(k: int, sets: list[set[tuple[int, int]]]) -> tuple[int, ...] | None:
    """Find a permutation of [1..k] hitting every pair family, if one exists.

    Each family is a set of (index, value) pairs over [1..k]; a permutation
    phi hits a family when phi(index) = value for some pair in it. Returns
    phi as a tuple with phi(i) = result[i-1], or None.
    """
    if k > 8:
        raise ValueError(f"permutation enumeration is limited to k <= 8, got {k}")
    for perm in permutations(range(1, k + 1)):
        if all(any(perm[i - 1] == j for (i, j) in family) for family in sets):
            return perm
    return None


def oracle_3sat(clauses: list[tuple[int, ...]]) -> dict[int, bool] | None:
    """Exhaustively solve a CNF given as DIMACS-style literal tuples."""
    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    if len(variables) > 20:
        raise ValueError(f"assignment enumeration is limited to 20 variables, got {len(variables)}")
    for bits in range(1 << len(variables)):
        assignment = {v: bool(bits >> i & 1) for i, v in enumerate(variables)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses
        ):
            return assignment
    return None
