"""Solver dispatch: one entry point that answers a query with a named solver.

``solve(g, query)`` picks the cheapest sound solver for the path question:
a BFS shortcut for r <= 1, the walk DP when the budget equals the s-t
distance (where walks and paths coincide), and the path DP for every
larger budget, whose near-set projection keeps cells polynomial at small
slack. Any solver in ``SOLVERS`` can also be forced by name; forced
``"walk"`` answers a query in mode "any" with the product BFS ``bfs_walk``.
"""

from __future__ import annotations

from .core import ColoredDigraph, Query, Witness
from .oracle import oracle_path, oracle_walk
from .path import solve_path
from .walk import bfs_walk, solve_walk

SOLVERS = (
    "auto",
    "walk",
    "path",
    "r1",
    "oracle",
    "oracle-path",
)


def _solve_auto(
    g: ColoredDigraph, query: Query, stats: dict | None
) -> tuple[Witness | None, str]:
    dist = g.dist_from_s[g.t]
    if dist is None:
        return None, "unreachable"
    r, ell, mode = query.r, query.ell, query.mode
    if r <= 1 and mode != "exact":
        bound = None if mode == "any" else ell
        return bfs_walk(g, r, bound, stats=stats), "r0-bfs" if r == 0 else "r1-bfs"
    if ell == dist and mode != "any":
        return solve_walk(g, Query(r=r, ell=dist, mode="atmost"), stats=stats), "walk-dp"
    return solve_path(g, query, stats=stats), "path-dp"


def solve(
    g: ColoredDigraph,
    query: Query,
    solver: str = "auto",
    *,
    stats: dict | None = None,
) -> tuple[Witness | None, str]:
    """Answer a query with the named solver, or let ``"auto"`` pick one.

    Args:
        g: the colored digraph.
        query: radius, length bound, and mode.
        solver: one of ``SOLVERS``.
        stats: optional dict populated with the chosen solver's counters.

    Returns:
        The witness (or None) and the name of the solver that ran, such as
        "walk-dp", "path-dp" or "unreachable".

    Raises:
        ValueError: for an unknown solver, or a forced solver that does not
            answer this query.
    """
    if solver == "auto":
        return _solve_auto(g, query, stats)
    if solver == "walk" and query.mode == "any":
        return bfs_walk(g, query.r, stats=stats), "walk-bfs"
    if solver == "walk":
        return solve_walk(g, query, stats=stats), "walk-dp"
    if solver == "path":
        return solve_path(g, query, stats=stats), "path-dp"
    if solver == "r1":
        if query.r != 1:
            raise ValueError("--solver r1 requires a radius-1 query")
        if query.mode == "exact":
            raise ValueError("the r1 shortcut answers at-most queries only; use --solver path")
        bound = None if query.mode == "any" else query.ell
        return bfs_walk(g, 1, bound, stats=stats), "r1-bfs"
    if solver == "oracle":
        return oracle_walk(g, query), "oracle-walk"
    if solver == "oracle-path":
        return oracle_path(g, query), "oracle-path"
    raise ValueError(f"unknown solver {solver!r}")
