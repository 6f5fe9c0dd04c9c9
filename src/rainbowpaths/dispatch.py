"""Solver dispatch: one entry point that answers a query with a named solver.

``solve(g, query)`` picks the cheapest sound solver for the path question:
the walk solver when walks and paths give one answer, and otherwise the
path search, whose near-set projection keeps the keys at one level and
vertex polynomial at small slack. Walks and paths agree when the budget
equals the s-t distance, where the walk solver is asked the exact
question (no walk is shorter, and a walk of exactly that length is a
path), and at r <= 1 in modes "atmost" and "any", where the walk BFS's
shortest witness is a path. Any solver in ``SOLVERS`` can also be forced
by name.
"""

from __future__ import annotations

from .core import ColoredDigraph, Query, Witness
from .oracle import oracle_path, oracle_walk
from .path import solve_path
from .walk import solve_walk

SOLVERS = (
    "auto",
    "walk",
    "path",
    "oracle",
    "oracle-path",
)


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
        ValueError: for an unknown solver, or an oracle whose state space
            is too large for this query.
    """
    if solver == "auto":
        dist = g.dist_to_t[g.s]
        if dist is None:
            return None, "unreachable"
        if query.ell == dist and query.mode != "any":
            # no walk is shorter than dist, and a walk of exactly dist arcs is a path
            query = Query(query.r, dist, "exact")
            solver = "walk"
        else:
            solver = "walk" if query.r <= 1 and query.mode != "exact" else "path"
    if solver == "walk":
        return solve_walk(g, query, stats=stats), "walk-dp"
    if solver == "path":
        return solve_path(g, query, stats=stats), "path-dp"
    if solver == "oracle":
        return oracle_walk(g, query), "oracle-walk"
    if solver == "oracle-path":
        return oracle_path(g, query), "oracle-path"
    raise ValueError(f"unknown solver {solver!r}")
