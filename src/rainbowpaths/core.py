"""Vertex-colored digraphs and locally rainbow color-sequence primitives.

A walk is locally rainbow with locality ``r`` if within every window of
min(r + 1, length) consecutive vertices all colors are pairwise distinct.
This module provides the instance substrate (graph, query, witness), the
slot encoding that turns window compatibility into set disjointness for
the walk DP's prunes, small shared graph utilities, and ``unwind``, which
reads a witness back from the link chain that each entry of the walk DP,
and of the walk oracle's search, holds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

ColorSeq = tuple[int, ...]
# pads a DP window on the left to r colors; it equals no color, so it blocks nothing
_PAD = -1
Arc = tuple[int, int]

MODES = ("atmost", "exact", "any")


def _check_ints(what: str, values: Sequence[Any]) -> None:
    """Raise ValueError unless every value is an int; a bool is not one."""
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{what} must be ints, got {x!r}")


@dataclass(frozen=True)
class ColoredDigraph:
    """A digraph with one color per vertex and two terminals.

    Invariants enforced at construction: n, ids and colors are ints (a
    bool is not one), n >= 2, one color per vertex, dense colors (every
    color in [0, num_colors) is used by at least one vertex), no
    self-loops, no duplicate arcs, all ids in range, and s != t.
    ``parse_instance`` checks all but the terminals itself, in bulk, and
    builds through ``_checked``, which checks only the terminals.
    """

    n: int
    colors: tuple[int, ...]
    arcs: tuple[Arc, ...]
    s: int
    t: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        object.__setattr__(self, "arcs", tuple((u, v) for u, v in self.arcs))
        _check_ints("n, s and t", (self.n, self.s, self.t))
        _check_ints("colors", self.colors)
        _check_ints("arc ends", [x for arc in self.arcs for x in arc])
        if self.n < 2:
            raise ValueError("graph needs at least two vertices")
        if len(self.colors) != self.n:
            raise ValueError(f"expected {self.n} colors, got {len(self.colors)}")
        if any(c < 0 for c in self.colors):
            raise ValueError("colors must be non-negative")
        used = set(self.colors)
        if used != set(range(max(used) + 1)):
            raise ValueError("colors must form a dense range starting at 0")
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u}, {v}) out of range")
        if len(set(self.arcs)) != len(self.arcs):
            raise ValueError("duplicate arcs")
        self._check_terminals()

    @classmethod
    def _checked(
        cls, n: int, colors: tuple[int, ...], arcs: tuple[Arc, ...], s: int, t: int
    ) -> ColoredDigraph:
        """The graph of parts already checked: every invariant but the terminals holds.

        ``colors`` and ``arcs`` must be tuples of ints; they are stored as given.
        """
        g = object.__new__(cls)
        # the frozen fields, stored where __init__ stores them
        vars(g).update(n=n, colors=colors, arcs=arcs, s=s, t=t)
        g._check_terminals()
        return g

    def _check_terminals(self) -> None:
        for name in ("s", "t"):
            vid = getattr(self, name)
            if not (0 <= vid < self.n):
                raise ValueError(f"{name}={vid} out of range")
        if self.s == self.t:
            raise ValueError("terminals must differ")

    @cached_property
    def num_colors(self) -> int:
        return max(self.colors) + 1

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[u].append(v)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[v].append(u)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def dist_to_t(self) -> tuple[int | None, ...]:
        """Arc counts of shortest paths to t; None where t is unreachable."""
        return tuple(bfs_distances(self.in_neighbors, self.t))


@dataclass(frozen=True)
class Query:
    """What to look for: locality r, length budget ell, and a length mode.

    mode "atmost" accepts lengths up to ell, "exact" only ell itself, and
    "any" ignores ell entirely. r and ell must be ints, and not bools.
    """

    r: int
    ell: int
    mode: str = "atmost"

    def __post_init__(self) -> None:
        _check_ints("r and ell", (self.r, self.ell))
        if self.r < 0:
            raise ValueError("locality r must be non-negative")
        if self.ell < 0:
            raise ValueError("length budget must be non-negative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class Witness:
    """An explicit vertex sequence returned by a solver, replayable for checks.

    Raises:
        ValueError: if a vertex is not an int (a bool is not one).
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        _check_ints("witness vertices", self.vertices)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def is_locally_rainbow(colors: Sequence[int], r: int) -> bool:
    """Check the locality constraint on a color sequence.

    Every window of min(r + 1, len(colors)) consecutive entries must be
    pairwise distinct; sequences shorter than r + 1 must therefore be
    entirely distinct. The empty sequence is vacuously fine. One pass
    checks the equivalent rule: no color recurs within r positions.
    """
    if r < 0:
        raise ValueError("locality r must be non-negative")
    last: dict[int, int] = {}
    for i, c in enumerate(colors):
        if i - last.get(c, -r - 1) <= r:
            return False
        last[c] = i
    return True


def slot_set(window: Sequence[int], r: int) -> tuple[int, ...]:
    """The slots a window blocks, as sorted integers; () at r = 0.

    A continuation's entry at position i in [1, r] claims the slot
    (color, i), encoded as ``color * r + i - 1``. The window blocks the
    slots a continuation may not claim, so a continuation is compatible
    with it exactly when the slots it claims avoid these. For windows
    drawn from colors [0, c) the result lies in [0, c * r), the set form
    a representative prune takes. A ``_PAD`` entry yields negative slots,
    the same in every window of a walk cell, which the prune strips as core.
    """
    if r == 0:
        return ()
    if not window:
        raise ValueError("window must be nonempty")
    # window[k] blocks positions 1..r - (len - 1 - k), the count enumerate gives it; a
    # repeated color blocks the most at its last k, whose slots hold the others'
    return tuple(sorted({c * r + i for k, c in enumerate(window, r + 1 - len(window)) for i in range(k)}))


def bfs_distances(adj: Sequence[Sequence[int]], source: int) -> list[int | None]:
    """Arc counts of shortest paths from ``source`` along ``adj``; None if unreached."""
    dist: list[int | None] = [None] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        step = dist[v] + 1  # type: ignore[operator]
        for u in adj[v]:
            if dist[u] is None:
                dist[u] = step
                queue.append(u)
    return dist


def rainbow_distances(g: ColoredDigraph, r: int) -> Sequence[int | None]:
    """A lower bound on the arcs of each vertex's radius-r locally rainbow walks to g.t; None if none.

    At r <= 1 it is ``g.dist_to_t``. At r >= 2 it is the fewest arcs of
    a radius-2 locally rainbow walk to t, which a radius-r walk also is,
    so it is never below ``g.dist_to_t``. Let D(x, c) be the fewest arcs
    to t from x entered after a vertex of color c. It takes at most two
    values in c: d1[x] for every c but k1[x], the color of the successor
    that first set d1[x], and d2[x] for c = k1[x]. So a backward BFS
    announces each vertex at most twice, and the row is d1.
    """
    if r <= 1:
        return g.dist_to_t
    colors, in_adj = g.colors, g.in_neighbors
    d1: list[int | None] = [None] * g.n
    k1 = [_PAD] * g.n
    twice = [False] * g.n
    d1[g.t], twice[g.t] = 0, True
    # an announcement (y, second) carries y's d1, or its d2 if second, and
    # reaches the predecessors x not colored y's color whose color is k1[y]
    # exactly when second; twice[x] marks a vertex whose d2 is known
    frontier: list[tuple[int, bool]] = [(g.t, False)]
    step = 0
    while frontier:
        step += 1
        announced: list[tuple[int, bool]] = []
        for y, second in frontier:
            cy, ky = colors[y], k1[y]
            for x in in_adj[y]:
                cx = colors[x]
                if cx == cy or (cx == ky) != second:
                    continue
                if d1[x] is None:
                    d1[x], k1[x] = step, cy
                    announced.append((x, False))
                elif not twice[x] and cy != k1[x]:
                    twice[x] = True
                    announced.append((x, True))
        frontier = announced
    return d1


def dist_from_source(g: ColoredDigraph) -> list[int | None]:
    """Shortest directed distance from g.s to each vertex; None if unreached."""
    return bfs_distances(g.out_neighbors, g.s)


def unwind(v: int, link: Any) -> Witness:
    """The walk an entry at ``v`` links back to.

    The walk DP and ``oracle_walk`` link each entry as ``(parent vertex,
    parent's link)``, or None at the source: the walk, last vertex first.
    """
    vertices = [v]
    while link is not None:
        v, link = link
        vertices.append(v)
    return Witness(tuple(reversed(vertices)))


def verify_witness(
    g: ColoredDigraph,
    query: Query,
    vertices: Sequence[int],
    *,
    require_path: bool = False,
) -> list[str]:
    """Replay a claimed witness and collect violations (empty list = valid).

    Args:
        g: instance graph.
        query: the query the witness claims to answer.
        vertices: the claimed walk, first entry s and last entry t.
        require_path: additionally demand pairwise distinct vertices.

    Returns:
        Human-readable violation messages, first offense first.

    Raises:
        ValueError: if a vertex is not an int.
    """
    problems: list[str] = []
    walk = tuple(vertices)
    _check_ints("witness vertices", walk)
    if not walk:
        return ["witness is empty"]
    if any(not (0 <= v < g.n) for v in walk):
        return [f"vertex id out of range in {walk}"]
    if walk[0] != g.s:
        problems.append(f"witness starts at {walk[0]}, expected s={g.s}")
    if walk[-1] != g.t:
        problems.append(f"witness ends at {walk[-1]}, expected t={g.t}")
    for i in range(len(walk) - 1):
        if walk[i + 1] not in g.out_neighbors[walk[i]]:
            problems.append(f"missing arc ({walk[i]}, {walk[i + 1]}) at step {i}")
            break
    if not is_locally_rainbow([g.colors[v] for v in walk], query.r):
        problems.append(f"colors repeat within {query.r + 1} consecutive vertices (radius {query.r})")
    length = len(walk) - 1
    if query.mode == "atmost" and length > query.ell:
        problems.append(f"length {length} exceeds budget {query.ell}")
    elif query.mode == "exact" and length != query.ell:
        problems.append(f"length {length} differs from required {query.ell}")
    if require_path and len(set(walk)) != len(walk):
        problems.append("vertices repeat but a path was required")
    return problems
