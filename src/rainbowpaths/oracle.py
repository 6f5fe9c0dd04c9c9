"""Brute-force reference solvers.

Small-instance oracles used to validate the dynamic programs and the
hardness constructions: a product-graph search for walks, an exhaustive
DFS for simple paths, the distance separators of a path (a short detour
has one every 2k + 1 steps), and direct enumeration for permutation
hitting and 3-SAT. Exhaustive references for representative families
sit beside them: greedy-coverage prunes and the definitional checks,
for families of sets and of color windows, and the (color, position)
slots a window blocks, which ``core.slot_set`` encodes. All are
deliberately simple; the solvers are guarded by size ceilings.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterable, Sequence

from .core import ColoredDigraph, ColorSeq, Query, Witness, r_compatible

STATE_CEILING = 10**7


def _state_budget(g: ColoredDigraph, r: int) -> int:
    return g.n * max(1, g.num_colors) ** min(r, g.n + 1)


def _start_window(g: ColoredDigraph, r: int) -> tuple[int, ...]:
    return (g.colors[g.s],) if r >= 1 else ()


def _extend_window(window: tuple[int, ...], color: int, r: int) -> tuple[int, ...] | None:
    """New trailing window after appending a color, or None if not rainbow."""
    if r == 0:
        return ()
    if color in window:
        return None
    return (window + (color,))[-r:]


def oracle_walk(g: ColoredDigraph, query: Query) -> Witness | None:
    """Search the product of the graph with trailing color windows.

    States are (vertex, window of the last min(r, steps+1) colors); a
    breadth-first search layered by walk length finds the earliest witness.
    Mode "any" ignores the length bound and explores every reachable state.

    Raises:
        ValueError: if the state space exceeds STATE_CEILING.
    """
    if _state_budget(g, query.r) > STATE_CEILING:
        raise ValueError(
            f"product state space {_state_budget(g, query.r)} exceeds {STATE_CEILING}"
        )
    start = (g.s, _start_window(g, query.r))
    if query.mode == "any":
        return _walk_any(g, query.r, start)
    # parents[p] maps each state reachable by a p-step walk to its predecessor
    parents: list[dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]] | None]] = [
        {start: None}
    ]
    for step in range(1, query.ell + 1):
        layer: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]] | None] = {}
        for (v, window) in parents[step - 1]:
            for u in g.out_neighbors[v]:
                new_window = _extend_window(window, g.colors[u], query.r)
                if new_window is None:
                    continue
                state = (u, new_window)
                if state not in layer:
                    layer[state] = (v, window)
        parents.append(layer)
        if query.mode == "atmost":
            hit = next((st for st in layer if st[0] == g.t), None)
            if hit is not None:
                return _reconstruct(parents, step, hit)
    if query.mode == "exact":
        hit = next((st for st in parents[query.ell] if st[0] == g.t), None)
        if hit is not None:
            return _reconstruct(parents, query.ell, hit)
    return None


def _walk_any(
    g: ColoredDigraph, r: int, start: tuple[int, tuple[int, ...]]
) -> Witness | None:
    parent: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]] | None] = {
        start: None
    }
    frontier = [start]
    while frontier:
        next_frontier = []
        for (v, window) in frontier:
            for u in g.out_neighbors[v]:
                new_window = _extend_window(window, g.colors[u], r)
                if new_window is None:
                    continue
                state = (u, new_window)
                if state in parent:
                    continue
                parent[state] = (v, window)
                if u == g.t:
                    vertices = [u]
                    cur = (v, window)
                    while cur is not None:
                        vertices.append(cur[0])
                        cur = parent[cur]
                    return Witness(tuple(reversed(vertices)))
                next_frontier.append(state)
        frontier = next_frontier
    return None


def _reconstruct(
    parents: list[dict],
    level: int,
    state: tuple[int, tuple[int, ...]],
) -> Witness:
    vertices = []
    cur: tuple[int, tuple[int, ...]] | None = state
    for p in range(level, -1, -1):
        assert cur is not None
        vertices.append(cur[0])
        cur = parents[p][cur]
    assert cur is None
    return Witness(tuple(reversed(vertices)))


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
    stack = [(iter(out[g.s] if ell > 0 else ()), _start_window(g, query.r))]
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


def distance_separators(path: tuple[int, ...], d: list[int | None]) -> list[int]:
    """Indices of path vertices nearer to t than all before, farther than all after."""
    separators = []
    for i, v in enumerate(path):
        dv = d[v]
        if dv is None:
            continue
        before = all(d[w] is not None and d[w] > dv for w in path[:i])
        after = all(d[w] is not None and d[w] < dv for w in path[i + 1 :])
        if before and after:
            separators.append(i)
    return separators


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


def blocked_slots(window: Sequence[int], r: int) -> frozenset[tuple[int, int]]:
    """Encode a stored suffix window as the (color, position) slots it blocks.

    Position i in [1, r] is blocked by color a_j for every j in
    [p - (r - i), p] (1-based, clipped at 1), where p = len(window). A
    continuation claims the slot (color, i) of each of its first r
    entries, and is compatible with the window exactly when its claimed
    slots avoid all blocked ones.
    """
    p = len(window)
    if p < 1:
        raise ValueError("window must be nonempty")
    out: set[tuple[int, int]] = set()
    for i in range(1, r + 1):
        for j in range(max(1, p - (r - i)), p + 1):
            out.add((window[j - 1], i))
    return frozenset(out)


def _exhaustive_keep(sets: Sequence[Sequence[int]], universe: int, q: int) -> list[int]:
    """Greedy coverage: keep a set iff it serves a not-yet-served obstruction.

    Obstructions are exactly the q_eff-subsets of the universe; a set
    serves an obstruction by being disjoint from it. Each kept set carries
    a witness obstruction that all earlier kept sets intersect, which
    bounds the kept count by unordered_bound(p, q).
    """
    q_eff = min(q, max(0, universe - len(sets[0])))
    kept: list[int] = []
    kept_sets: list[frozenset[int]] = []
    for idx, m in enumerate(sets):
        mset = frozenset(m)
        rest = [e for e in range(universe) if e not in mset]
        for obstruction in combinations(rest, q_eff):
            oset = frozenset(obstruction)
            if not any(not (k & oset) for k in kept_sets):
                kept.append(idx)
                kept_sets.append(mset)
                break
    return kept


def _fresh_palette(windows: Iterable[ColorSeq], r: int) -> list[int]:
    """Family colors plus r fresh ones.

    Any continuation over arbitrary colors behaves, against every stored
    window, like one whose out-of-family colors are replaced by distinct
    fresh colors, and a continuation has at most r positions, so r fresh
    colors make the enumeration exhaustive.
    """
    colors = sorted({c for s in windows for c in s})
    base = (colors[-1] + 1) if colors else 0
    return colors + [base + i for i in range(r)]


def _ordered_exhaustive_keep(windows: Sequence[ColorSeq], r: int) -> list[int]:
    """Greedy coverage over all continuations of length <= r; sorted kept indices."""
    palette = _fresh_palette(windows, r)
    kept: list[int] = []
    for length in range(r + 1):
        for rho in product(palette, repeat=length):
            if any(r_compatible(windows[i], rho, r) for i in kept):
                continue
            for idx, s in enumerate(windows):
                if r_compatible(s, rho, r):
                    kept.append(idx)
                    break
    return sorted(kept)


def is_set_representative(
    kept: Sequence[Sequence[int]], full: Sequence[Sequence[int]], universe: int, q: int
) -> bool:
    """Definitional check, exhaustive over all obstructions in [0, universe) of size <= q."""
    kept_sets = [frozenset(m) for m in kept]
    full_sets = [frozenset(m) for m in full]
    if not all(m in full_sets for m in kept_sets):
        return False
    for size in range(q + 1):
        for obstruction in combinations(range(universe), size):
            oset = set(obstruction)
            if any(not (m & oset) for m in full_sets) and not any(
                not (m & oset) for m in kept_sets
            ):
                return False
    return True


def is_window_representative(
    kept: Sequence[ColorSeq],
    full: Sequence[ColorSeq],
    r: int,
    palette: Sequence[int] | None = None,
) -> bool:
    """Definitional check over all continuations of length <= r.

    Continuations are drawn from ``palette`` (default: the family's
    colors plus r fresh ones, which is exhaustive up to renaming); all
    sequences are tried, rainbow or not.
    """
    if not all(s in full for s in kept):
        return False
    if palette is None:
        palette = _fresh_palette(full, r)
    for length in range(r + 1):
        for rho in product(palette, repeat=length):
            if any(r_compatible(s, rho, r) for s in full) and not any(
                r_compatible(s, rho, r) for s in kept
            ):
                return False
    return True
