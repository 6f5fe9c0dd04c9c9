"""Locally rainbow path solver: a depth-first search over the path DP's keys.

The search gates on ``row = rainbow_distances(g, r)``: at r >= 2 the
fewest arcs of a radius-2 locally rainbow walk from each vertex to t,
and at r <= 1 the plain distance to t. Every completion of a path prefix
is a radius-r locally rainbow walk, so a completion from u has at least
``row[u]`` arcs, and u may end a prefix of p arcs only if
``row[u] <= ell - p``. A completion from there takes at least one more
step to reach any x, so it can visit x only if ``row[x] < ell - p``;
those x form ``near[p]``, and a prefix keeps only ``visited & near[p]``.
A vertex that leaves ``near`` is refused by the gate at every later
level, so the mask needs it no more. Prefixes that agree there and in
their last r colors admit the same completions, so they share one key.

The row is never below dist_t, the plain distance to t, so each mask is
a subset of the one a dist_t gate keeps, and the key bound is that
gate's. At a budget of dist(s, t) + k, a vertex at step i of a path has
dist_t >= dist(s, t) - i, so it stays in the mask only while i > p - k:
the mask holds at most the last k vertices, and one level and vertex
hold at most Δ^(max(k, r) - 1) keys, Δ the largest in-degree. That is
polynomial for fixed k and r. Measuring k from ``row[s]`` instead would
need ``row[s] <= i + row[x]``, which fails when x's shortest rainbow walk
clashes with the colors before x.

``walk.solve_walk`` asks the same search its exact questions shorter
than n arcs, with the mask held at 0 and the plain ``g.dist_to_t`` as
the row: a key is then the walk DP's state, (level, vertex, window). A
``repfam.WindowMemo`` keyed by (level, vertex) keeps its memo small, as
it keeps the walk DP's cells, so the windows entered at one level and
vertex stay bounded by a function of r alone. Each key on the stack
carries its link back to s, which ``core.unwind`` reads into the
witness, as it reads the walk DP's.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from .core import _PAD, ColoredDigraph, Query, Witness, rainbow_distances, unwind
from .repfam import WindowMemo


def _path_search(
    g: ColoredDigraph, r: int, ell: int, mode: str, stats: dict | None = None, *, walk: bool = False
) -> tuple[Witness | None, set[tuple]]:
    """Search the path keys depth-first in arc order: the first accepted path or None, and the keys entered.

    A key is (level p, vertex u, visited & near[p] as a bitmask, the last
    r colors padded on the left with ``_PAD`` to r). An arc into v extends
    a key when v is in ``near[p] ^ mask`` (v passes the gate and is not
    visited) and v's color is not in the window. The keys entered are the
    dead memo: a key left without an accepted path has no completion, and
    none recurs on a branch, since p grows along it. A key is pushed
    with the link (its parent's vertex, its parent's link), and the
    witness is ``core.unwind`` of the accepted key's vertex and link.
    Mode "exact" accepts g.t only at level ``ell``, the other modes at
    any level. No path has more than n - 1 arcs, so mode "any"
    runs at budget n - 1 and "atmost" at ``min(ell, n - 1)``; mode "exact"
    past n - 1, or a gate that refuses g.s, enters no key.

    With ``walk`` set it answers the walk question in mode "exact": the
    mask stays 0 and the gate reads ``g.dist_to_t``, which every walk
    respects, so a key is the walk's state (level, vertex, window). A
    ``WindowMemo`` keyed by (level, vertex) decides which windows are
    entered. A window it refuses admits no continuation that an entered
    one does not, and the entered ones are dead: a key at level p is
    popped only once the keys entered before it at level p are exhausted,
    since keys pushed after them come from their descendants, all deeper.

    ``stats`` receives ``levels`` (the deepest level entered),
    ``total_members`` (the keys entered, the start's included;
    ``total_windows`` on a walk, whose keys are its windows, as
    ``walk._last_level`` counts them), ``max_cell`` (the most keys at one
    level and vertex) and, once a memo's filter switches on, ``rep_calls`` (the
    memos filtered); a search that enters no key sets ``levels`` and
    that count to 0. The keys returned are the path keys entered; a walk
    search returns none.
    """
    colors, out_adj, t = g.colors, g.out_neighbors, g.t
    stats = {} if stats is None else stats
    members = "total_windows" if walk else "total_members"
    if mode != "exact":
        ell = g.n - 1 if mode == "any" else min(ell, g.n - 1)
    row = g.dist_to_t if walk else rainbow_distances(g, r)
    if ell >= g.n or row[g.s] is None or row[g.s] > ell:  # type: ignore[operator]
        stats["levels"] = stats[members] = 0
        return None, set()
    # x sits in near[p] for p < ell - row[x]; near[ell] and near[ell + 1] are empty
    near = [0] * (ell + 2)
    for x, d in enumerate(row):
        if d is not None and d < ell:
            near[ell - 1 - d] |= 1 << x
    for p in range(ell - 1, -1, -1):
        near[p] |= near[p + 1]
    # the colors u adds to a window; at r = 0 windows stay empty, and an
    # empty window admits every color
    added = [(c,)[:r] for c in colors]
    # the bit u sets in a visited mask; none on a walk
    bit = [0] * g.n if walk else [1 << u for u in range(g.n)]
    start = (0, g.s, bit[g.s] & near[0], ((_PAD,) * (r - 1) + (colors[g.s],))[:r])
    seen: set[tuple] = set()
    # a walk's memo instead, keyed by (level, vertex)
    memo = WindowMemo(r)
    witness = None
    stack: list[tuple[tuple, tuple | None]] = [(start, None)]
    while stack:
        key, link = stack.pop()
        p, u, mask, window = key
        if walk:
            if not memo.enter((p, u), window):
                continue
        elif key in seen:
            continue
        else:
            seen.add(key)
        if u == t and (mode != "exact" or p == ell):
            witness = unwind(u, link)
            break
        free, near_next, stem, via = near[p] ^ mask, near[p + 1], window[1:], (u, link)
        # pushed in reverse, so they pop in arc order
        stack += [
            ((p + 1, v, (mask | bit[v]) & near_next, stem + added[v]), via)
            for v in reversed(out_adj[u])
            if free >> v & 1 and colors[v] not in window
        ]
    sizes = memo.sizes if walk else Counter(map(itemgetter(0, 1), seen))
    stats["levels"] = max(p for p, _ in sizes)
    stats[members] = sum(sizes.values())
    stats["max_cell"] = max(sizes.values())
    if memo.keeps:
        stats["rep_calls"] = len(memo.keeps)
    return witness, seen


def solve_path(g: ColoredDigraph, query: Query, *, stats: dict | None = None) -> Witness | None:
    """Decide existence of a locally rainbow s-t path within a length bound.

    Mode "exact" asks for length exactly ell, "atmost" for any length up
    to ell, and "any" for any length at all (equivalent to atmost n-1).

    Returns:
        A witness path, or None.
    """
    # as in solve_walk, a radius past num_colors changes no answer
    return _path_search(g, min(query.r, g.num_colors), query.ell, query.mode, stats)[0]
