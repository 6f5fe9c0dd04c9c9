"""Detour solver: locally rainbow s-t paths of length at most dist + k.

For small detour budgets the path can be decomposed at distance
separators, vertices closer to the target than everything before them
and farther than everything after. Consecutive separators are at most
2k+1 steps apart, and the stretch between two separators stays inside a
band of the distance levels between them. The solver runs a window
dynamic program over separators: from each stored (separator, window)
and each lower distance level j within reach, one path-engine run
(``segment_window_family``) yields every segment into level j with its
window there, and pushes it into the level that the segment's length
reaches. A segment's interior lies above its end's distance level and,
unless it starts at s, below its start's, while every vertex stitched
before a separator lies above the separator's level; so every stitched
walk is a simple path without tracking vertex sets globally.
"""

from __future__ import annotations

from .core import ColorSeq, ColoredDigraph, Query, Witness, dist_to_target
from .path import segment_window_family
from .walk import prune_window_cell, solve_walk

SegmentParent = tuple[int, ColorSeq, tuple[int, ...]] | None
DetourCells = dict[int, dict[ColorSeq, SegmentParent]]


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


def _reconstruct(
    levels: list[DetourCells], level: int, t: int, window: ColorSeq, s: int
) -> Witness:
    vertices: list[int] = []
    p, v, win = level, t, window
    while True:
        parent = levels[p][v][win]
        if parent is None:
            assert v == s and p == 0
            vertices.insert(0, s)
            break
        u, prev_window, segment = parent
        assert segment[0] == u and segment[-1] == v
        vertices[0:0] = segment[1:]
        p, v, win = p - (len(segment) - 1), u, prev_window
    assert len(set(vertices)) == len(vertices), "stitched walk is not simple"
    return Witness(tuple(vertices))


def solve_detour(
    g: ColoredDigraph, r: int, k: int, *, stats: dict | None = None
) -> Witness | None:
    """Find a locally rainbow s-t path of length at most dist(s, t) + k.

    Parameters
    ----------
    g : ColoredDigraph
        The instance; s and t are taken from it.
    r : int
        Locality radius.
    k : int
        Detour budget on top of the s-t distance. Negative budgets have
        no compliant length, so the answer is None.

    Returns
    -------
    Witness or None
        A simple locally rainbow path of length at most dist + k, if any.
    """
    if k < 0:
        return None
    d = dist_to_target(g)
    dist = d[g.s]
    if dist is None:
        return None
    if k == 0:
        # at exactly the distance, any compliant walk is automatically simple
        return solve_walk(g, Query(r=r, ell=dist, mode="atmost"), stats=stats)
    ell = dist + k
    levels: list[DetourCells] = [{} for _ in range(ell + 1)]
    levels[0][g.s] = {(g.colors[g.s],)[:r]: None}
    # segments from (u, window) into level j, computed at the lowest level holding (u, window),
    # whose span is the longest
    segments: dict[tuple[int, ColorSeq, int], list] = {}
    for p, cells in enumerate(levels):
        for v, cell in cells.items():
            cells[v] = prune_window_cell(cell, r, stats)
        if stats is not None and p:
            stats["levels"] = p
            if cells:
                stats["max_cell"] = max(stats.get("max_cell", 0), max(map(len, cells.values())))
        if g.t in cells:
            return _reconstruct(levels, p, g.t, next(iter(cells[g.t])), g.s)
        for u in sorted(cells):
            du = d[u]
            assert du is not None
            for window in cells[u]:
                for j in range(max(0, du - 2 * k - 1), du):
                    # a separator at level j ends within dist - j + k arcs of s
                    span = dist - j + k - p
                    key = (u, window, j)
                    if key not in segments:
                        segments[key] = segment_window_family(
                            g, d, u, window, j, r, min(2 * k + 1, span)
                        )
                    for v, q, seg_window, segment in segments[key]:
                        if q > span:
                            break
                        levels[p + q].setdefault(v, {}).setdefault(seg_window, (u, window, segment))
    return None
