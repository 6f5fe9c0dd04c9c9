"""Detour solver: locally rainbow s-t paths of length at most dist + k.

For small detour budgets the path can be decomposed at distance
separators, vertices closer to the target than everything before them
and farther than everything after. Consecutive separators are at most
2k+1 steps apart, and the stretch between two separators stays inside a
band of intermediate distance levels. The solver therefore runs a
window dynamic program over separator endpoints, querying the path
engine for band-restricted segments and stitching their windows onto
the stored prefixes. Band disjointness makes every stitched walk a
simple path without tracking vertex sets globally. Each band records the
fewest arcs a u-to-v segment inside it needs, and segment queries with
fewer arcs than that are skipped without running the path engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ColorSeq, ColoredDigraph, Query, Witness, bfs_distances, dist_to_target
from .path import segment_window_family
from .walk import prune_window_cell, solve_walk

SegmentParent = tuple[int, ColorSeq, tuple[int, ...]] | None
DetourCells = dict[int, dict[ColorSeq, SegmentParent]]


@dataclass(frozen=True)
class Band:
    """Vertices allowed strictly between two segment endpoints.

    kind "interior" restricts to distance levels strictly between the
    endpoints'; kind "from-source" (start vertex only) allows every level
    above the far endpoint's. ``hops`` is the fewest arcs of a u-to-v
    path through the band, or None if there is none.
    """

    u: int
    v: int
    vertices: frozenset[int]
    kind: str
    hops: int | None


def build_band(g: ColoredDigraph, u: int, v: int, d: list[int | None]) -> Band:
    """Band of vertices usable inside a u-to-v segment, given distances to t."""
    dv = d[v]
    assert dv is not None
    if u == g.s:
        kind = "from-source"
        vertices = frozenset(
            w for w in range(g.n) if w not in (u, v) and d[w] is not None and d[w] > dv
        )
    else:
        du = d[u]
        assert du is not None
        kind = "interior"
        vertices = frozenset(
            w for w in range(g.n) if d[w] is not None and dv < d[w] < du
        )
    hops = bfs_distances(g.out_neighbors, u, vertices | {v})[v]
    return Band(u, v, vertices, kind, hops)


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
    max_hop = 2 * k + 1
    start_window: ColorSeq = (g.colors[g.s],) if r >= 1 else ()
    levels: list[DetourCells] = [{g.s: {start_window: None}}]
    seg_cache: dict[tuple[int, int, int, ColorSeq], list[tuple[ColorSeq, tuple[int, ...]]]] = {}
    band_cache: dict[tuple[int, int], Band] = {}
    for p in range(1, ell + 1):
        nxt: DetourCells = {}
        for v in range(g.n):
            dv = d[v]
            if v == g.s or dv is None or p > dist - dv + k:
                continue
            cell: dict[ColorSeq, SegmentParent] = {}
            for q in range(1, min(max_hop, p) + 1):
                for u in sorted(levels[p - q]):
                    du = d[u]
                    if u == v or du is None:
                        continue
                    if u != g.s and not (dv < du < dist):
                        continue
                    band = band_cache.get((u, v))
                    if band is None:
                        band = band_cache[(u, v)] = build_band(g, u, v, d)
                    if band.hops is None or band.hops > q:
                        # the segment engine's distance gate would return no window
                        continue
                    for prev_window in levels[p - q][u]:
                        tau = prev_window[:-1]
                        key = (u, v, q, tau)
                        if key not in seg_cache:
                            seg_cache[key] = segment_window_family(g, u, v, band, q, tau, r)
                        tail_len = max(0, min(p - q + 1, r - q))
                        tail = prev_window[len(prev_window) - tail_len :] if tail_len else ()
                        for seg_window, segment in seg_cache[key]:
                            sigma = seg_window[1:] if q < r else seg_window
                            window = tail + sigma
                            assert len(window) == min(p + 1, r)
                            if window not in cell:
                                cell[window] = (u, prev_window, segment)
            if cell:
                nxt[v] = prune_window_cell(cell, r, stats)
        levels.append(nxt)
        if stats is not None:
            stats["levels"] = p
            if nxt:
                stats["max_cell"] = max(
                    stats.get("max_cell", 0), max(len(c) for c in nxt.values())
                )
        if g.t in nxt:
            window = next(iter(nxt[g.t]))
            return _reconstruct(levels, p, g.t, window, g.s)
    return None
