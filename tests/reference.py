"""Definitional references that the tests check the package against.

Exhaustive and deliberately simple: window compatibility straight from
the locality definition, the (color, position) slots a window blocks,
which ``core.slot_set`` encodes, the definitional checks of a
representative family of sets and of color windows, the greedy keep rule
the prune applies, the gated simple prefixes the path search keys, the
distance separators of a path (a short detour has one every 2k + 1
steps), and a line-by-line reader of the instance file format.
"""
from __future__ import annotations

import re
from itertools import combinations, product
from typing import Iterable, Sequence

from rainbowpaths import ColoredDigraph, Query

ColorSeq = tuple[int, ...]


def r_compatible(first: Sequence[int], second: Sequence[int], r: int) -> bool:
    """Decide whether ``second`` may follow ``first`` without breaking locality r.

    For each j in [1, r], the last j entries of ``first`` must avoid the
    first min(r - j + 1, len(second)) entries of ``second``. When both parts
    are individually locally rainbow this is equivalent to their
    concatenation being locally rainbow.
    """
    n, m = len(first), len(second)
    for j in range(1, r + 1):
        tail = set(first[max(0, n - j) :])
        head = set(second[: min(r - j + 1, m)])
        if tail & head:
            return False
    return True


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


def greedy_keep(sets: Sequence[Sequence[int]], q: int, universe: int) -> list[int]:
    """Keep set i iff some Y in [0, universe) of size <= q avoids it and meets each set kept earlier."""
    kept: list[frozenset[int]] = []
    keep = []
    for i, s in enumerate(sets):
        member = frozenset(s)
        if any(
            not (member & set(y)) and all(k & set(y) for k in kept)
            for size in range(q + 1)
            for y in combinations(range(universe), size)
        ):
            kept.append(member)
            keep.append(i)
    return keep


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


def gated_prefixes(
    g, r: int, ell: int, row: Sequence[int | None]
) -> dict[tuple[int, int, int, ColorSeq], list[tuple[int, ...]]]:
    """Every gated simple prefix in the graph ``g``, grouped by the key the path search gives it.

    A gated simple prefix is a path from g.s of p <= ell arcs, each r + 1
    consecutive vertices of it in distinct colors, whose vertex at step i
    has ``row <= ell - i``. Its key is (p, its last vertex, the bitmask of
    its vertices x with ``row[x] < ell - p``, its last min(r, p + 1) colors
    padded on the left with -1 to r).
    """
    colors = g.colors
    prefixes: dict[tuple[int, int, int, ColorSeq], list[tuple[int, ...]]] = {}

    def visit(path: tuple[int, ...]) -> None:
        p = len(path) - 1
        mask = sum(1 << x for x in path if row[x] < ell - p)  # type: ignore[operator]
        last = tuple(colors[x] for x in path[max(0, p + 1 - r) :])
        prefixes.setdefault((p, path[-1], mask, (-1,) * (r - len(last)) + last), []).append(path)
        for v in g.out_neighbors[path[-1]]:
            if v not in path and colors[v] not in last and row[v] is not None and row[v] <= ell - p - 1:
                visit(path + (v,))

    if row[g.s] is not None and row[g.s] <= ell:  # type: ignore[operator]
        visit((g.s,))
    return prefixes


def distance_separators(path: tuple[int, ...], d: Sequence[int | None]) -> list[int]:
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


def read_instance_lines(text: str, warnings: list[str]) -> tuple[ColoredDigraph, Query]:
    """Read an instance file one line at a time, checking each fact where its line is read.

    Each content line (text before '#', stripped, not blank) is split on
    whitespace, and every integer is an optional '-' then ASCII digits.
    The faults are looked for in line order, and the first one raises
    ValueError with its 1-based line number. Returns the graph (built by
    the public constructor, each arc at its first line) and the query; the
    warning of each repeated arc line read is appended to ``warnings``.
    """

    def integers(tokens: list[str]) -> list[int]:
        if not all(re.fullmatch("-?[0-9]+", tok) for tok in tokens):
            raise ValueError(tokens)
        return [int(tok) for tok in tokens]

    content = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            content.append((lineno, line))
    if not content:
        raise ValueError("empty instance")
    lineno, line = content[0]
    if line != "rainbow 1":
        raise ValueError(f"line {lineno}: expected header 'rainbow 1', got {line!r}")
    if len(content) < 2:
        raise ValueError("missing size line")
    lineno, line = content[1]
    try:
        n, m = integers(line.split())
    except ValueError:
        raise ValueError(f"line {lineno}: expected 'n m', got {line!r}") from None
    if n < 0 or m < 0:
        raise ValueError(f"line {lineno}: n and m must be non-negative, got {line!r}")
    if n < 2:
        raise ValueError(f"line {lineno}: graph needs at least two vertices")
    if len(content) != m + 4:
        raise ValueError(f"expected {m + 4} content lines for n={n}, m={m}, got {len(content)}")
    lineno, line = content[2]
    if len(line.split()) != n:
        raise ValueError(f"line {lineno}: expected {n} colors, got {len(line.split())}")
    try:
        colors = integers(line.split())
    except ValueError:
        raise ValueError(f"line {lineno}: colors must be integers") from None
    if min(colors) < 0:
        raise ValueError(f"line {lineno}: colors must be non-negative")
    if set(colors) != set(range(max(colors) + 1)):
        raise ValueError(f"line {lineno}: colors must form a dense range starting at 0")
    arcs: list[tuple[int, int]] = []
    for lineno, line in content[3:-1]:
        try:
            u, v = integers(line.split())
        except ValueError:
            raise ValueError(f"line {lineno}: expected arc 'u v', got {line!r}") from None
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: arc ({u}, {v}) out of range")
        if (u, v) in arcs:
            warnings.append(f"line {lineno}: duplicate arc {(u, v)} collapsed")
        else:
            arcs.append((u, v))
    lineno, line = content[-1]
    parts = line.split()
    if len(parts) != 5:
        raise ValueError(f"line {lineno}: expected 's t r ell mode', got {line!r}")
    try:
        s, t, r, ell = integers(parts[:4])
    except ValueError:
        raise ValueError(f"line {lineno}: s, t, r, ell must be integers") from None
    try:
        return ColoredDigraph(n, tuple(colors), tuple(arcs), s, t), Query(r, ell, parts[4])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
