"""Shared helpers for the test suite."""
from __future__ import annotations

import contextlib
import io
import random
import sys

from rainbowpaths import ColoredDigraph, ordered_bound, repfam, representative_keep, slot_set
from rainbowpaths.cli import main as cli_main
from rainbowpaths.core import _PAD
from reference import is_window_representative


def run_cli(argv: list[str], stdin_text: str | None = None) -> tuple[int, str, str]:
    """Run the CLI in-process and capture (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def claimed_slots(rho: tuple[int, ...], r: int) -> set[int]:
    """The slots continuation ``rho`` claims, encoded as ``slot_set`` encodes blocked ones."""
    return {rho[i] * r + i for i in range(min(r, len(rho)))}


def symmetric_no_mono_graph(rng: random.Random, n: int, num_colors: int, edge_probability: float) -> ColoredDigraph | None:
    """Random symmetric digraph whose arcs never join same-colored vertices.

    Returns None when the sampled graph has no arc at all (the constructor
    would accept it, but such instances are useless for the tests).
    """
    colors = tuple(rng.randrange(num_colors) for _ in range(n))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if colors[u] != colors[v] and rng.random() < edge_probability:
                arcs.append((u, v))
                arcs.append((v, u))
    if not arcs:
        return None
    colors = tuple(c - min(colors) for c in colors) if min(colors) else colors
    used = sorted(set(colors))
    dense = {c: i for i, c in enumerate(used)}
    colors = tuple(dense[c] for c in colors)
    return ColoredDigraph(n, colors, tuple(arcs), 0, n - 1)


def compliant_cnf(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """Random CNF with 3 distinct variables per clause and 2+/2- occurrences.

    n must be divisible by 3 so that m = 4n/3 is integral.
    """
    assert n % 3 == 0
    m = 4 * n // 3
    while True:
        deck = [v for v in range(1, n + 1) for _ in (0, 1)]
        deck += [-v for v in range(1, n + 1) for _ in (0, 1)]
        rng.shuffle(deck)
        clauses = [tuple(deck[3 * j: 3 * j + 3]) for j in range(m)]
        if all(len({abs(l) for l in c}) == 3 for c in clauses):
            return clauses


def core_sets(rng: random.Random, universe: int, p: int, core: int, count: int) -> list[tuple[int, ...]]:
    """``count`` random p-subsets of [0, universe) that all contain the same ``core`` elements."""
    shared = rng.sample(range(universe), core)
    rest = [e for e in range(universe) if e not in shared]
    return [tuple(sorted(shared + rng.sample(rest, p - core))) for _ in range(count)]


def core_windows(rng: random.Random, length: int, core: int, num_colors: int, count: int) -> list[tuple[int, ...]]:
    """Distinct rainbow windows, sorted, that all end in the same ``core`` colors, as in a walk cell."""
    suffix = tuple(rng.sample(range(num_colors), core))
    rest = [c for c in range(num_colors) if c not in suffix]
    return sorted({tuple(rng.sample(rest, length - core)) + suffix for _ in range(count)})


def keep_windows(windows: list[tuple[int, ...]], r: int, q: int) -> list[int]:
    """Kept indices of a q-representative of the windows' slot sets at radius r.

    q = r holds for any family; q = r - 1 suffices when every window ends in one color.
    """
    return representative_keep([slot_set(w, r) for w in windows], q)


def cell_windows(cell) -> list[tuple[int, ...]]:
    """The windows of a walk cell (window -> link), padding dropped."""
    return [w[w.count(_PAD):] for w in cell]


class PruneChecker:
    """Stands in for ``repfam.window_keep``, and checks what the filters it makes keep.

    A ``WindowMemo`` switches a cell's filter on when a window arrives at
    a cell of ``ordered_bound(r)`` windows, so a filter is offered the
    cell's windows and then every later one: more than ``ordered_bound(r)``
    windows, all ending in one color, as the keep's q = r - 1 assumes.
    ``calls`` counts the filters. At ``end_trial`` up to ``per_trial`` of
    the trial's filters are checked against the definition of an ordered
    representative, the windows each kept against all it was offered,
    since the exhaustive check costs far more than the filter. The check
    draws continuations from the kept windows' colors and r colors
    outside the cell: a color no kept window holds blocks no kept window,
    so renaming it to an outside color keeps any counterexample one.
    """

    def __init__(self, monkeypatch, per_trial: int):
        self.keep = repfam.window_keep
        self.per_trial = per_trial
        self.checked = self.calls = 0
        # (r, windows offered, windows kept) of each filter yet to be checked
        self.filters: list[tuple[int, list, list]] = []
        monkeypatch.setattr(repfam, "window_keep", self.window_keep)

    def window_keep(self, window, r):
        self.calls += 1
        keep = self.keep(window, r)
        offered: list = []
        kept: list = []
        self.filters.append((r, offered, kept))

        def recorded(w):
            offered.append(w[w.count(_PAD):])
            if keep(w):
                kept.append(offered[-1])
                return True
            return False

        return recorded

    def end_trial(self) -> None:
        for i, (r, offered, kept) in enumerate(self.filters):
            assert len(offered) > ordered_bound(r), "a filter switched on within the bound"
            assert len({w[-1] for w in offered}) == 1, "a cell's windows end in several colors"
            if i < self.per_trial:
                self.checked += 1
                outside = max(c for w in offered for c in w) + 1
                palette = sorted({c for w in kept for c in w}) + list(range(outside, outside + r))
                assert is_window_representative(kept, offered, r, palette), (len(kept), len(offered))
        self.filters.clear()


def fan(rng: random.Random, width: int, t_color: int) -> ColoredDigraph:
    """s -> 2 vertices -> ``width`` vertices -> 3 hubs -> t, every vertex but t its own color.

    Each arc between the two middle layers and into the hubs is present
    with probability 0.96. t takes color 1 or 2, the color of one of the
    vertices after s, so that only half of a hub's windows fit before t,
    or the fresh color width + 6.
    """
    n = width + 7
    hubs = range(width + 3, width + 6)
    arcs = [(0, 1), (0, 2)]
    for m in range(3, width + 3):
        arcs += [(x, m) for x in (1, 2) if rng.random() < 0.96]
        arcs += [(m, h) for h in hubs if rng.random() < 0.96]
    arcs += [(h, n - 1) for h in hubs]
    colors = tuple(range(n - 1)) + (t_color,)
    return ColoredDigraph(n, colors, tuple(arcs), 0, n - 1)


def tight_dag(rng: random.Random, width: int, layers: int, colors: int) -> ColoredDigraph:
    """s, then ``layers`` layers of ``width`` vertices, then t, with arcs only forward.

    s has arcs to 4 random vertices of layer 0. Each vertex has arcs to 4
    random vertices of the next layer, or to t from the last layer, and to
    2 random vertices two layers on, or to t from the second-to-last
    layer. Colors are uniform over ``range(colors)``, redrawn until every
    color occurs; at radius ``colors - 1`` each window must hold every
    color, so many budgets have no path. The graph is acyclic, so every
    walk is a path and ``oracle_walk`` answers the path question.
    """
    n = width * layers + 2
    t = n - 1
    layer = [range(1 + i * width, 1 + (i + 1) * width) for i in range(layers)]

    def ahead(i: int, k: int) -> list[int]:
        return rng.sample(layer[i], k) if i < layers else [t]

    arcs = [(0, v) for v in ahead(0, 4)]
    for i in range(layers):
        for u in layer[i]:
            arcs += [(u, v) for v in ahead(i + 1, 4)]
            if i + 2 <= layers:
                arcs += [(u, v) for v in ahead(i + 2, 2)]
    while True:
        palette = tuple(rng.randrange(colors) for _ in range(n))
        if len(set(palette)) == colors:
            return ColoredDigraph(n, palette, tuple(arcs), 0, t)


def parity_grid(side: int) -> ColoredDigraph:
    """The side × side two-way grid, vertex (i, j) colored (i + 2j) mod 5, s and t at opposite corners.

    The grid is bipartite and dist(s, t) = 2(side - 1) is even, so no s-t
    walk, and no path, has an odd length: those budgets are NO in mode
    "exact", which only an exhaustive search proves. ``side`` is at least 3.
    """
    n = side * side
    arcs = []
    for i in range(side):
        for j in range(side):
            v = i * side + j
            if j + 1 < side:
                arcs += [(v, v + 1), (v + 1, v)]
            if i + 1 < side:
                arcs += [(v, v + side), (v + side, v)]
    colors = tuple((i + 2 * j) % 5 for i in range(side) for j in range(side))
    return ColoredDigraph(n, colors, tuple(arcs), 0, n - 1)
