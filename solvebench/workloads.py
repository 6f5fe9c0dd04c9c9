"""Seeded instance pools, one per workload, with oracle-backed answers.

Random graphs come from this module's own generators, so the inputs depend
only on the workload name and seed, never on the program under test. The
two reductions use the library's constructions, the way
``rainbowpaths generate phs|sat`` would; ``expected.json`` holds a digest of
the default seed's pools, so a change to a construction shows up as changed
inputs instead of as a speed change.

Pools are large enough that a run solves most instances at most once: a
run then averages over many independent inputs, and its figures move
little from one seed to the next. The generators fix the properties that decide solve time
(distance, degrees, color classes) and randomise the rest.

The brute-force answer of an instance comes from ``oracle_walk`` or
``oracle_path``, or from ``oracle_phs`` or ``oracle_3sat`` on the source of
a reduction. It is computed only when needed, because a YES answer is proved
by checking its witness.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

from rainbowpaths import (
    CnfInput,
    ColoredDigraph,
    PHSInput,
    Query,
    dist_from_source,
    gen_3sat_instance,
    gen_phs_instance,
    oracle_3sat,
    oracle_path,
    oracle_phs,
    oracle_walk,
    write_instance,
)


@dataclass
class Instance:
    """One instance file of a pool and how to learn its true answer.

    ``semantics`` is the question asked: "walk" for ``--solver walk``,
    "path" for auto dispatch, whose every solver answers the path question.
    ``recorded`` is the answer from ``expected.json``, where there is one.
    """

    name: str
    graph: ColoredDigraph
    query: Query
    args: tuple[str, ...]
    semantics: str
    oracle: Callable[[], object] = field(repr=False)
    recorded: bool | None = None
    _answer: bool | None = field(default=None, repr=False)

    @property
    def text(self) -> str:
        return write_instance(self.graph, self.query)

    def expected(self) -> bool:
        """The true answer: recorded, or from the brute-force oracle (cached)."""
        if self.recorded is not None:
            return self.recorded
        if self._answer is None:
            self._answer = self.oracle() is not None
        return self._answer


def _solver_instance(name: str, g: ColoredDigraph, q: Query, semantics: str) -> Instance:
    if semantics == "walk":
        return Instance(name, g, q, ("--solver", "walk"), "walk", lambda: oracle_walk(g, q))
    return Instance(name, g, q, (), "path", lambda: oracle_path(g, q))


def _palette(rng: random.Random, n: int, colors: int) -> tuple[int, ...]:
    """Color classes as equal as n allows, in random positions."""
    palette = [i % colors for i in range(n)]
    rng.shuffle(palette)
    return tuple(palette)


def _graph(rng: random.Random, n: int, colors: int, in_degrees=None, out_degree=None, p=None):
    """Random digraph on [0, n) with s = 0 and t = n - 1.

    Arcs come from one of three models: each vertex v draws ``in_degrees[v]``
    in-neighbours, or ``out_degree`` out-neighbours, or each arc is present
    with probability ``p``.
    """
    others = [[u for u in range(n) if u != v] for v in range(n)]
    if in_degrees is not None:
        arcs = [(u, v) for v in range(n) for u in rng.sample(others[v], in_degrees[v])]
    elif out_degree is not None:
        arcs = [(u, v) for u in range(n) for v in rng.sample(others[u], out_degree)]
    else:
        arcs = [(u, v) for u in range(n) for v in others[u] if rng.random() < p]
    return ColoredDigraph(n, _palette(rng, n, colors), tuple(sorted(arcs)), 0, n - 1)


def _at_distance(rng: random.Random, dist: int, make) -> ColoredDigraph:
    """Draw graphs from ``make(rng)`` until the s-t distance is ``dist``."""
    while True:
        g = make(rng)
        if dist_from_source(g)[g.t] == dist:
            return g


def _walk_round(rng: random.Random, i: int) -> list[Instance]:
    # Radius 2, forty distinct colors: a cell outgrows ordered_bound(2) = 29,
    # and is pruned, when its vertex has 30 or more in-neighbours. A fixed
    # ten of the forty vertices have 32; the rest have 24.
    degrees = [32] * 10 + [24] * 30
    rng.shuffle(degrees)
    g = _at_distance(rng, 1, lambda r: _graph(r, 40, 40, in_degrees=degrees))
    r2 = _solver_instance(f"walk-r2-{i}", g, Query(2, 1 + 6, "exact"), "walk")
    # Radius 3 over 12 colors: at most 11 * 10 windows per cell, below
    # ordered_bound(3) = 537, so no prune fires.
    g = _at_distance(rng, 2, lambda r: _graph(r, 80, 12, p=0.15))
    r3 = _solver_instance(f"walk-r3-{i}", g, Query(3, 2 + 6, "exact"), "walk")
    k = 4
    cells = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)]
    inp = PHSInput(k, tuple(tuple(rng.sample(cells, 4)) for _ in range(4)))
    g, q = gen_phs_instance(inp)
    phs = Instance(f"walk-phs-{i}", g, q, (), "path", lambda: oracle_phs(k, inp.as_pair_sets()))
    return [r2, r3, phs]


def _balanced_cnf(rng: random.Random, n: int) -> tuple[tuple[int, int, int], ...]:
    """3-CNF over n variables (n divisible by 3), each literal sign used twice."""
    m = 4 * n // 3
    while True:
        deck = [v for v in range(1, n + 1) for _ in (0, 1)]
        deck += [-v for v in deck]
        rng.shuffle(deck)
        clauses = tuple(tuple(deck[3 * j : 3 * j + 3]) for j in range(m))
        if all(len({abs(lit) for lit in c}) == 3 for c in clauses):
            return clauses  # type: ignore[return-value]


def _path_round(rng: random.Random, i: int) -> list[Instance]:
    # Out-degree 4 keeps every cell far below PRUNE_THRESHOLD (the largest
    # in 3000 draws had 680 members); at arc probability 0.3, n = 19 and 20
    # already cross it now and then, and that is the path-cliff workload.
    ell = 12 + i % 2
    g = _graph(rng, 20, 5, out_degree=4)
    pool = [_solver_instance(f"path-n20-l{ell}-{i}", g, Query(2, ell, "exact"), "path")]
    # Two 3-SAT instances per random one: their solve times vary little, so
    # the median and p90 fall among them and move little between seeds.
    for j in range(2):
        cnf = _balanced_cnf(rng, 6)
        g, q = gen_3sat_instance(CnfInput(cnf))
        oracle = lambda cnf=cnf: oracle_3sat(list(cnf))  # noqa: E731
        pool.append(Instance(f"path-sat6-{i}.{j}", g, q, (), "path", oracle))
    return pool


def _detour_round(rng: random.Random, i: int) -> list[Instance]:
    k = 1 + i % 4
    g = _at_distance(rng, 4, lambda r: _graph(r, 60, 6, p=0.05))
    return [_solver_instance(f"detour-k{k}-{i}", g, Query(2, 4 + k, "atmost"), "path")]


def _cliff_round(rng: random.Random, i: int) -> list[Instance]:
    ell = 12 + i % 2
    g = _graph(rng, 21, 5, p=0.3)
    return [_solver_instance(f"cliff-n21-l{ell}-{i}", g, Query(2, ell, "exact"), "path")]


# workload -> (one round of instances, rounds per pool, instances per
# traced pass). A traced pass solves a fixed prefix of the pool, so its
# counts are exact for the seed.
POOLS = {
    "walk": (_walk_round, 120, 60),
    "path": (_path_round, 250, 120),
    "detour": (_detour_round, 900, 120),
    "path-cliff": (_cliff_round, 8, 8),
}


def build_pool(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed, in the order the loop runs them.

    Rounds stay in order, so any prefix of the pool holds each kind of
    instance in the same proportion as the whole pool.
    """
    make_round, rounds, _ = POOLS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [inst for i in range(rounds) for inst in make_round(rng, i)]


def pool_digest(pool: list[Instance]) -> str:
    """Digest of every instance name and file, in pool order."""
    h = hashlib.sha256()
    for inst in pool:
        h.update(inst.name.encode() + b"\0" + inst.text.encode())
    return h.hexdigest()
