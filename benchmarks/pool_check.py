"""Solve every benchmark pool file in process and summarise the answers as JSON.

Builds the walk, path and detour pools of ``solvebench/workloads.py`` at
seed 0, reads each instance back from its file text with
``parse_instance``, solves it through ``dispatch.solve`` with the solver
its pool file asks for (``--solver walk`` or auto), checks each witness
against the generated graph with ``verify_witness`` (as a path under auto,
whose every solver answers the path question), and compares each answer
with the oracle answer recorded in ``solvebench/expected.json``. No
solve in those pools prunes, so a fourth pool, ``fan``, solves the
radius-3 fans of ``tests/helpers.py`` (seeds 90,000-90,007, modes
"atmost" and "exact") with the walk solver: their hub cells outgrow
``ordered_bound(3)``, so the walk filter switches on. Fans are acyclic, so each
fan answer is checked against ``oracle_path`` and each witness as a path.
Those pools are YES-heavy, so a fifth pool, ``no``, asks path questions
whose answers are mostly NO, through auto dispatch: the 16 tight-color
DAGs ``tight_dag(random.Random(91_000 + trial), 40, 10, 4)`` of
``tests/helpers.py`` at ``Query(3, dist + k, "exact")`` for k = 1, 2, 3,
checked against ``oracle_walk`` (in a DAG every walk is a path), and the
10 × 10 ``parity_grid`` at ``Query(2, ell, "exact")`` for ell = 19, 21,
23, 25, NO by parity (the grid is bipartite and dist(s, t) = 18). Each
witness is checked as a path. A sixth pool, ``walkno``, asks exact walk
questions whose answers are NO with the walk solver: the same 16 DAGs at
dist + 1..3, checked against ``oracle_walk``; the grid at ell = 19, 21,
..., 29; and the eight fans at ``Query(3, 5, "exact")``, NO since every
fan path has 4 arcs, checked against ``oracle_path``. Their cells at the
hubs and at t outgrow ``ordered_bound(3)``, so the search's filter switches on.
It prints one JSON line per pool on standard output: YES and NO counts,
invalid witnesses, answers that differ from the record, the solver names
that ran, the summed ``total_members``, ``total_windows`` and
``rep_calls`` (the cells whose ``WindowMemo`` filter switched on, in
either walk engine), the largest ``max_cell``, an answer digest
over (name, answer, solver), a witness digest over (name, witness
vertices) and an input digest, ``workloads.pool_digest`` over the files'
names and texts, which ``solvebench/expected.json`` pins for the first
three pools. The seconds spent in ``parse_instance`` (``parse_s``) and in
``dispatch.solve`` (``solve_s``) go to standard error, one JSON line per
pool. Two checkouts agree on a pool (the same instance bytes, answers
and witnesses) exactly when their standard output is byte-identical, so
``diff`` checks it. After the last pool's lines it exits 1 if any pool
reports a wrong answer or an invalid witness, and 0 otherwise, so a
script can gate on it.

Usage: python benchmarks/pool_check.py [walk] [path] [detour] [fan] [no] [walkno]
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

# run from a bare checkout: the package source, solvebench and the tests sit beside this directory
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "solvebench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from helpers import fan, parity_grid, tight_dag  # noqa: E402

from rainbowpaths import Query, dispatch, oracle_path, oracle_walk, parse_instance, verify_witness  # noqa: E402

POOLS = ("walk", "path", "detour", "fan", "no", "walkno")
SEED = 0


def fan_pool() -> list[workloads.Instance]:
    """Eight radius-3 fans of width 300, each asked in modes "atmost" and "exact"."""
    pool = []
    for trial in range(8):
        g = fan(random.Random(90_000 + trial), 300, (1, 2, 306)[trial % 3])
        for mode in ("atmost", "exact"):
            q = Query(3, 4, mode)
            oracle = functools.partial(oracle_path, g, q)
            pool.append(workloads.Instance(f"fan-{trial}-{mode}", g, q, ("--solver", "walk"), "walk", oracle))
    return pool


def no_pool() -> list[workloads.Instance]:
    """Sixteen tight-color DAGs at exact budgets dist + 1..3, and a parity grid at odd exact lengths."""
    pool = []
    for trial in range(16):
        g = tight_dag(random.Random(91_000 + trial), 40, 10, 4)
        for k in (1, 2, 3):
            q = Query(3, g.dist_to_t[g.s] + k, "exact")
            oracle = functools.partial(oracle_walk, g, q)
            pool.append(workloads.Instance(f"dag-{trial}-{k}", g, q, (), "path", oracle))
    grid = parity_grid(10)
    for ell in (19, 21, 23, 25):  # NO by parity: every s-t walk of the grid has even length
        pool.append(workloads.Instance(f"grid-{ell}", grid, Query(2, ell, "exact"), (), "path", lambda: None))
    return pool


def walkno_pool() -> list[workloads.Instance]:
    """Exact walk questions, mostly NO, for the walk solver: DAGs at dist + 1..3, the grid at odd lengths, fans at 5."""
    walk = ("--solver", "walk")
    pool = [workloads.Instance(inst.name, inst.graph, inst.query, walk, "walk", inst.oracle) for inst in no_pool()]
    grid = parity_grid(10)
    for ell in (27, 29):
        pool.append(workloads.Instance(f"grid-{ell}", grid, Query(2, ell, "exact"), walk, "walk", lambda: None))
    for trial in range(8):
        g = fan(random.Random(90_000 + trial), 300, (1, 2, 306)[trial % 3])
        q = Query(3, 5, "exact")
        pool.append(workloads.Instance(f"fan-{trial}", g, q, walk, "walk", functools.partial(oracle_path, g, q)))
    return pool


# the pools built here rather than in solvebench, whose answers come from their oracles
BUILT = {"fan": fan_pool, "no": no_pool, "walkno": walkno_pool}


def check_pool(workload: str) -> tuple[dict, dict]:
    """The summary line of one pool, and its parse and solve seconds."""
    if workload in BUILT:
        pool = BUILT[workload]()
        wants = [inst.expected() for inst in pool]
    else:
        pool = workloads.build_pool(workload, SEED)
        recorded = json.loads((ROOT / "solvebench" / "expected.json").read_text())
        wants = [answer == "Y" for answer in recorded["workloads"][workload]["answers"]]
    names: Counter[str] = Counter()
    digest, witnesses = hashlib.sha256(), hashlib.sha256()
    summary = {"pool": workload, "files": len(pool), "yes": 0, "no": 0, "invalid": 0, "wrong": 0}
    members = windows = prunes = max_cell = 0
    parse_seconds = seconds = 0.0
    for inst, want in zip(pool, wants, strict=True):
        solver = "walk" if inst.semantics == "walk" else "auto"
        text = inst.text
        start = time.perf_counter()
        graph, query = parse_instance(text)
        parse_seconds += time.perf_counter() - start
        stats: dict = {}
        start = time.perf_counter()
        witness, name = dispatch.solve(graph, query, solver, stats=stats)
        seconds += time.perf_counter() - start
        found = witness is not None
        summary["yes" if found else "no"] += 1
        summary["wrong"] += found != want
        if found and verify_witness(
            inst.graph, inst.query, witness.vertices, require_path=solver == "auto" or workload == "fan"
        ):
            summary["invalid"] += 1
        names[name] += 1
        members += stats.get("total_members", 0)
        windows += stats.get("total_windows", 0)
        prunes += stats.get("rep_calls", 0)
        max_cell = max(max_cell, stats.get("max_cell", 0))
        digest.update(f"{inst.name} {found} {name}\n".encode())
        witnesses.update(f"{inst.name} {witness.vertices if found else None}\n".encode())
    summary.update(
        solvers=dict(sorted(names.items())),
        total_members=members,
        total_windows=windows,
        rep_calls=prunes,
        max_cell=max_cell,
        answer_digest=digest.hexdigest()[:16],
        witness_digest=witnesses.hexdigest()[:16],
        input_digest=workloads.pool_digest(pool),
    )
    return summary, {"pool": workload, "parse_s": round(parse_seconds, 3), "solve_s": round(seconds, 3)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pools", nargs="*", help=f"any of {', '.join(POOLS)} (default: all)")
    pools = parser.parse_args().pools or POOLS
    for unknown in set(pools) - set(POOLS):
        parser.error(f"unknown pool {unknown!r}")
    faults = 0
    for workload in pools:
        summary, seconds = check_pool(workload)
        print(json.dumps(summary), flush=True)
        print(json.dumps(seconds), file=sys.stderr, flush=True)
        faults += summary["wrong"] + summary["invalid"]
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
