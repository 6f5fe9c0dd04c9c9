"""The benchmark's recorded answers, checked on the first rounds of each seed-0 pool.

``solvebench/workloads.py`` builds a pool round by round from one seeded
generator, so the first rounds of a pool are rebuilt here the same way,
written to files and solved through ``cli.main`` as the benchmark solves
them. Each answer and exit code must match ``solvebench/expected.json``,
the solver must be the one the workload exercises, and each YES witness
must pass ``verify_witness``, as a path where the question asks for one.
The instance files go to a temporary directory, and ``expected.json`` is
only read.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from helpers import run_cli
from rainbowpaths import verify_witness

SOLVEBENCH = Path(__file__).resolve().parent.parent / "solvebench"
sys.path.insert(0, str(SOLVEBENCH))

import workloads  # noqa: E402

# workload -> (rounds rebuilt, solver names its files may report)
ROUNDS = {
    "walk": (6, {"walk-dp"}),
    "path": (10, {"path-dp", "unreachable"}),
    "detour": (40, {"path-dp", "unreachable"}),
}


@pytest.mark.parametrize("workload", ROUNDS)
def test_first_pool_rounds_give_the_recorded_answers(workload, tmp_path):
    recorded = json.loads((SOLVEBENCH / "expected.json").read_text())
    assert recorded["seed"] == 0
    rounds, solvers = ROUNDS[workload]
    make_round = workloads.POOLS[workload][0]
    rng = random.Random(f"{workload}:0")
    pool = [inst for i in range(rounds) for inst in make_round(rng, i)]
    answers = recorded["workloads"][workload]["answers"][: len(pool)]
    for inst, want in zip(pool, answers, strict=True):
        path = tmp_path / f"{inst.name}.txt"
        path.write_text(inst.text)
        code, out, _ = run_cli(["solve", str(path), "--json", *inst.args])
        report = json.loads(out)
        assert (report["answer"], code) == (want == "Y", 0 if want == "Y" else 1), inst.name
        assert report["solver"] in solvers, (inst.name, report["solver"])
        if report["answer"]:
            problems = verify_witness(
                inst.graph, inst.query, report["witness"], require_path=inst.semantics == "path"
            )
            assert problems == [], (inst.name, problems)
