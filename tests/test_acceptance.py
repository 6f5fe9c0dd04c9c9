"""Acceptance suite: eleven criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every comparison is exact (yes/no agreement or set equality); the only
tolerance anywhere is the wall-clock budget of criterion 1. The solver
runs whose witnesses criteria 10 and 11 replay are module-scoped
fixtures, so any subset of the criteria runs alone, in any order.
"""
from __future__ import annotations

import math
import random
import time
from itertools import combinations, product

import pytest

import helpers
from rainbowpaths import (
    CnfInput,
    ColoredDigraph,
    PHSInput,
    Query,
    gen_3sat_instance,
    gen_phs_instance,
    gen_random,
    is_locally_rainbow,
    oracle_3sat,
    oracle_path,
    oracle_phs,
    oracle_walk,
    ordered_bound,
    phs_layout,
    slot_set,
    solve,
    solve_path,
    solve_walk,
    verify_witness,
    write_instance,
)
from reference import distance_separators, is_set_representative, is_window_representative, r_compatible

CRITERION_1_BUDGET_SECONDS = 120.0

# A YES witness as criterion 10 replays it: (instance text, witness line, require_path).
YesWitness = tuple[str, str, bool]
# A path-DP witness at ell = dist + k as criterion 11 checks it: (g, r, k, vertices).
Detour = tuple[ColoredDigraph, int, int, tuple[int, ...]]


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def witness_record(g: ColoredDigraph, q: Query, vertices, require_path: bool) -> YesWitness:
    line = f"YES {len(vertices) - 1} " + " ".join(str(v) for v in vertices)
    return write_instance(g, q), line, require_path


@pytest.fixture(scope="module")
def walk_runs() -> tuple[list, list[YesWitness], float]:
    """Criterion 1's solves: failures, YES witnesses, and seconds taken."""
    start = time.monotonic()
    failures: list = []
    witnesses: list[YesWitness] = []
    for trial in range(2000):
        rng = random.Random(trial)
        n = rng.randint(2, 10)
        prob = rng.choice((0.2, 0.4))
        colors = rng.randint(1, 4)
        r = rng.randint(1, 4)
        ell = rng.randint(0, 12)
        g, _ = gen_random(n, prob, colors, r, ell, seed=trial)
        for mode in ("atmost", "exact"):
            q = Query(r, ell, mode)
            mine = solve_walk(g, q)
            ref = oracle_walk(g, q)
            if (mine is None) != (ref is None):
                failures.append((trial, mode))
                continue
            if mine is not None:
                if verify_witness(g, q, mine.vertices):
                    failures.append((trial, mode, "witness"))
                else:
                    witnesses.append(witness_record(g, q, mine.vertices, False))
    return failures, witnesses, time.monotonic() - start


def test_criterion_01_walk_solver_matches_oracle(walk_runs):
    """2000 seeded instances, at-most and exact modes, within 120 s."""
    failures, _, elapsed = walk_runs
    ok = not failures and elapsed < CRITERION_1_BUDGET_SECONDS
    verdict(1, ok, f"4000 comparisons, {len(failures)} mismatches, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < CRITERION_1_BUDGET_SECONDS


@pytest.fixture(scope="module")
def path_runs() -> tuple[list, list[YesWitness]]:
    """Criterion 2's solves: failures and YES witnesses."""
    failures: list = []
    witnesses: list[YesWitness] = []
    for trial in range(1000):
        rng = random.Random(10_000 + trial)
        n = rng.randint(2, 9)
        prob = rng.choice((0.25, 0.45))
        colors = rng.randint(1, 4)
        r = rng.randint(0, 3)
        ell = rng.randint(0, 9)
        mode = rng.choice(("atmost", "exact", "any"))
        g, _ = gen_random(n, prob, colors, r, ell, seed=10_000 + trial)
        q = Query(r, ell, mode)
        mine = solve_path(g, q)
        ref = oracle_path(g, q)
        if (mine is None) != (ref is None):
            failures.append((trial, mode))
            continue
        if mine is not None:
            if verify_witness(g, q, mine.vertices, require_path=True):
                failures.append((trial, mode, "witness"))
            else:
                witnesses.append(witness_record(g, q, mine.vertices, True))
    return failures, witnesses


def test_criterion_02_path_solver_matches_oracle(path_runs):
    """1000 seeded instances against the brute-force path search."""
    failures, _ = path_runs
    verdict(2, not failures, f"1000 instances, {len(failures)} mismatches")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def detour_runs() -> tuple[list, list[YesWitness], list[Detour]]:
    """Criterion 3's solves: failures, YES witnesses, and the same witnesses as detours."""
    failures: list = []
    witnesses: list[YesWitness] = []
    detours: list[Detour] = []
    for trial in range(500):
        rng = random.Random(20_000 + trial)
        n = rng.randint(2, 9)
        g, _ = gen_random(n, rng.choice((0.3, 0.5)), rng.randint(1, 4), 0, 0, seed=20_000 + trial)
        r = rng.randint(1, 3)
        dist = g.dist_to_t[g.s]
        for k in (0, 1, 2, 3):
            if dist is None:
                if solve_path(g, Query(r, k, "atmost")) is not None:
                    failures.append((trial, k, "unreachable"))
                continue
            q = Query(r, dist + k, "atmost")
            mine = solve_path(g, q)
            # at k = 0 every compliant walk is a path, so the walk DP answers too
            ref = solve_walk(g, q) if k == 0 else oracle_path(g, q)
            if (mine is None) != (ref is None):
                failures.append((trial, k) if k else (trial, "k0-walk"))
                continue
            if mine is not None:
                if verify_witness(g, q, mine.vertices, require_path=True):
                    failures.append((trial, k, "witness"))
                else:
                    witnesses.append(witness_record(g, q, mine.vertices, True))
                    detours.append((g, r, k, mine.vertices))
    return failures, witnesses, detours


def test_criterion_03_detour_equals_path_at_shifted_budget(detour_runs):
    """The path search at ell = dist + k agrees with oracle_path for k in 1..3, solve_walk at k = 0."""
    failures, _, _ = detour_runs
    verdict(3, not failures, f"500 instances x k in 0..3, {len(failures)} mismatches")
    assert not failures, failures[:5]


def test_criterion_04_representative_families_pass_definitional_checks():
    """200 random families per flavor plus 100 sharing a core, bounds included."""
    failures = []
    rng = random.Random(30_000)

    def check_sets(trial, fam, universe, p, q):
        kept = [fam[i] for i in helpers.offered_keep(fam, q)]
        if len(kept) > math.comb(p + q, q):
            failures.append((trial, "size"))
        if not is_set_representative(kept, fam, universe, q):
            failures.append((trial, "definition"))

    def check_windows(trial, seqs, r, q):
        kept = [seqs[i] for i in helpers.keep_windows(seqs, r, q)]
        if len(kept) > ordered_bound(r):
            failures.append((trial, "ordered size"))
        if not is_window_representative(kept, seqs, r):
            failures.append((trial, "ordered definition"))

    for trial in range(200):
        universe = rng.randint(3, 10)
        p = rng.randint(1, min(3, universe))
        q = rng.randint(0, 3)
        pool = list(combinations(range(universe), p))
        count = min(len(pool), rng.randint(1, 50))
        check_sets(trial, sorted(rng.sample(pool, count)), universe, p, q)
    for trial in range(200):
        r = rng.randint(1, 3)
        colors = rng.randint(2, 4)
        length = rng.randint(1, min(3, colors))
        pool = set()
        for _ in range(50):
            pool.add(tuple(rng.sample(range(colors), length)))
        check_windows(trial, sorted(pool), r, r)
    # every member shares c >= 1 elements (sets) or its last c colors
    # (windows), as in path and walk cells; set families keep duplicates
    for trial in range(100):
        universe = rng.randint(4, 10)
        p = rng.randint(2, 4)
        fam = helpers.core_sets(rng, universe, p, rng.randint(1, p - 1), rng.randint(2, 40))
        check_sets(("core", trial), fam, universe, p, rng.randint(0, 3))
    for trial in range(100):
        r = rng.randint(1, 3)
        length = rng.randint(1, r)
        seqs = helpers.core_windows(rng, length, rng.randint(1, length), rng.randint(length + 1, 5), 30)
        # the last color's slots are a shared core, so q = r - 1 suffices
        check_windows(("core", trial), seqs, r, r - 1)
    verdict(
        4,
        not failures,
        f"200 unordered + 200 ordered families, 100 + 100 sharing a core, {len(failures)} failures",
    )
    assert not failures, failures[:5]


def test_criterion_05_slot_encoding_bridge_is_exact():
    """``slot_set`` disjointness decides window compatibility, exhaustively."""
    colors = (0, 1, 2)
    mismatches = 0
    checked = 0
    for r in (1, 2, 3):
        windows = [
            w
            for length in (1, 2, 3)
            for w in product(colors, repeat=length)
            if is_locally_rainbow(w, r)
        ]
        continuations = [
            rho for length in range(4) for rho in product(colors, repeat=length)
        ]
        for sigma in windows:
            blocked = set(slot_set(sigma, r))
            for rho in continuations:
                checked += 1
                via_slots = not (blocked & helpers.claimed_slots(rho, r))
                if via_slots != r_compatible(sigma, rho, r):
                    mismatches += 1
    verdict(5, mismatches == 0, f"{checked} pairs, {mismatches} mismatches")
    assert mismatches == 0


@pytest.fixture(scope="module")
def phs_runs() -> tuple[list, list[YesWitness]]:
    """Criterion 6's round trips: failures and YES witnesses."""
    failures: list = []
    witnesses: list[YesWitness] = []
    rng = random.Random(40_000)
    for k in (1, 2, 3):
        for trial in range(100):
            m = rng.randint(1, 3)
            pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
            sets = tuple(
                tuple(sorted(rng.sample(pairs, rng.randint(1, min(4, len(pairs))))))
                for _ in range(m)
            )
            g, q = gen_phs_instance(PHSInput(k, sets))
            got = solve_walk(g, q)
            ref = oracle_phs(k, [set(f) for f in sets])
            if (got is None) != (ref is None):
                failures.append((k, trial, "answer"))
                continue
            if got is None:
                continue
            if verify_witness(g, q, got.vertices, require_path=True):
                failures.append((k, trial, "witness"))
                continue
            witnesses.append(witness_record(g, q, got.vertices, True))
            lay = phs_layout(k, m)
            segments = helpers.decode_phs_segments(got.vertices, lay, m)
            perms = set()
            for fam, (cols, w_rows) in zip(sets, segments):
                if sorted(cols) != list(range(1, k + 1)):
                    failures.append((k, trial, "columns"))
                    break
                if sorted(cols.values()) != list(range(1, k + 1)):
                    failures.append((k, trial, "bijection"))
                    break
                perms.add(tuple(cols[i] for i in range(1, k + 1)))
                if not w_rows or (min(w_rows), cols[min(w_rows)]) not in set(fam):
                    failures.append((k, trial, "hit"))
                    break
            else:
                if len(perms) != 1:
                    failures.append((k, trial, "consistency"))
    worked = (
        ((1, 2), (2, 2)),
        ((1, 1), (2, 2), (2, 3), (3, 3)),
        ((2, 1), (3, 1), (3, 2)),
    )
    g, q = gen_phs_instance(PHSInput(3, worked))
    if solve_walk(g, q) is None:
        failures.append(("worked-example", "expected yes"))
    return failures, witnesses


def test_criterion_06_permutation_hitting_reduction_round_trips(phs_runs):
    """Construction answers match the permutation oracle, k in 1..3."""
    failures, _ = phs_runs
    verdict(6, not failures, f"300 round trips + worked example, {len(failures)} failures")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def sat_runs() -> tuple[list, list[YesWitness]]:
    """Criterion 7's round trips: failures and YES witnesses."""
    failures: list = []
    witnesses: list[YesWitness] = []
    rng = random.Random(50_000)
    for trial in range(10):
        n = rng.choice((3, 6))
        clauses = helpers.compliant_cnf(rng, n)
        g, q = gen_3sat_instance(CnfInput(tuple(clauses)))
        got = solve_path(g, q)
        ref = oracle_3sat(clauses)
        if (got is None) != (ref is None):
            failures.append((trial, "answer"))
            continue
        if got is not None:
            if got.length != q.ell or verify_witness(g, q, got.vertices, require_path=True):
                failures.append((trial, "witness"))
            else:
                witnesses.append(witness_record(g, q, got.vertices, True))
    return failures, witnesses


def test_criterion_07_sat_reduction_round_trips(sat_runs):
    """Ten balanced formulas agree with the satisfiability oracle."""
    failures, _ = sat_runs
    verdict(7, not failures, f"10 formulas, {len(failures)} failures")
    assert not failures, failures


def test_criterion_08_auto_walk_routes_match_path_oracle():
    """Auto dispatch agrees with the path oracle where it runs the walk DP for a path question.

    At r = 1 in mode "atmost", and at r = 2 on symmetric graphs at the
    s-t distance; every YES witness must be a path.
    """
    failures = []
    rng = random.Random(60_000)
    for trial in range(500):
        g, _ = gen_random(rng.randint(2, 9), 0.4, rng.randint(1, 4), 0, 0, seed=60_000 + trial)
        q = Query(1, rng.randint(0, 9), "atmost")
        mine, _ = solve(g, q)
        ref = oracle_path(g, q)
        if (mine is None) != (ref is None) or (
            mine is not None and verify_witness(g, q, mine.vertices, require_path=True)
        ):
            failures.append((trial, "r1"))
    checked = 0
    trial = 0
    while checked < 500:
        trial += 1
        g = helpers.symmetric_no_mono_graph(rng, rng.randint(2, 9), rng.randint(2, 4), 0.4)
        if g is None:
            continue
        dist = g.dist_to_t[g.s]
        if dist is None:
            continue
        checked += 1
        q = Query(2, dist, ("atmost", "exact")[trial % 2])
        mine, _ = solve(g, q)
        ref = oracle_path(g, q)
        if (mine is None) != (ref is None) or (
            mine is not None and verify_witness(g, q, mine.vertices, require_path=True)
        ):
            failures.append((trial, "r2"))
    verdict(8, not failures, f"500 r=1 + 500 symmetric r=2, {len(failures)} mismatches")
    assert not failures, failures[:5]


def test_criterion_09_walk_dp_matches_walk_oracle_in_every_mode():
    """The walk DP and product reachability give one answer, and one witness length outside "exact".

    Every radius 0-5, in modes "any", "atmost" and "exact"; at r <= 1
    outside mode "exact" the DP's witness must also be a path.
    """
    failures = []
    for trial in range(1000):
        rng = random.Random(70_000 + trial)
        n = rng.randint(2, 8)
        g, _ = gen_random(n, rng.choice((0.3, 0.5)), rng.randint(1, 4), 0, 0, seed=70_000 + trial)
        r = rng.randint(0, 5)
        ell = rng.randint(0, 2 * n)
        for q in (Query(r, 0, "any"), Query(r, ell, "atmost"), Query(r, ell, "exact")):
            mine = solve_walk(g, q)
            ref = oracle_walk(g, q)
            shortest = q.mode != "exact"
            if (mine is None) != (ref is None):
                failures.append((trial, q))
            elif mine is not None and (
                (shortest and mine.length != ref.length)
                or verify_witness(g, q, mine.vertices, require_path=shortest and r <= 1)
                or verify_witness(g, q, ref.vertices)
            ):
                failures.append((trial, q, "witness"))
    verdict(9, not failures, f"1000 instances in three modes, {len(failures)} mismatches")
    assert not failures, failures[:5]


def test_criterion_10_every_yes_witness_passes_cli_verify(
    tmp_path, walk_runs, path_runs, detour_runs, phs_runs, sat_runs
):
    """Witness lines from criteria 1, 2, 3, 6 and 7 replay through the verifier."""
    yes_witnesses = [
        w for runs in (walk_runs, path_runs, detour_runs, phs_runs, sat_runs) for w in runs[1]
    ]
    assert yes_witnesses, "criteria 1, 2, 3, 6 and 7 found no YES witness"
    failures = 0
    inst = tmp_path / "inst.rainbow"
    for idx, (text, line, require_path) in enumerate(yes_witnesses):
        inst.write_text(text)
        argv = ["verify", str(inst), "--witness", line]
        if require_path:
            argv.append("--path")
        code, out, _ = helpers.run_cli(argv)
        if code != 0 or not out.startswith("VALID"):
            failures += 1
    verdict(10, failures == 0, f"{len(yes_witnesses)} witnesses replayed, {failures} rejected")
    assert failures == 0


def test_criterion_11_detour_witnesses_have_separator_structure(detour_runs):
    """Per-position distance bound and separator density on criterion 3's path-DP witnesses."""
    detours = detour_runs[2]
    assert detours, "criterion 3 found no YES witness"
    failures = 0
    for g, r, k, vertices in detours:
        d = g.dist_to_t
        dist = d[g.s]
        length = len(vertices) - 1
        if not (dist <= length <= dist + k):
            failures += 1
            continue
        # position index never outruns the distance drop plus the slack
        if any(i > dist - d[v] + k for i, v in enumerate(vertices)):
            failures += 1
            continue
        seps = distance_separators(vertices, d)
        if not seps or seps[-1] != len(vertices) - 1:
            failures += 1
            continue
        # every 2k+1 consecutive positions ending before the final
        # separator contain a separator
        sep_set = set(seps)
        width = 2 * k + 1
        for j in range(len(vertices)):
            end = j + width - 1
            if end >= seps[-1]:
                break
            if not any(i in sep_set for i in range(j, end + 1)):
                failures += 1
                break
    verdict(11, failures == 0, f"{len(detours)} witnesses, {failures} violations")
    assert failures == 0
