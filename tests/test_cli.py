"""Command line interface: exit codes, dispatch, and composition."""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import helpers
import rainbowpaths
from rainbowpaths import ColoredDigraph, Query, Witness, cli, dispatch, gen_random, write_instance
from rainbowpaths.cli import EXIT_ERROR, EXIT_NO, EXIT_YES, build_parser
from rainbowpaths.dispatch import SOLVERS


def write_tmp(tmp_path, g, q, name="inst.rainbow"):
    p = tmp_path / name
    p.write_text(write_instance(g, q))
    return str(p)


def test_solve_yes_exit_code(tmp_path):
    g = ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2)
    path = write_tmp(tmp_path, g, Query(1, 2, "atmost"))
    code, out, err = helpers.run_cli(["solve", path])
    assert code == EXIT_YES
    assert out == "YES 2 0 1 2\n"


def test_solve_no_exit_code(tmp_path):
    g = ColoredDigraph(3, (0, 0, 1), ((0, 1), (1, 2)), 0, 2)
    path = write_tmp(tmp_path, g, Query(1, 2, "atmost"))
    code, out, err = helpers.run_cli(["solve", path])
    assert code == EXIT_NO
    assert out == "NO\n"


def test_solve_missing_file_is_error(tmp_path):
    missing = str(tmp_path / "nope.rainbow")
    code, out, err = helpers.run_cli(["solve", missing])
    assert code == EXIT_ERROR
    assert out == "" and err.startswith("error: ") and missing in err, err


def test_solve_that_raises_is_an_error_not_a_no(tmp_path, monkeypatch):
    """A solve that fails, here for lack of memory, exits 2 with its traceback; 1 would read as NO."""
    path = write_tmp(tmp_path, ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2), Query(1, 2, "atmost"))

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "solve", out_of_memory)
    code, out, err = helpers.run_cli(["solve", path])
    assert code == EXIT_ERROR
    assert out == "" and err.startswith("Traceback ") and err.endswith("MemoryError\n"), err


def test_solve_verify_pipe(tmp_path):
    g, q = gen_random(7, 0.5, 3, 2, 6, seed=8)
    path = write_tmp(tmp_path, g, q)
    code, out, _ = helpers.run_cli(["solve", path])
    if code == EXIT_NO:
        return
    assert code == EXIT_YES
    code2, out2, _ = helpers.run_cli(["verify", path], stdin_text=out)
    assert code2 == EXIT_YES
    assert out2.startswith("VALID")


def test_verify_rejects_bad_witness(tmp_path):
    g = ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2)
    path = write_tmp(tmp_path, g, Query(1, 2, "atmost"))
    code, out, _ = helpers.run_cli(["verify", path, "--witness", "0 2"])
    assert code == EXIT_NO
    assert "INVALID" in out


def test_verify_checks_the_stated_length(tmp_path):
    g = ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2)
    path = write_tmp(tmp_path, g, Query(1, 2, "atmost"))
    assert helpers.run_cli(["verify", path, "--witness", "YES 2 0 1 2"])[0] == EXIT_YES
    for line, message in (
        ("YES 7 0 1 2", "says L = 7 but lists 3 vertices"),
        ("YES 1 0 1 2", "says L = 1 but lists 3 vertices"),
        ("YES x 0 1 2", "must be integers"),
    ):
        code, out, err = helpers.run_cli(["verify", path, "--witness", line])
        assert code == EXIT_ERROR, line
        assert out == "" and message in err, (line, err)


def test_verify_reads_witness_integers_with_the_file_grammar(tmp_path):
    g = ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2)
    path = write_tmp(tmp_path, g, Query(1, 2, "atmost"))
    assert helpers.run_cli(["verify", path, "--witness", "YES 02 0 01 2"])[0] == EXIT_YES
    # int() takes each of these, so they used to read as 0 1 2 or 0 10 2
    for line in ("+0 1 2", "YES +2 0 1 2", "0 1_0 2", "0 \u0661 2"):
        code, out, err = helpers.run_cli(["verify", path, "--witness", line])
        assert code == EXIT_ERROR, line
        assert out == "" and "witness length and vertices must be integers" in err, (line, err)


def test_verify_refuses_instance_and_witness_both_on_stdin():
    g = ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2)
    text = write_instance(g, Query(1, 2, "atmost"))
    code, out, err = helpers.run_cli(["verify", "-"], stdin_text=text)
    assert code == EXIT_ERROR
    assert out == "" and "pass the witness with --witness" in err, err
    assert helpers.run_cli(["verify", "-", "--witness", "0 1 2"], stdin_text=text)[0] == EXIT_YES


def test_verify_path_flag(tmp_path):
    g = ColoredDigraph(4, (0, 1, 2, 1), ((0, 1), (1, 2), (2, 0), (0, 3)), 0, 3)
    path = write_tmp(tmp_path, g, Query(2, 4, "atmost"))
    walk = "YES 4 0 1 2 0 3"
    assert helpers.run_cli(["verify", path, "--witness", walk])[0] == EXIT_YES
    assert helpers.run_cli(["verify", path, "--witness", walk, "--path"])[0] == EXIT_NO


def test_json_report_schema(tmp_path):
    g = ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2)
    path = write_tmp(tmp_path, g, Query(1, 2, "atmost"))
    code, out, _ = helpers.run_cli(["solve", path, "--json"])
    rep = json.loads(out)
    assert rep["report_version"] == 1
    assert rep["answer"] is True
    assert rep["witness"] == [0, 1, 2]
    assert rep["length"] == 2
    assert rep["solver"] == "walk-dp"
    assert rep["query"] == {"r": 1, "ell": 2, "mode": "atmost"}
    assert "elapsed_ms" in rep and "stats" in rep and "instance" in rep
    assert isinstance(rep["parse_ms"], float) and rep["parse_ms"] >= 0.0


def test_auto_dispatch_names(tmp_path):
    detour_g = ColoredDigraph(4, (0, 1, 2, 0), ((0, 1), (1, 3), (0, 2), (2, 1)), 0, 3)
    cases = [
        (ColoredDigraph(3, (0, 0, 0), ((0, 1), (1, 2)), 0, 2), Query(0, 2, "atmost"), "walk-dp"),
        (ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2), Query(1, 5, "any"), "walk-dp"),
        (ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2), Query(1, 3, "exact"), "path-dp"),
        (ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2), Query(3, 2, "atmost"), "walk-dp"),
        (detour_g, Query(2, 3, "atmost"), "path-dp"),
        (detour_g, Query(2, 3, "exact"), "path-dp"),
    ]
    for idx, (g, q, expect) in enumerate(cases):
        path = write_tmp(tmp_path, g, q, name=f"case{idx}.rainbow")
        _, out, _ = helpers.run_cli(["solve", path, "--json"])
        assert json.loads(out)["solver"] == expect, (idx, expect)


def test_auto_sends_the_distance_budget_to_walk_dp(tmp_path):
    # a symmetric graph with no monochromatic arc at r = 2 and the distance: the walk DP answers it
    g = ColoredDigraph(4, (0, 1, 2, 0), ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)), 0, 3)
    path = write_tmp(tmp_path, g, Query(2, 3, "atmost"))
    _, out, _ = helpers.run_cli(["solve", path, "--json"])
    rep = json.loads(out)
    assert rep["solver"] == "walk-dp"
    assert rep["answer"] is True


def test_forced_solver_refusals(tmp_path):
    # radius-1 and any-length walks have no solver name of their own: they run as "walk"
    g = ColoredDigraph(4, (0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)), 0, 3)
    path = write_tmp(tmp_path, g, Query(2, 2, "atmost"))
    for command in ("solve", "crosscheck"):
        for name in ("r1", "any-walk"):
            assert helpers.run_cli([command, path, "--solver", name])[0] == EXIT_ERROR
        assert helpers.run_cli([command, path, "--bogus"])[0] == EXIT_ERROR
        assert helpers.run_cli([command, "--help"])[0] == EXIT_YES


def test_json_stats_when_the_distance_gate_refuses_s(tmp_path):
    # t is 3 arcs from s, so a budget of 2 stops either DP before its first level
    g = ColoredDigraph(4, (0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)), 0, 3)
    path = write_tmp(tmp_path, g, Query(2, 2, "atmost"))
    for solver, total in (("walk", "total_windows"), ("path", "total_members")):
        code, out, _ = helpers.run_cli(["solve", path, "--solver", solver, "--json"])
        assert code == EXIT_NO
        assert json.loads(out)["stats"] == {"levels": 0, total: 0}, solver
    # no path has more than n - 1 arcs, so an exact budget of 5 on 3 vertices stops the path search too
    g = ColoredDigraph(3, (0, 1, 2), ((0, 1), (1, 2)), 0, 2)
    path = write_tmp(tmp_path, g, Query(2, 5, "exact"), name="long.rainbow")
    code, out, _ = helpers.run_cli(["solve", path, "--json"])
    assert code == EXIT_NO
    report = json.loads(out)
    assert (report["solver"], report["stats"]) == ("path-dp", {"levels": 0, "total_members": 0})


def test_radii_past_the_float_range_get_an_answer(tmp_path):
    """Radii from 123 on overflow ordered_bound's float, and 10**20 fits no list; both answer."""
    yes = ColoredDigraph(2, (0, 1), ((0, 1),), 0, 1)
    # the only s-t walk of up to 3 arcs repeats color 0 four vertices apart
    no = ColoredDigraph(4, (0, 1, 2, 0), ((0, 1), (1, 2), (2, 3)), 0, 3)
    for r in (123, 200, 10**20):
        for g, ell, want in ((yes, 1, EXIT_YES), (no, 3, EXIT_NO)):
            for mode in ("atmost", "exact", "any"):
                path = write_tmp(tmp_path, g, Query(r, ell, mode))
                for forced in ([], ["--solver", "walk"], ["--solver", "path"]):
                    code, _, err = helpers.run_cli(["solve", path, *forced])
                    assert (code, err) == (want, ""), (r, g.n, mode, forced)


def test_exports_and_solver_choices_are_current():
    for name in rainbowpaths.__all__:
        assert hasattr(rainbowpaths, name), name
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def solver_choices(command):
        return list(next(a for a in commands.choices[command]._actions if a.dest == "solver").choices)

    assert solver_choices("solve") == list(SOLVERS)
    assert solver_choices("crosscheck") == [n for n in SOLVERS if n not in ("oracle", "oracle-path")]


def test_crosscheck_agreement(tmp_path):
    g, q = gen_random(6, 0.4, 3, 2, 5, seed=12)
    path = write_tmp(tmp_path, g, q)
    code, out, _ = helpers.run_cli(["crosscheck", path])
    assert "AGREE" in out
    code, out, _ = helpers.run_cli(["crosscheck", path, "--solver", "walk"])
    assert "AGREE" in out


def test_crosscheck_replays_the_solver_witness(tmp_path, monkeypatch):
    """A witness the solver gets wrong is INVALID, even when the oracle's answer agrees with it."""
    # 0 -> 1 -> 2 -> 0 -> 3 is a locally rainbow walk, but not a path, and 0 -> 3 is a path
    g = ColoredDigraph(4, (0, 1, 2, 1), ((0, 1), (1, 2), (2, 0), (0, 3)), 0, 3)
    path = write_tmp(tmp_path, g, Query(2, 4, "atmost"))
    monkeypatch.setattr(dispatch, "solve_path", lambda g, q, stats=None: Witness((0, 1, 2, 0, 3)))
    code, out, _ = helpers.run_cli(["crosscheck", path])
    assert code == EXIT_NO
    assert "solver path-dp: YES" in out and "INVALID: vertices repeat" in out and "AGREE" not in out
    monkeypatch.setattr(dispatch, "solve_walk", lambda g, q, stats=None: Witness((0, 2, 0, 3)))
    code, out, _ = helpers.run_cli(["crosscheck", path, "--solver", "walk"])
    assert code == EXIT_NO
    assert "INVALID: missing arc (0, 2)" in out and "AGREE" not in out
    # auto asks the path question even where its walk DP answers: at r = 1 with slack
    path = write_tmp(tmp_path, g, Query(1, 4, "atmost"), "r1.rainbow")
    monkeypatch.setattr(dispatch, "solve_walk", lambda g, q, stats=None: Witness((0, 1, 2, 0, 3)))
    code, out, _ = helpers.run_cli(["crosscheck", path])
    assert code == EXIT_NO
    assert "solver walk-dp: YES" in out and "INVALID: vertices repeat" in out and "AGREE" not in out


def test_path_oracle_answers_a_path_past_the_recursion_limit(tmp_path):
    """A 1,500-vertex chain: its one s-t path is longer than the default recursion limit of 1,000."""
    n = 1500
    g = ColoredDigraph(n, tuple(i % 5 for i in range(n)), tuple((i, i + 1) for i in range(n - 1)), 0, n - 1)
    path = write_tmp(tmp_path, g, Query(2, n, "atmost"))
    code, out, err = helpers.run_cli(["crosscheck", path])
    assert (code, err) == (EXIT_YES, ""), err
    assert "solver path-dp: YES" in out and "AGREE" in out
    code, out, err = helpers.run_cli(["solve", path, "--solver", "oracle-path"])
    assert (code, err) == (EXIT_YES, "")
    assert out == f"YES {n - 1} " + " ".join(map(str, range(n))) + "\n"


def test_walk_solver_on_any_query(tmp_path):
    # the walk must loop 1 -> 2 -> 3 -> 1 before color 0 may follow at radius 2
    g = ColoredDigraph(5, (0, 1, 2, 3, 0), ((0, 1), (1, 2), (2, 3), (3, 1), (1, 4)), 0, 4)
    path = write_tmp(tmp_path, g, Query(2, 0, "any"))
    code, out, _ = helpers.run_cli(["solve", path, "--solver", "walk", "--json"])
    rep = json.loads(out)
    assert code == EXIT_YES
    assert rep["solver"] == "walk-dp"
    assert rep["witness"] == [0, 1, 2, 3, 1, 4]
    assert {"levels", "total_windows"} <= set(rep["stats"])
    code, out, _ = helpers.run_cli(["solve", path, "--solver", "oracle", "--json"])
    oracle_rep = json.loads(out)
    assert code == EXIT_YES
    assert oracle_rep["solver"] == "oracle-walk"
    assert (oracle_rep["answer"], oracle_rep["length"]) == (rep["answer"], rep["length"])
    code, out, _ = helpers.run_cli(["crosscheck", path, "--solver", "walk"])
    assert code == EXIT_YES and "AGREE" in out
    code, out, _ = helpers.run_cli(["solve", path, "--solver", "walk"])
    assert helpers.run_cli(["verify", path, "--witness", out])[0] == EXIT_YES


def test_generate_random_is_deterministic():
    argv = [
        "generate", "random", "--n", "6", "--arc-probability", "0.4",
        "--colors", "3", "--r", "2", "--ell", "5", "--seed", "9",
    ]
    a = helpers.run_cli(argv)
    b = helpers.run_cli(argv)
    assert a == b
    assert a[1].startswith("rainbow 1\n")


def test_generate_then_solve(tmp_path):
    out_file = tmp_path / "gen.rainbow"
    code, _, _ = helpers.run_cli([
        "generate", "random", "--n", "6", "--arc-probability", "0.5",
        "--colors", "3", "--r", "1", "--ell", "5", "--seed", "4",
        "--output", str(out_file),
    ])
    assert code == EXIT_YES
    code, out, _ = helpers.run_cli(["solve", str(out_file)])
    assert code in (EXIT_YES, EXIT_NO)
    # a file that cannot be written is an error of one line, not a traceback
    unwritable = str(tmp_path / "missing" / "gen.rainbow")
    code, out, err = helpers.run_cli([
        "generate", "random", "--n", "6", "--arc-probability", "0.5",
        "--colors", "3", "--r", "1", "--ell", "5", "--seed", "4",
        "--output", unwritable,
    ])
    assert code == EXIT_ERROR
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and unwritable in err, err
    assert "Traceback" not in err


def test_generate_sat_rejects_imbalanced_cnf(tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 3 4\n1 2 3 0\n1 2 3 0\n1 2 3 0\n-1 -2 -3 0\n")
    code, _, err = helpers.run_cli(["generate", "sat", "--file", str(bad)])
    assert code == EXIT_ERROR
    assert "2+/2-" in err
    bad.write_text("p cnf 3 4\n1 2 x 0\n")
    code, _, err = helpers.run_cli(["generate", "sat", "--file", str(bad)])
    assert code == EXIT_ERROR
    assert err == "error: line 2: expected integer literals, got '1 2 x 0'\n"
    bad.write_text("p cnf 0 0\n")
    code, _, err = helpers.run_cli(["generate", "sat", "--file", str(bad)])
    assert (code, err) == (EXIT_ERROR, "error: at least one clause is required\n")


def test_generate_phs(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text("2\n1 1\n2 2\n")
    out_file = tmp_path / "phs.rainbow"
    code, _, _ = helpers.run_cli(["generate", "phs", "--file", str(fam), "--output", str(out_file)])
    assert code == EXIT_YES
    code, out, _ = helpers.run_cli(["solve", str(out_file)])
    assert code == EXIT_YES


def test_generate_phs_three_family_hit(tmp_path):
    """A 3x3 family collection hit by the assignment 1->2, 2->1, 3->3."""
    fam = tmp_path / "fam.txt"
    fam.write_text("3\n1 2 2 2\n1 1 2 2 2 3 3 3\n2 1 3 1 3 2\n")
    out_file = tmp_path / "phs.rainbow"
    code, _, _ = helpers.run_cli(["generate", "phs", "--file", str(fam), "--output", str(out_file)])
    assert code == EXIT_YES
    code, out, _ = helpers.run_cli(["solve", str(out_file)])
    assert code == EXIT_YES
    assert out.startswith("YES 12 ")
    code2, out2, _ = helpers.run_cli(["verify", str(out_file), "--path"], stdin_text=out)
    assert code2 == EXIT_YES
    assert out2.startswith("VALID path witness")


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    """Run the interpreter with ``args`` in a new process that imports the package from this tree."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def without_times(out: str) -> str:
    if not out.startswith("{"):
        return out
    rep = json.loads(out)
    del rep["parse_ms"], rep["elapsed_ms"]
    return json.dumps(rep, sort_keys=True)


def test_main_is_reusable_in_one_process(tmp_path, monkeypatch):
    """Repeated in-process calls print what a first call in a fresh interpreter prints."""
    monkeypatch.setenv("COLUMNS", "80")
    yes = write_tmp(tmp_path, ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2), Query(1, 2, "atmost"), "yes.rainbow")
    no = write_tmp(tmp_path, ColoredDigraph(3, (0, 0, 1), ((0, 1), (1, 2)), 0, 2), Query(1, 2, "atmost"), "no.rainbow")
    calls = [
        (["solve", yes, "--solver", "nope"], EXIT_ERROR),
        (["solve", "--help"], EXIT_YES),
        (["solve", yes, "--json"], EXIT_YES),
        (["solve", no, "--json"], EXIT_NO),
        (["solve", yes, "--json"], EXIT_YES),
    ]
    for argv, want in calls:
        code, out, err = helpers.run_cli(argv)
        first = run_fresh(["-m", "rainbowpaths.cli", *argv])
        assert code == first.returncode == want, argv
        assert without_times(out) == without_times(first.stdout), argv
        assert err == first.stderr, argv
    assert build_parser() is build_parser()
    probe = run_fresh(["-c", "import rainbowpaths.cli as cli; print(cli.build_parser.cache_info().currsize)"])
    assert probe.stdout.strip() == "0", probe.stderr


def test_import_leaves_numpy_unloaded():
    """The CLI and every solver it imports run on the standard library alone."""
    done = run_fresh(["-c", "import sys, rainbowpaths.cli; print('numpy' in sys.modules)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_solve_reports_a_malformed_instance(tmp_path):
    path = tmp_path / "bad.rainbow"
    path.write_text("rainbow 1\n2 x\n")
    code, out, err = helpers.run_cli(["solve", str(path)])
    assert code == EXIT_ERROR
    assert out == "" and err == "error: bad instance: line 2: expected 'n m', got '2 x'\n"


def test_verify_refuses_witness_lines_it_cannot_read(tmp_path):
    g = ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2)
    path = write_tmp(tmp_path, g, Query(1, 2, "atmost"))
    for line, message in (
        ("", "empty witness"),
        ("NO", "answer line says NO; nothing to verify"),
        ("YES 2", "malformed witness line; want 'YES L v0 ... vL'"),
        ("YES 2 0 x 2", "witness length and vertices must be integers"),
    ):
        code, out, err = helpers.run_cli(["verify", path, "--witness", line])
        assert code == EXIT_ERROR, line
        assert out == "" and err == f"error: {message}\n", (line, err)


def test_crosscheck_reports_an_oracle_refusal(tmp_path):
    # 20 vertices of 20 colors at r = 6: far past the walk oracle's state ceiling
    n = 20
    g = ColoredDigraph(n, tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)), 0, n - 1)
    path = write_tmp(tmp_path, g, Query(6, n - 1, "atmost"))
    code, out, err = helpers.run_cli(["crosscheck", path, "--solver", "walk"])
    assert code == EXIT_ERROR
    assert out == "solver walk-dp: YES\n"
    assert err.startswith("error: oracle refused: product state space "), err


def test_crosscheck_reports_a_disagreement(tmp_path, monkeypatch):
    g = ColoredDigraph(3, (0, 1, 0), ((0, 1), (1, 2)), 0, 2)
    path = write_tmp(tmp_path, g, Query(1, 2, "atmost"))
    solve = cli.solve

    def says_no(g, q, name):  # the solver under test says NO; the oracles run as they are
        return solve(g, q, name) if name.startswith("oracle") else (None, "walk-dp")

    monkeypatch.setattr(cli, "solve", says_no)
    code, out, _ = helpers.run_cli(["crosscheck", path])
    assert code == EXIT_NO
    assert out == "solver walk-dp: NO\noracle oracle-path: YES\nDISAGREE\n"
