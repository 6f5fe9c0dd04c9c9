"""Command line interface: argument parsing, file reading and output.

Subcommands: solve (answer a query through ``dispatch.solve``), generate
(emit instance files), verify (check a witness against an instance), and
crosscheck (run a solver, replay its witness, and compare its answer with
a brute-force oracle's). The default solve output is a single witness
line that verify can read back, so the two commands compose through a
pipe. ``main`` alone turns a failure into exit 2, never NO's exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from pathlib import Path

from .core import MODES, ColoredDigraph, Query, verify_witness
from .dispatch import SOLVERS, solve
from .instances import (
    _ints,
    gen_3sat_instance,
    gen_phs_instance,
    gen_random,
    parse_instance,
    read_dimacs,
    read_phs_sets,
    write_instance,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_instance(path: str) -> tuple[ColoredDigraph, Query]:
    try:
        return parse_instance(_read_text(path))
    except ValueError as exc:
        raise ValueError(f"bad instance: {exc}") from None


def cmd_solve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g, query = _load_instance(args.instance)
    parse_ms = (time.perf_counter() - started) * 1000.0
    stats: dict = {}
    started = time.perf_counter()
    witness, name = solve(g, query, args.solver, stats=stats)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.json:
        report = {
            "report_version": 1,
            "instance": {"n": g.n, "arcs": len(g.arcs), "s": g.s, "t": g.t},
            "query": {"r": query.r, "ell": query.ell, "mode": query.mode},
            "answer": witness is not None,
            "witness": list(witness.vertices) if witness else None,
            "length": witness.length if witness else None,
            "solver": name,
            "parse_ms": parse_ms,
            "elapsed_ms": elapsed_ms,
            "stats": stats,
        }
        print(json.dumps(report, sort_keys=True))
    elif witness is None:
        print("NO")
    else:
        print(f"YES {witness.length} " + " ".join(str(v) for v in witness.vertices))
    return EXIT_YES if witness is not None else EXIT_NO


def _parse_witness_tokens(tokens: list[str]) -> tuple[int, ...]:
    if not tokens:
        raise ValueError("empty witness")
    if tokens[0].upper() == "NO":
        raise ValueError("answer line says NO; nothing to verify")
    stated = tokens[0].upper() == "YES"
    if stated:
        if len(tokens) < 3:
            raise ValueError("malformed witness line; want 'YES L v0 ... vL'")
        tokens = tokens[1:]
    try:
        numbers = _ints(tokens)
    except ValueError:
        raise ValueError("witness length and vertices must be integers") from None
    if stated:
        length, *numbers = numbers
        if length != len(numbers) - 1:
            raise ValueError(f"witness line says L = {length} but lists {len(numbers)} vertices")
    return tuple(numbers)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.instance == "-" and args.witness is None:
        raise ValueError("verify - reads the instance from stdin; pass the witness with --witness")
    g, query = _load_instance(args.instance)
    raw = args.witness if args.witness is not None else sys.stdin.read()
    vertices = _parse_witness_tokens(raw.split())
    problems = verify_witness(g, query, vertices, require_path=args.path)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return EXIT_NO
    kind = "path" if args.path else "walk"
    print(f"VALID {kind} witness, length {len(vertices) - 1}")
    return EXIT_YES


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "random":
        g, query = gen_random(
            args.n, args.arc_probability, args.colors, args.r, args.ell, args.seed, args.mode
        )
    elif args.kind == "phs":
        g, query = gen_phs_instance(read_phs_sets(_read_text(args.file)))
    else:
        g, query = gen_3sat_instance(read_dimacs(_read_text(args.file)))
    text = write_instance(g, query)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return EXIT_YES


def cmd_crosscheck(args: argparse.Namespace) -> int:
    g, query = _load_instance(args.instance)
    witness, name = solve(g, query, args.solver)
    # forced "walk" asks the walk question; "auto" and "path" ask the path question
    walk_semantics = args.solver == "walk"
    print(f"solver {name}: {'YES' if witness else 'NO'}")
    if witness is not None:
        problems = verify_witness(g, query, witness.vertices, require_path=not walk_semantics)
        for problem in problems:
            print(f"INVALID: {problem}")
        if problems:
            return EXIT_NO
    try:
        reference, oracle_name = solve(g, query, "oracle" if walk_semantics else "oracle-path")
    except ValueError as exc:
        raise ValueError(f"oracle refused: {exc}") from None
    print(f"oracle {oracle_name}: {'YES' if reference else 'NO'}")
    if (witness is None) == (reference is None):
        print("AGREE")
        return EXIT_YES
    print("DISAGREE")
    return EXIT_NO


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Building it takes longer than most solves, and ``main`` may run many
    times in one process. Importing this module builds nothing.
    """
    parser = argparse.ArgumentParser(
        prog="rainbowpaths",
        description="Solvers for locally rainbow walks and paths in vertex-colored digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file ('-' for stdin)")
    solve.add_argument("instance")
    solve.add_argument("--solver", default="auto", choices=SOLVERS)
    solve.add_argument("--json", action="store_true", help="emit a JSON run report")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a witness (stdin or --witness)")
    verify.add_argument("instance")
    verify.add_argument("--witness", help="vertex ids, or a full 'YES L ...' line")
    verify.add_argument("--path", action="store_true", help="also require simplicity")
    verify.set_defaults(func=cmd_verify)

    generate = sub.add_parser("generate", help="emit an instance file")
    generate.set_defaults(func=cmd_generate)
    gen_sub = generate.add_subparsers(dest="kind", required=True)
    g_random = gen_sub.add_parser("random")
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--arc-probability", type=float, required=True)
    g_random.add_argument("--colors", type=int, required=True)
    g_random.add_argument("--r", type=int, required=True)
    g_random.add_argument("--ell", type=int, required=True)
    g_random.add_argument("--seed", type=int, required=True)
    g_random.add_argument("--mode", default="atmost", choices=MODES)
    g_random.add_argument("--output", default="-")
    g_phs = gen_sub.add_parser("phs")
    g_phs.add_argument("--file", required=True, help="pair families, one per line")
    g_phs.add_argument("--output", default="-")
    g_sat = gen_sub.add_parser("sat")
    g_sat.add_argument("--file", required=True, help="DIMACS CNF, 2+/2- occurrences per variable")
    g_sat.add_argument("--output", default="-")

    crosscheck = sub.add_parser("crosscheck", help="compare a solver against an oracle")
    crosscheck.add_argument("instance")
    crosscheck.add_argument(
        "--solver",
        default="auto",
        choices=[name for name in SOLVERS if not name.startswith("oracle")],
    )
    crosscheck.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 after a usage error
        return exc.code
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception:  # a fault of the program: show where it happened
        traceback.print_exc()
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
