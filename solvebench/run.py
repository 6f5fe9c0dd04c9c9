"""End-to-end solve benchmark for rainbowpaths, with a per-layer trace.

One closed-loop client (one process, one thread) calls
``rainbowpaths.cli.main(["solve", <file>, "--json", ...])`` in-process on
instance files generated from the workload seed, one solve after the
other, and times each call from entry to the printed JSON report. Every
answer is checked outside the timed region: against a brute-force oracle,
and every YES witness with ``verify_witness`` (as a path where the
question asks for one). The checks need only ``answer``, ``witness`` and
``solver`` from the report, and solver ``stats`` are summed where present,
so refactors of the solvers leave the benchmark intact.

Usage, from the repository root:

    python3 solvebench/run.py                       # every workload, both runs
    python3 solvebench/run.py --workload walk --seed 3 --seconds 30 --trace 0
    python3 solvebench/run.py --record              # re-record expected.json

End-to-end times are speed-adjusted by a reference loop timed before each
solve (see calibrate.py), so that the speed swings of a shared machine do
not drown the program's own; the raw wall-clock figures are printed with a
``_raw`` suffix. ``solves_per_s`` counts correct solves per second of solve
time. ``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is the
separate traced run: it alternates untraced and traced passes over the
pool and reports per-layer metrics per traced pass, plus the tracing
overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
report and the spans go to ``.solvebench_out/``. A wrong answer or an
invalid witness makes the command exit with code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import calibrate
import layertrace

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".solvebench_out"
WORK_DIR = ROOT / ".solvebench_work"

WORKLOADS = ("walk", "path", "detour", "path-cliff")
DEFAULT_SEED = 0
# A solve still running after this many seconds ends as a timeout and
# counts as failed; the path-cliff prunes are meant to hit it.
DEADLINE_S = 5.0
SETUP_SAMPLES = 7
# p90 needs ten samples beyond it
MIN_PERCENTILE_SAMPLES = 100
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
# solver name in the JSON report -> layer whose stats it fills; other
# solvers' stats are summed under their own name
SOLVER_LAYER = {"walk-dp": "walk", "path-dp": "path", "detour-dp": "detour"}


class SetupError(Exception):
    """The checkout cannot run the benchmark; exit 2 without a result."""


def _import_program():
    if not (SRC / "rainbowpaths" / "cli.py").is_file():
        raise SetupError(f"no rainbowpaths package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import rainbowpaths.cli as cli  # noqa: PLC0415

    return cli


def measure_setup_s() -> tuple[float, float]:
    """Median time for a fresh interpreter to import rainbowpaths.cli: raw, speed-adjusted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def probe(module: str) -> float:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(module)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return float(done.stdout.split()[-1])

    # the first probe also writes the bytecode cache, so it is not counted
    probe("rainbowpaths.cli")
    program, numpy = [], []
    for _ in range(SETUP_SAMPLES):
        program.append(probe("rainbowpaths.cli"))
        numpy.append(probe("numpy"))
    raw = statistics.median(program)
    return raw, raw * calibrate.NUMPY_IMPORT_NOMINAL_S / statistics.median(numpy)


def _on_alarm(signum, frame):
    raise layertrace.SolveTimeout()


class Client:
    """The closed-loop client: solves one instance file at a time and checks it."""

    def __init__(self, name, cli, pool, files, traced_prefix):
        self.name = name
        self.traced_prefix = traced_prefix
        self.cli = cli
        self.pool = pool
        self.files = files

    def solve(self, index: int) -> dict:
        """Run one timed solve, then check it; returns the outcome record."""
        inst = self.pool[index]
        argv = ["solve", self.files[index], "--json", *inst.args]
        buf = io.StringIO()
        outcome = {"instance": inst.name, "ref_s": calibrate.reference_seconds()}
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            try:
                with contextlib.redirect_stdout(buf):
                    self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome["latency_s"] = time.perf_counter() - start
        except layertrace.SolveTimeout as exc:
            outcome.update(latency_s=time.perf_counter() - start, status="timeout", cut=exc.layer)
            return outcome
        except Exception as exc:  # a crash is a failed solve, not a benchmark crash
            outcome.update(latency_s=time.perf_counter() - start, status="raised", error=repr(exc))
            return outcome
        outcome.update(self._check(inst, buf.getvalue()))
        return outcome

    @staticmethod
    def _check(inst, printed: str) -> dict:
        """A YES is proved by its witness; a NO is checked against the true answer."""
        from rainbowpaths import verify_witness  # noqa: PLC0415

        try:
            report = json.loads(printed.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {"status": "raised", "error": "no JSON report printed"}
        result = {"solver": report.get("solver"), "stats": report.get("stats") or {}}
        answer = report.get("answer")
        if answer is True:
            problems = verify_witness(
                inst.graph,
                inst.query,
                report.get("witness") or [],
                require_path=inst.semantics == "path",
            )
            result["status"] = "invalid" if problems else "ok"
            if problems:
                result["error"] = "; ".join(problems)
        elif answer is False and not inst.expected():
            result["status"] = "ok"
        else:
            result.update(status="wrong", error=f"answer {answer!r}, expected {inst.expected()}")
        return result


def _exact_counts(outcomes: list[dict]) -> dict:
    """Dispatch counts and summed solver stats over one pass of the pool."""
    counts: Counter = Counter()
    for out in outcomes:
        solver = out.get("solver")
        if solver is None:
            continue
        counts[f"dispatch.{solver}"] += 1
        layer = SOLVER_LAYER.get(solver, solver)
        for key, value in out["stats"].items():
            if not isinstance(value, int):
                continue
            name = f"{layer}.stats.{key}"
            counts[name] = max(counts[name], value) if key == "max_cell" else counts[name] + value
    return dict(sorted(counts.items()))


def _latency_sums(outcomes: list[dict]) -> tuple[float, float]:
    """Total solve time of some outcomes: raw and speed-adjusted."""
    raw = [o["latency_s"] for o in outcomes]
    return sum(raw), sum(calibrate.adjust(raw, [o["ref_s"] for o in outcomes]))


def run_timed(client: Client, seconds: float) -> tuple[dict, list[dict], dict]:
    """The untraced closed loop; returns end-to-end metrics, outcomes, exact counts."""
    outcomes = []
    n = len(client.pool)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        outcomes.append(client.solve(len(outcomes) % n))
    raw = [o["latency_s"] for o in outcomes]
    adjusted = calibrate.adjust(raw, [o["ref_s"] for o in outcomes])
    ok = sum(o["status"] == "ok" for o in outcomes)
    metrics = {}
    for suffix, latencies in (("", adjusted), ("_raw", raw)):
        metrics["solves_per_s" + suffix] = (ok / sum(latencies), "1/s")
        if len(latencies) >= MIN_PERCENTILE_SAMPLES:
            ms = [x * 1000.0 for x in latencies]
            metrics["solve_p50_ms" + suffix] = (statistics.median(ms), "ms")
            metrics["solve_p90_ms" + suffix] = (statistics.quantiles(ms, n=10)[8], "ms")
    metrics["failed_frac"] = ((len(outcomes) - ok) / len(outcomes), "fraction")
    extra = {"solves": len(outcomes)}
    if len(outcomes) >= client.traced_prefix:
        extra["exact"] = _exact_counts(outcomes[: client.traced_prefix])
    return metrics, outcomes, extra


def run_traced(client: Client, seconds: float) -> tuple[dict, list[dict], dict]:
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    tracer = layertrace.Tracer()
    n = client.traced_prefix
    plain, traced, snaps, outcomes = [], [], [], []
    start = time.perf_counter()
    while not snaps or (time.perf_counter() - start) * (len(snaps) + 1) / len(snaps) <= seconds:
        passed = [client.solve(i) for i in range(n)]
        plain.append(_latency_sums(passed))
        outcomes.extend(passed)
        layertrace.install(tracer)
        passed = []
        try:
            for i in range(n):
                tracer.solve_id = len(outcomes) + i
                passed.append(client.solve(i))
        finally:
            tracer.uninstall()
        traced.append(_latency_sums(passed))
        outcomes.extend(passed)
        snap = tracer.snapshot()
        snap["exact"] = _exact_counts(passed)
        snaps.append(snap)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(str(OUT_DIR / f"{client.name}.spans.jsonl"))
    metrics = _layer_metrics(snaps)
    overhead = sum(t[1] for t in traced) / sum(p[1] for p in plain) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    metrics["trace.pass_s"] = (statistics.mean(t[0] for t in traced), "s")
    metrics["trace.untraced_pass_s"] = (statistics.mean(p[0] for p in plain), "s")
    extra = {"traced_passes": len(snaps), "missing": sorted(set(tracer.missing))}
    extra["exact"] = snaps[0]["exact"]
    return metrics, outcomes, extra


def _layer_metrics(snaps: list[dict]) -> dict:
    """Times as the mean over traced passes; counts from the first traced pass."""
    def seconds(kind: str, key: str) -> float:
        return statistics.mean(s[kind].get(key, 0.0) for s in snaps)

    first = snaps[0]
    counts = Counter(first["counts"])
    exact = Counter(first["exact"])
    m: dict[str, tuple[float, str]] = {}
    m["cli.self_s"] = (seconds("self_s", "cli"), "s")
    for name in SOLVER_LAYER:
        m[f"cli.dispatch.{name}"] = (exact[f"dispatch.{name}"], "count")
    other = sum(v for k, v in exact.items() if k.startswith("dispatch.")) - sum(
        exact[f"dispatch.{name}"] for name in SOLVER_LAYER
    )
    m["cli.dispatch.other"] = (other, "count")
    m["instances.parse_s"] = (seconds("self_s", "instances"), "s")
    m["instances.parse_arcs"] = (counts["instances.parse_arcs"], "count")
    m["core.bfs_s"] = (seconds("self_s", "core"), "s")
    m["core.bfs_calls"] = (counts["core.bfs.calls"], "count")
    m["walk.self_s"] = (seconds("self_s", "walk"), "s")
    m["walk.prune_calls"] = (counts["walk.prune.calls"], "count")
    m["walk.prune_fired"] = (counts["repfam.ordered.calls"], "count")
    m["walk.windows"] = (exact["walk.stats.total_windows"], "count")
    m["walk.max_cell"] = (exact["walk.stats.max_cell"], "count")
    m["path.self_s"] = (seconds("self_s", "path"), "s")
    m["path.prune_fired"] = (counts["repfam.partial.calls"], "count")
    m["path.members"] = (exact["path.stats.total_members"], "count")
    m["path.max_cell"] = (exact["path.stats.max_cell"], "count")
    m["path.segment_calls"] = (counts["path.segment.calls"], "count")
    m["path.segment_s"] = (seconds("incl_s", "path.segment"), "s")
    m["detour.self_s"] = (seconds("self_s", "detour"), "s")
    m["detour.solve_calls"] = (counts["detour.solve.calls"], "count")
    m["repfam.self_s"] = (seconds("self_s", "repfam"), "s")
    m["repfam.ordered_calls"] = (counts["repfam.ordered.calls"], "count")
    m["repfam.unordered_calls"] = (counts["repfam.unordered.calls"], "count")
    m["repfam.rows_in"] = (counts["repfam.rows_in"], "count")
    m["repfam.rows_kept"] = (counts["repfam.rows_kept"], "count")
    m["kernels.minors_s"] = (seconds("incl_s", "kernels.minors"), "s")
    m["kernels.minor_ops"] = (counts["kernels.minor_ops"], "count")
    m["kernels.basis_s"] = (seconds("incl_s", "kernels.basis"), "s")
    m["kernels.basis_rows"] = (counts["kernels.basis_rows"], "count")
    m["kernels.basis_ops"] = (counts["kernels.basis_ops"], "count")
    m["kernels.bytes"] = (counts["kernels.bytes"], "B-computed")
    for layer in layertrace.LAYERS:
        m[f"{layer}.deadline_cuts"] = (counts[f"{layer}.deadline_cuts"], "count")
    return m


def run_workload(args: argparse.Namespace) -> int:
    cli = _import_program()
    import workloads  # noqa: PLC0415

    setup = measure_setup_s() if not args.trace else None
    pool = workloads.build_pool(args.workload, args.seed)
    if args.seed == DEFAULT_SEED:
        _apply_recorded(args.workload, pool)
    WORK_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        files = []
        for i, inst in enumerate(pool):
            path = os.path.join(tmp, f"{i:03d}-{inst.name}.rainbow")
            Path(path).write_text(inst.text)
            files.append(path)
        client = Client(
            f"{args.workload}-seed{args.seed}", cli, pool, files, workloads.POOLS[args.workload][2]
        )
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            # warm-up: one untimed solve of each instance kind
            first_of_kind: dict[str, int] = {}
            for i, inst in enumerate(pool):
                first_of_kind.setdefault(inst.name.rsplit("-", 1)[0], i)
            for i in first_of_kind.values():
                client.solve(i)
            if args.trace:
                metrics, outcomes, extra = run_traced(client, args.seconds)
            else:
                metrics, outcomes, extra = run_timed(client, args.seconds)
                metrics["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "MB",
                )
                metrics["setup_s"] = (setup[1], "s")
                metrics["setup_s_raw"] = (setup[0], "s")
        finally:
            signal.signal(signal.SIGALRM, previous)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return _report(args, pool, metrics, outcomes, extra)


def _report(args, pool, metrics, outcomes, extra) -> int:
    failures = [o for o in outcomes if o["status"] != "ok"]
    wrong = [o for o in failures if o["status"] in ("wrong", "invalid")]
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "deadline_s": DEADLINE_S,
        "instances": len(pool),
        "attempted": len(outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "failures": failures[:200],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True)
    )
    print(f"workload {args.workload}  seed {args.seed}  instances {len(pool)}  "
          f"attempted {len(outcomes)}  failed {len(failures)}  deadline {DEADLINE_S} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    for name, value in extra.get("exact", {}).items():
        print(f"  exact {name:40s} {value}")
    if extra.get("missing"):
        print("  missing from the trace: " + ", ".join(extra["missing"]))
    by_kind = Counter((o["status"], o.get("cut")) for o in failures)
    for (status, cut), count in sorted(by_kind.items(), key=str):
        print(f"  failed: {count} x {status}" + (f" (deadline cut in {cut})" if cut else ""))
    for o in wrong[:5]:
        print(f"  WRONG {o['instance']}: {o.get('error')}", file=sys.stderr)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in keys
            if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 1 if wrong else 0


def _apply_recorded(workload: str, pool) -> None:
    """Use the oracle answers recorded for the default seed, after checking the inputs."""
    import workloads  # noqa: PLC0415

    recorded = json.loads((HERE / "expected.json").read_text())["workloads"].get(workload)
    if recorded is None:
        raise SetupError(f"no recorded answers for workload {workload}")
    if recorded["digest"] != workloads.pool_digest(pool):
        raise SetupError(f"seed {DEFAULT_SEED} inputs of {workload} differ from expected.json")
    for inst, answer in zip(pool, recorded["answers"], strict=True):
        inst.recorded = answer == "Y"


def record(args: argparse.Namespace) -> int:
    """Write expected.json: every default-seed answer, from the brute-force oracles."""
    _import_program()
    import workloads  # noqa: PLC0415

    data = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        pool = workloads.build_pool(workload, DEFAULT_SEED)
        data["workloads"][workload] = {
            "digest": workloads.pool_digest(pool),
            "answers": "".join("Y" if inst.expected() else "N" for inst in pool),
        }
    (HERE / "expected.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded oracle answers for seed {DEFAULT_SEED} in {HERE / 'expected.json'}")
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced and traced, each run in its own process."""
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, timeout=900)
            worst = max(worst, done.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run with per-layer metrics")
    parser.add_argument("--record", action="store_true", help="re-record expected.json")
    args = parser.parse_args(argv)
    try:
        if args.record:
            return record(args)
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
