"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of each rainbowpaths layer with
wrappers that record a span (name, start, end, parent span, solve id) in
memory and fold it into per-layer totals as it closes. A span's self time
is its duration minus the time its child spans cover; calls run on one
thread, so children nest inside their parent and never overlap.

Names that a module imported by name are wrapped where they are looked up
(``cli.solve_path``, ``detour.segment_window_family``, ...); the kernels
are module attributes that repfam reads through ``_kernels.<name>``. A wrap
point that no longer exists is reported as missing instead of failing, so
a refactor that removes one only narrows the trace. The traced run lists
what is missing.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Any, Callable

LAYERS = ("cli", "instances", "core", "walk", "path", "detour", "repfam", "kernels")


class SolveTimeout(BaseException):
    """Raised by the deadline alarm inside a solve.

    Derives from BaseException so that no ``except Exception`` in the
    program swallows it. ``layer`` is set by the innermost traced wrapper
    the exception passes through.
    """

    def __init__(self) -> None:
        super().__init__("solve passed its deadline")
        self.layer: str | None = None


class Tracer:
    """Wraps layer functions and accumulates spans, self times and counts."""

    def __init__(self) -> None:
        self.solve_id = -1
        self.spans: list[tuple] = []
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._next_id = 0
        self._stack: list[list] = []  # [span id, children seconds]
        self._restore: list[tuple[Any, str, Callable]] = []

    def snapshot(self) -> dict:
        """Return and clear the totals gathered since the last snapshot."""
        totals = {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
        }
        self.self_s.clear()
        self.incl_s.clear()
        self.counts.clear()
        return totals

    def wrap(
        self,
        module: Any,
        attr: str,
        layer: str,
        span: str,
        count: Callable[[Counter, tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``count(counts, args, kwargs, result)`` runs after a successful
        call, outside the span, and adds the call's exact counts; if the
        call's signature has changed, the counts are reported as missing.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(module, '__name__', module)}.{attr}")
            return
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SolveTimeout as exc:
                if exc.layer is None:
                    exc.layer = layer
                    tracer.counts[f"{layer}.deadline_cuts"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - frame[1]
                tracer.incl_s[span] += duration
                tracer.counts[f"{span}.calls"] += 1
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((frame[0], span, start, end, parent, tracer.solve_id))
            if count is not None:
                try:
                    count(tracer.counts, args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    tracer.missing.append(f"{span} counts")
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        keys = ("id", "name", "start", "end", "parent", "solve")
        with open(path, "w") as out:
            for span in sorted(self.spans):
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _kernel_minors(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    vander, set_cols, coord_rows = args[:3]
    rows, p = set_cols.shape
    coords = coord_rows.shape[0]
    counts["kernels.minor_ops"] += rows * coords * p**3
    counts["kernels.bytes"] += vander.nbytes + set_cols.nbytes + coord_rows.nbytes + result.nbytes


def _kernel_basis(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    mat = args[0]
    rows, width = mat.shape
    counts["kernels.basis_rows"] += rows
    counts["kernels.basis_ops"] += rows * width
    counts["kernels.bytes"] += mat.nbytes + result.nbytes


def _unordered(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["repfam.rows_in"] += len(args[0])
    counts["repfam.rows_kept"] += len(result)


def _parsed(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["instances.parse_arcs"] += len(result[0].arcs)


# (module, attribute, layer, span name, exact-count hook)
WRAP_POINTS = (
    ("cli", "main", "cli", "cli.main", None),
    ("cli", "parse_instance", "instances", "instances.parse", _parsed),
    ("cli", "dist_from_source", "core", "core.bfs", None),
    ("walk", "dist_to_target", "core", "core.bfs", None),
    ("detour", "dist_to_target", "core", "core.bfs", None),
    ("cli", "solve_walk", "walk", "walk.solve", None),
    ("cli", "solve_walk_any_length", "walk", "walk.solve", None),
    ("cli", "solve_r1", "walk", "walk.solve", None),
    ("detour", "solve_walk", "walk", "walk.solve", None),
    ("walk", "prune_window_cell", "walk", "walk.prune", None),
    ("detour", "prune_window_cell", "walk", "walk.prune", None),
    ("cli", "solve_path", "path", "path.solve", None),
    ("cli", "solve_r2_symmetric", "path", "path.solve", None),
    ("detour", "segment_window_family", "path", "path.segment", None),
    ("cli", "solve_detour", "detour", "detour.solve", None),
    ("path", "partial_representative", "repfam", "repfam.partial", None),
    ("walk", "ordered_representative", "repfam", "repfam.ordered", None),
    ("repfam", "unordered_representative", "repfam", "repfam.unordered", _unordered),
    ("_kernels", "batch_minors", "kernels", "kernels.minors", _kernel_minors),
    ("_kernels", "greedy_row_basis", "kernels", "kernels.basis", _kernel_basis),
)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the importable ``rainbowpaths`` package."""
    for module_name, attr, layer, span, count in WRAP_POINTS:
        try:
            module = importlib.import_module(f"rainbowpaths.{module_name}")
        except ImportError:
            tracer.missing.append(f"rainbowpaths.{module_name}.{attr}")
            continue
        tracer.wrap(module, attr, layer, span, count)
