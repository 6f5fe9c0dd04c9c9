"""Instance construction, generation, and the on-disk format.

Two reductions produce hard instances: one encodes permutation hitting
into the walk problem on a layered grid graph (the locality radius grows
with the permutation size), the other encodes 3-SAT into the radius-2
path problem via vertex sharing between variable and clause gadgets.
Random instances and a small line-oriented file format round things out.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from .core import ColoredDigraph, Query, _check_ints

logger = logging.getLogger(__name__)

FORMAT_HEADER = "rainbow 1"
# deletes the characters of an integer token, leaving a canonical arc line's one space
_ID_CHARS = str.maketrans("", "", "0123456789-")


@dataclass(frozen=True)
class PHSInput:
    """Permutation hitting instance: families of (index, value) pairs over [1..k].

    A permutation phi of [1..k] hits a family when phi(i) = j for some
    pair (i, j) in it; the question is whether one permutation hits all
    families.
    """

    k: int
    sets: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        entries = [x for fam in self.sets for pair in fam for x in pair]
        _check_ints("k and pair entries", (self.k, *entries))
        if self.k < 1:
            raise ValueError("k must be at least 1")
        canon = tuple(tuple(sorted(set(fam))) for fam in self.sets)
        object.__setattr__(self, "sets", canon)
        for fam in canon:
            for (i, j) in fam:
                if not (1 <= i <= self.k and 1 <= j <= self.k):
                    raise ValueError(f"pair {(i, j)} outside [1..{self.k}]^2")

    def as_pair_sets(self) -> list[set[tuple[int, int]]]:
        return [set(fam) for fam in self.sets]


@dataclass(frozen=True)
class CnfInput:
    """3-CNF with every variable occurring exactly twice positively and twice negatively.

    Clauses are DIMACS-style literal triples over variables 1..n with
    three distinct variables per clause. The occurrence discipline is
    what the path reduction's vertex sharing relies on; violations raise.
    """

    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        canon = tuple(tuple(cl) for cl in self.clauses)
        object.__setattr__(self, "clauses", canon)
        if not canon:
            raise ValueError("at least one clause is required")
        pos: dict[int, int] = {}
        neg: dict[int, int] = {}
        for idx, clause in enumerate(canon, start=1):
            if len(clause) != 3:
                raise ValueError(f"clause {idx} has {len(clause)} literals, want 3")
            _check_ints("literals", clause)
            if 0 in clause:
                raise ValueError(f"clause {idx} contains a zero literal")
            if len({abs(lit) for lit in clause}) != 3:
                raise ValueError(f"clause {idx} repeats a variable")
            for lit in clause:
                side = pos if lit > 0 else neg
                side[abs(lit)] = side.get(abs(lit), 0) + 1
        variables = sorted(set(pos) | set(neg))
        if variables != list(range(1, len(variables) + 1)):
            raise ValueError("variables must be numbered consecutively from 1")
        for v in variables:
            if pos.get(v, 0) != 2 or neg.get(v, 0) != 2:
                raise ValueError(
                    f"variable {v} occurs {pos.get(v, 0)}+/{neg.get(v, 0)}-, want exactly 2+/2-"
                )

    @property
    def num_variables(self) -> int:
        return max((abs(lit) for cl in self.clauses for lit in cl), default=0)


def phs_layout(k: int, m: int) -> dict:
    """Vertex ids of the permutation-hitting construction.

    Returns a dict with "u" (a dict keyed by q in 1..m+1), and "v"/"w"
    (dicts keyed by (q, i, j), 1-based throughout).
    """
    u = {q: q - 1 for q in range(1, m + 2)}
    v: dict[tuple[int, int, int], int] = {}
    w: dict[tuple[int, int, int], int] = {}
    for q in range(1, m + 1):
        base = (m + 1) + (q - 1) * 2 * k * k
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                v[(q, i, j)] = base + (i - 1) * k + (j - 1)
                w[(q, i, j)] = base + k * k + (i - 1) * k + (j - 1)
    return {"u": u, "v": v, "w": w}


def gen_phs_instance(inp: PHSInput) -> tuple[ColoredDigraph, Query]:
    """Encode permutation hitting as a locally rainbow walk question.

    The graph is a chain of m grid segments between anchor vertices; a
    walk crosses a segment by reading off a permutation, one column per
    row, and the anchor color windows force every segment to read the
    same permutation. Entering the second grid copy requires a pair from
    that segment's family, so a compliant walk exists iff one permutation
    hits every family.

    Returns:
        The graph plus the query (radius k, length m*(k+1), mode atmost);
        every compliant walk has exactly that length.
    """
    k, m = inp.k, len(inp.sets)
    if m == 0:
        raise ValueError("at least one family is required")
    lay = phs_layout(k, m)
    u, v, w = lay["u"], lay["v"], lay["w"]
    n = (m + 1) + 2 * k * k * m
    colors = [0] * n
    for q in range(1, m + 2):
        colors[u[q]] = k
    for q in range(1, m + 1):
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                colors[v[(q, i, j)]] = j - 1
                colors[w[(q, i, j)]] = j - 1
    arcs: list[tuple[int, int]] = []
    for q in range(1, m + 1):
        fam = set(inp.sets[q - 1])
        for j in range(1, k + 1):
            arcs.append((u[q], v[(q, 1, j)]))
            if (1, j) in fam:
                arcs.append((u[q], w[(q, 1, j)]))
            arcs.append((w[(q, k, j)], u[q + 1]))
        for i in range(1, k):
            for j in range(1, k + 1):
                for jj in range(1, k + 1):
                    arcs.append((v[(q, i, j)], v[(q, i + 1, jj)]))
                    arcs.append((w[(q, i, j)], w[(q, i + 1, jj)]))
        for i in range(2, k + 1):
            for j in range(1, k + 1):
                if (i, j) in fam:
                    for jj in range(1, k + 1):
                        arcs.append((v[(q, i - 1, jj)], w[(q, i, j)]))
    g = ColoredDigraph(n, tuple(colors), tuple(arcs), u[1], u[m + 1])
    return g, Query(r=k, ell=m * (k + 1), mode="atmost")


def sat_layout(cnf: CnfInput) -> dict:
    """Vertex ids of the 3-SAT construction.

    Per variable i (1-based): "var" (entry), "pos1", "pos2", "neg1",
    "neg2" (branch internals), "join", "after_join", "exit". Globals
    "conn_a", "conn_b". Per clause j: "w" (chain, j in 1..m+1) and
    "fresh" keyed by (j, slot) for slot in 0..2.
    """
    n = cnf.num_variables
    m = len(cnf.clauses)
    names = ["var", "pos1", "pos2", "neg1", "neg2", "join", "after_join", "exit"]
    per_var = {
        (i, name): (i - 1) * 8 + off for i in range(1, n + 1) for off, name in enumerate(names)
    }
    conn_a = 8 * n
    conn_b = 8 * n + 1
    w = {j: 8 * n + 2 + (j - 1) for j in range(1, m + 2)}
    fresh_base = 8 * n + m + 3
    fresh = {
        (j, slot): fresh_base + (j - 1) * 3 + slot
        for j in range(1, m + 1)
        for slot in range(3)
    }
    return {"per_var": per_var, "conn_a": conn_a, "conn_b": conn_b, "w": w, "fresh": fresh}


def gen_3sat_instance(cnf: CnfInput) -> tuple[ColoredDigraph, Query]:
    """Encode a compliant 3-CNF as a radius-2 locally rainbow path question.

    Variable gadgets offer two three-step branches; the branch a path
    avoids marks the satisfying value. Clause gadgets are two-step
    bypasses whose one shared internal vertex sits on a variable branch:
    the bypass is usable iff that branch was avoided. A unique connector
    color separates the two phases. The path question at the returned
    exact-phase length is equivalent to satisfiability.
    """
    n = cnf.num_variables
    m = len(cnf.clauses)
    lay = sat_layout(cnf)
    per_var, w, fresh = lay["per_var"], lay["w"], lay["fresh"]
    conn_a, conn_b = lay["conn_a"], lay["conn_b"]
    total = 8 * n + 4 * m + 3
    colors = [0] * total  # var, join and the w chain keep color 0; the clauses color fresh
    for i in range(1, n + 1):
        colors[per_var[(i, "pos1")]] = 1
        colors[per_var[(i, "pos2")]] = 2
        colors[per_var[(i, "neg1")]] = 1
        colors[per_var[(i, "neg2")]] = 2
        colors[per_var[(i, "after_join")]] = 1
        colors[per_var[(i, "exit")]] = 2
    colors[conn_a] = 3
    colors[conn_b] = 1
    arcs: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        arcs.append((per_var[(i, "var")], per_var[(i, "pos1")]))
        arcs.append((per_var[(i, "pos1")], per_var[(i, "pos2")]))
        arcs.append((per_var[(i, "pos2")], per_var[(i, "join")]))
        arcs.append((per_var[(i, "var")], per_var[(i, "neg1")]))
        arcs.append((per_var[(i, "neg1")], per_var[(i, "neg2")]))
        arcs.append((per_var[(i, "neg2")], per_var[(i, "join")]))
        arcs.append((per_var[(i, "join")], per_var[(i, "after_join")]))
        arcs.append((per_var[(i, "after_join")], per_var[(i, "exit")]))
        nxt = per_var[(i + 1, "var")] if i < n else conn_a
        arcs.append((per_var[(i, "exit")], nxt))
    arcs.append((conn_a, conn_b))
    arcs.append((conn_b, w[1]))
    seen_occurrences: dict[int, int] = {}
    for j, clause in enumerate(cnf.clauses, start=1):
        for slot, lit in enumerate(clause):
            var = abs(lit)
            key = lit
            occ = seen_occurrences.get(key, 0) + 1
            seen_occurrences[key] = occ
            branch = "pos" if lit > 0 else "neg"
            shared = per_var[(var, f"{branch}{occ}")]
            spare = fresh[(j, slot)]
            if occ == 1:
                # shared vertex has color 1: it is the second hop of the bypass
                colors[spare] = 2
                first, second = spare, shared
            else:
                # shared vertex has color 2: it is the first hop of the bypass
                colors[spare] = 1
                first, second = shared, spare
            arcs.append((w[j], first))
            arcs.append((first, second))
            arcs.append((second, w[j + 1]))
    g = ColoredDigraph(
        total, tuple(colors), tuple(arcs), per_var[(1, "var")], w[m + 1]
    )
    return g, Query(r=2, ell=6 * n + 3 * m + 2, mode="atmost")


def gen_random(
    n: int,
    arc_probability: float,
    colors: int,
    r: int,
    ell: int,
    seed: int,
    mode: str = "atmost",
) -> tuple[ColoredDigraph, Query]:
    """Random instance: uniform vertex colors, independent arcs, s=0, t=n-1.

    Color labels are compacted to a dense range after sampling, so the
    effective palette may be smaller than requested.
    """
    _check_ints("n and colors", (n, colors))
    if n < 2:
        raise ValueError("need at least two vertices")
    if not 0.0 <= arc_probability <= 1.0:
        raise ValueError("arc_probability must lie in [0, 1]")
    if colors < 1:
        raise ValueError("need at least one color")
    rng = random.Random(seed)
    raw = [rng.randrange(colors) for _ in range(n)]
    relabel = {c: i for i, c in enumerate(sorted(set(raw)))}
    palette = tuple(relabel[c] for c in raw)
    arcs = tuple(
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < arc_probability
    )
    g = ColoredDigraph(n, palette, arcs, 0, n - 1)
    return g, Query(r=r, ell=ell, mode=mode)


def _ints(tokens: list[str]) -> list[int]:
    """Integer tokens of an input file, each an optional '-' then ASCII digits.

    ``int`` alone would also take '+1', '1_0' and non-ASCII digits, which
    ``write_instance`` never emits; those are looked for once, in the
    joined tokens. Raises ValueError on any other token; the caller names
    the line.
    """
    joined = "".join(tokens)
    if joined.isascii() and "+" not in joined and "_" not in joined:
        return list(map(int, tokens))
    raise ValueError(joined)


def _arcs(n: int, arc_lines: list[str]) -> tuple[tuple[int, int], ...] | None:
    """The arcs of arc lines in the shape ``write_instance`` emits, each at its first line; None otherwise.

    Each fact is checked once over all lines. The lines must be two runs
    of ASCII digits and '-' around one space, and are split in one pass
    over their join. Each token is looked up in a table of the ids "0" ..
    str(n - 1), which checks the integer grammar and the range together.
    Any other line shape or spelling ('01', '-0', a fault) gives None. The
    n self-loops are looked up in the arcs, not the arcs in the self-loops.
    """
    block = "\n".join(arc_lines)
    if block.translate(_ID_CHARS) != "\n".join([" "] * len(arc_lines)):
        return None
    ids = {str(i): i for i in range(n)}
    try:
        ends = list(map(ids.__getitem__, block.split()))
    except KeyError:
        return None
    it = iter(ends)
    arcs = dict.fromkeys(zip(it, it))
    if not arcs.keys().isdisjoint(zip(range(n), range(n))):
        return None
    return tuple(arcs)


def _walk_arc_lines(n: int, numbered: list[tuple[int, str]]) -> tuple[tuple[int, int], ...]:
    """Read numbered arc lines in order: the arcs, each at its first line, with a warning for each duplicate.

    ``parse_instance`` comes here when the arc lines are not all in the
    shape ``_arcs`` reads, or an arc repeats. Raises ValueError at the
    first fault, naming its line.
    """
    seen: dict[tuple[int, int], None] = {}
    for lineno, arc_line in numbered:
        try:
            u, v = arc = tuple(_ints(arc_line.split()))
        except ValueError:
            raise ValueError(f"line {lineno}: expected arc 'u v', got {arc_line!r}") from None
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: arc ({u}, {v}) out of range")
        if arc in seen:
            logger.warning("line %d: duplicate arc %s collapsed", lineno, arc)
        seen[arc] = None
    return tuple(seen)


def parse_instance(text: str) -> tuple[ColoredDigraph, Query]:
    """Parse the line-oriented instance format.

    Layout: a header line "rainbow 1"; "n m" with n >= 2; n vertex colors;
    m arc lines "u v"; a final line "s t r ell mode". Text after '#' and
    blank lines are ignored. Every integer is an optional '-' then ASCII
    digits. Errors carry the 1-based line number.

    The colors are checked once, in bulk: the integer grammar and dense
    colors. Arc lines in the shape ``write_instance`` emits ("u v", one
    space, ids as written by ``str``) are checked in bulk by ``_arcs``:
    two ids per line, ids in range and no self-loops. Other whitespace and
    spellings such as '01', a repeated arc or a fault send the arc lines
    to ``_walk_arc_lines``, which reads them alike line by line, keeps a
    repeated arc at its first line with a warning, and names a fault. The
    graph is built through ``ColoredDigraph._checked``, which checks only
    the terminals.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = list(map(str.strip, lines))
    content = list(filter(None, lines))

    def numbered() -> list[tuple[int, str]]:
        return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line]

    def fail(index: int, msg: str) -> ValueError:
        return ValueError(f"line {numbered()[index][0]}: {msg}")

    if not content:
        raise ValueError("empty instance")
    if content[0] != FORMAT_HEADER:
        raise fail(0, f"expected header {FORMAT_HEADER!r}, got {content[0]!r}")
    if len(content) < 2:
        raise ValueError("missing size line")
    try:
        n, m = _ints(content[1].split())
    except ValueError:
        raise fail(1, f"expected 'n m', got {content[1]!r}") from None
    if n < 0 or m < 0:
        raise fail(1, f"n and m must be non-negative, got {content[1]!r}")
    if n < 2:
        raise fail(1, "graph needs at least two vertices")
    expected = 3 + m + 1
    if len(content) != expected:
        raise ValueError(
            f"expected {expected} content lines for n={n}, m={m}, got {len(content)}"
        )
    color_parts = content[2].split()
    if len(color_parts) != n:
        raise fail(2, f"expected {n} colors, got {len(color_parts)}")
    try:
        palette = tuple(_ints(color_parts))
    except ValueError:
        raise fail(2, "colors must be integers") from None
    if min(palette) < 0:
        raise fail(2, "colors must be non-negative")
    if max(palette) + 1 != len(set(palette)):
        raise fail(2, "colors must form a dense range starting at 0")
    arcs = _arcs(n, content[3:-1])
    if arcs is None or len(arcs) < m:
        arcs = _walk_arc_lines(n, numbered()[3:-1])
    query_line = content[-1]
    parts = query_line.split()
    if len(parts) != 5:
        raise fail(-1, f"expected 's t r ell mode', got {query_line!r}")
    try:
        s, t, r, ell = _ints(parts[:4])
    except ValueError:
        raise fail(-1, "s, t, r, ell must be integers") from None
    try:
        g = ColoredDigraph._checked(n, palette, arcs, s, t)
        query = Query(r=r, ell=ell, mode=parts[4])
    except ValueError as exc:
        raise fail(-1, str(exc)) from None
    return g, query


def write_instance(g: ColoredDigraph, query: Query) -> str:
    """Serialize an instance; parse_instance inverts this exactly."""
    lines = [
        FORMAT_HEADER,
        f"{g.n} {len(g.arcs)}",
        " ".join(str(c) for c in g.colors),
    ]
    lines.extend(f"{u} {v}" for u, v in g.arcs)
    lines.append(f"{g.s} {g.t} {query.r} {query.ell} {query.mode}")
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> CnfInput:
    """Read a DIMACS CNF (subset: 'c' comments, 'p cnf' header, 0-terminated clauses).

    Literals are integers as ``parse_instance`` reads them; a malformed one
    is reported with its 1-based line number.
    """
    literals: list[int] = []
    clauses: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("p"):
            continue
        try:
            values = _ints(line.split())
        except ValueError:
            raise ValueError(f"line {lineno}: expected integer literals, got {line!r}") from None
        for value in values:
            if value == 0:
                if literals:
                    clauses.append(tuple(literals))  # type: ignore[arg-type]
                    literals = []
            else:
                literals.append(value)
    if literals:
        clauses.append(tuple(literals))  # type: ignore[arg-type]
    return CnfInput(tuple(clauses))


def read_phs_sets(text: str) -> PHSInput:
    """Read a permutation-hitting instance.

    First content line: k. Each following line is one family given as an
    even-length list of integers "i1 j1 i2 j2 ...". '#' comments allowed.
    """
    rows: list[tuple[int, list[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append((lineno, _ints(line.split())))
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {line!r}") from None
    if not rows or len(rows[0][1]) != 1:
        raise ValueError("first content line must be the single integer k")
    k = rows[0][1][0]
    sets = []
    for lineno, row in rows[1:]:
        if len(row) % 2 != 0:
            raise ValueError(f"line {lineno}: family {row} has an odd number of integers")
        sets.append(tuple(zip(row[::2], row[1::2])))
    return PHSInput(k, tuple(sets))
