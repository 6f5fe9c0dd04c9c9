"""Instance generators, reductions, and the file format."""
from __future__ import annotations

import logging
import random
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import helpers
from rainbowpaths import (
    CnfInput,
    ColoredDigraph,
    PHSInput,
    Query,
    dist_from_source,
    gen_3sat_instance,
    gen_phs_instance,
    gen_random,
    oracle_3sat,
    oracle_phs,
    parse_instance,
    phs_layout,
    read_dimacs,
    read_phs_sets,
    sat_layout,
    solve_path,
    solve_walk,
    verify_witness,
    write_instance,
)
from reference import read_instance_lines


def test_phs_input_canonicalizes():
    inp = PHSInput(2, (((2, 1), (1, 1)), ((1, 2),)))
    assert inp.sets[0] == ((1, 1), (2, 1))
    with pytest.raises(ValueError):
        PHSInput(0, ())
    with pytest.raises(ValueError):
        PHSInput(2, (((3, 1),),))


def test_phs_layout_counts():
    k, m = 3, 2
    lay = phs_layout(k, m)
    assert len(lay["u"]) == m + 1
    assert len(lay["v"]) == len(lay["w"]) == m * k * k
    ids = list(lay["u"].values()) + list(lay["v"].values()) + list(lay["w"].values())
    assert sorted(ids) == list(range((m + 1) + 2 * k * k * m))


def test_phs_instance_shape():
    inp = PHSInput(3, (((1, 2), (2, 2)), ((2, 1),)))
    g, q = gen_phs_instance(inp)
    k, m = 3, 2
    assert g.n == (m + 1) + 2 * k * k * m
    assert q == Query(k, m * (k + 1), "atmost")
    # anchors carry the extra color k, grid vertices colors 0..k-1
    lay = phs_layout(k, m)
    assert all(g.colors[i] == k for i in lay["u"].values())
    assert all(g.colors[x] == j - 1 for (qq, i, j), x in lay["v"].items())
    assert all(g.colors[x] == j - 1 for (qq, i, j), x in lay["w"].items())
    # every route crosses k grid rows per segment, so the budget is tight
    assert dist_from_source(g)[g.t] == q.ell


def test_phs_singleton_yes():
    g, q = gen_phs_instance(PHSInput(1, (((1, 1),),)))
    w = solve_walk(g, q)
    assert w is not None
    assert verify_witness(g, q, w.vertices, require_path=True) == []


def test_phs_conflicting_pins_no():
    g, q = gen_phs_instance(PHSInput(2, (((1, 1),), ((1, 2),))))
    assert oracle_phs(2, [{(1, 1)}, {(1, 2)}]) is None
    assert solve_walk(g, q) is None


def test_phs_worked_example():
    sets = (
        ((1, 2), (2, 2)),
        ((1, 1), (2, 2), (2, 3), (3, 3)),
        ((2, 1), (3, 1), (3, 2)),
    )
    inp = PHSInput(3, sets)
    g, q = gen_phs_instance(inp)
    w = solve_walk(g, q)
    assert w is not None
    assert verify_witness(g, q, w.vertices, require_path=True) == []
    lay = phs_layout(3, 3)
    segments = [(cols, min(w_rows, default=None)) for cols, w_rows in helpers.decode_phs_segments(w.vertices, lay, 3)]
    perms = []
    for cols, entry_row in segments:
        assert sorted(cols) == [1, 2, 3]
        assert sorted(cols.values()) == [1, 2, 3]
        perms.append(tuple(cols[i] for i in (1, 2, 3)))
        assert entry_row is not None
    # one permutation across all segments, and it hits every family
    assert len(set(perms)) == 1
    pi = perms[0]
    for fam, (cols, entry_row) in zip(sets, segments):
        assert (entry_row, pi[entry_row - 1]) in set(fam)
    assert oracle_phs(3, [set(f) for f in sets]) is not None

    # Hand-build the walk for the assignment {1: 2, 2: 1, 3: 3}, which
    # meets family q at row entry[q - 1]; it must be a valid simple path
    # that switches from the plain grid to the marked grid at that row.
    phi = (2, 1, 3)
    entry = (1, 3, 2)
    walk = [lay["u"][1]]
    for seg in (1, 2, 3):
        for row in (1, 2, 3):
            grid = "w" if row >= entry[seg - 1] else "v"
            walk.append(lay[grid][(seg, row, phi[row - 1])])
        walk.append(lay["u"][seg + 1])
    walk = tuple(walk)
    assert verify_witness(g, q, walk, require_path=True) == []
    assert len(walk) - 1 == q.ell
    assert lay["w"][(1, 2, 1)] in walk
    assert lay["v"][(2, 1, 2)] in walk
    assert lay["w"][(2, 3, 3)] in walk


def test_phs_random_round_trip():
    rng = random.Random(5)
    for trial in range(25):
        k = rng.randint(1, 2)
        m = rng.randint(1, 3)
        pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
        sets = tuple(
            tuple(sorted(rng.sample(pairs, rng.randint(1, len(pairs)))))
            for _ in range(m)
        )
        g, q = gen_phs_instance(PHSInput(k, sets))
        got = solve_walk(g, q)
        ref = oracle_phs(k, [set(f) for f in sets])
        assert (got is None) == (ref is None), (k, sets)


def test_cnf_input_validation():
    with pytest.raises(ValueError):
        CnfInput(((1, 2, 2), (1, 2, 3), (-1, -2, -3), (-1, -2, 3), (1, -3, 2)))
    with pytest.raises(ValueError):
        CnfInput(((1, 2, 4), (1, 2, 4), (-1, -2, -4), (-1, -2, -4)))
    with pytest.raises(ValueError):
        CnfInput(((1, 2, 3), (1, 2, 3), (-1, -2, -3), (-1, -2, 3)))
    with pytest.raises(ValueError, match="at least one clause is required"):
        CnfInput(())


def test_sat_instance_shape():
    cnf = CnfInput(((1, 2, 3), (1, 2, 3), (-1, -2, -3), (-1, -2, -3)))
    g, q = gen_3sat_instance(cnf)
    n, m = 3, 4
    assert g.n == 8 * n + 4 * m + 3
    assert q == Query(2, 6 * n + 3 * m + 2, "atmost")
    # exactly one vertex wears the connector color 3
    assert sum(1 for c in g.colors if c == 3) == 1
    lay = sat_layout(cnf)
    assert g.colors[lay["conn_a"]] == 3


def test_sat_round_trip_agrees_with_oracle():
    rng = random.Random(17)
    for trial in range(4):
        clauses = helpers.compliant_cnf(rng, 3)
        cnf = CnfInput(tuple(clauses))
        g, q = gen_3sat_instance(cnf)
        got = solve_path(g, q)
        ref = oracle_3sat(clauses)
        assert (got is None) == (ref is None)
        if got is not None:
            assert verify_witness(g, q, got.vertices, require_path=True) == []
            assert got.length == q.ell


def test_sat_path_length_is_rigid():
    # Any s-t path in the reduction has length exactly ell, so the
    # at-most budget ell - 1 must answer no.
    rng = random.Random(23)
    clauses = helpers.compliant_cnf(rng, 3)
    g, q = gen_3sat_instance(CnfInput(tuple(clauses)))
    assert solve_path(g, q) is not None
    assert solve_path(g, Query(q.r, q.ell - 1, "atmost")) is None


def test_sat_connector_is_load_bearing():
    rng = random.Random(29)
    clauses = helpers.compliant_cnf(rng, 3)
    cnf = CnfInput(tuple(clauses))
    g, q = gen_3sat_instance(cnf)
    lay = sat_layout(cnf)
    cut = tuple(a for a in g.arcs if a != (lay["conn_a"], lay["conn_b"]))
    assert len(cut) == len(g.arcs) - 1
    g2 = ColoredDigraph(g.n, g.colors, cut, g.s, g.t)
    assert solve_path(g2, q) is None


def test_gen_random_is_deterministic():
    a = gen_random(7, 0.4, 3, 2, 5, seed=42)
    b = gen_random(7, 0.4, 3, 2, 5, seed=42)
    assert write_instance(*a) == write_instance(*b)
    c = gen_random(7, 0.4, 3, 2, 5, seed=43)
    assert write_instance(*a) != write_instance(*c)


def test_write_parse_round_trip():
    rng = random.Random(33)
    for trial in range(20):
        g, q = gen_random(
            rng.randint(2, 9),
            0.4,
            rng.randint(1, 4),
            rng.randint(0, 3),
            rng.randint(0, 9),
            seed=19000 + trial,
            mode=rng.choice(("atmost", "exact", "any")),
        )
        text = write_instance(g, q)
        g2, q2 = parse_instance(text)
        assert g2 == g and q2 == q
        assert write_instance(g2, q2) == text
        lines = text.splitlines()
        variants = {
            "comments": "# leading\n" + "\n".join(f"{line}  # note {i}" for i, line in enumerate(lines)) + "\n",
            "blank lines": "\n\n" + "\n\n".join(lines) + "\n\n",
            "trailing whitespace": "".join(f"{line} \t \n" for line in lines),
            "tabs": "\n".join([lines[0]] + ["\t" + line.replace(" ", "\t") for line in lines[1:]]) + "\n",
            "crlf": "".join(f"{line}\r\n" for line in lines),
            "no final newline": "\n".join(lines),
        }
        for name, variant in variants.items():
            assert parse_instance(variant) == (g, q), (trial, name)


def test_parse_collapses_duplicate_arcs_with_a_warning(caplog):
    text = "rainbow 1\n3 3\n0 1 0\n0 1\n1 2\n0 1\n0 2 2 2 atmost\n"
    with caplog.at_level(logging.WARNING, logger="rainbowpaths.instances"):
        g, q = parse_instance(text)
    assert g.arcs == ((0, 1), (1, 2))
    assert [rec.getMessage() for rec in caplog.records] == ["line 6: duplicate arc (0, 1) collapsed"]


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_instance("rainbow 9\n")


def test_parse_errors_carry_line_numbers():
    g, q = gen_random(4, 0.5, 2, 1, 3, seed=1)
    lines = write_instance(g, q).splitlines()
    lines[2] = "not numbers"
    with pytest.raises(ValueError, match=r"^line 3: expected 4 colors, got 2$"):
        parse_instance("\n".join(lines) + "\n")
    lines[2] = "0 1 x 0"
    with pytest.raises(ValueError, match=r"^line 3: colors must be integers$"):
        parse_instance("\n".join(lines) + "\n")


# tokens that pass a lstrip("-").isdigit() check but not int(), and tokens
# that int() takes but the format never holds
MALFORMED_TOKENS = ("--1", "-", "\u00b2", "+1", "1_0", "\u0661", "\uff11", "1-")


def test_parse_reports_malformed_integers_at_their_line():
    for token in MALFORMED_TOKENS:
        arc = f"rainbow 1\n3 2\n0 1 2\n0 1\n0 {token}\n0 2 2 2 atmost\n"
        with pytest.raises(ValueError, match=rf"^line 5: expected arc 'u v', got '0 {re.escape(token)}'$"):
            parse_instance(arc)
        size = f"rainbow 1\n{token} 1\n0 1\n0 1\n0 1 1 1 atmost\n"
        with pytest.raises(ValueError, match=rf"^line 2: expected 'n m', got '{re.escape(token)} 1'$"):
            parse_instance(size)
        color = f"rainbow 1\n2 1\n0 {token}\n0 1\n0 1 1 1 atmost\n"
        with pytest.raises(ValueError, match=r"^line 3: colors must be integers$"):
            parse_instance(color)
        query = f"rainbow 1\n2 1\n0 1\n0 1\n0 1 {token} 1 atmost\n"
        with pytest.raises(ValueError, match=r"^line 5: s, t, r, ell must be integers$"):
            parse_instance(query)
    # '-0' and leading zeros are an optional '-' then ASCII digits
    g, q = parse_instance("rainbow 1\n2 1\n0 1\n-0 01\n0 1 1 001 atmost\n")
    assert g.arcs == ((0, 1),) and q == Query(1, 1, "atmost")


def test_parse_rejects_negative_sizes_at_their_line():
    # a negative m used to read the color line as the query line
    with pytest.raises(ValueError, match="line 2: n and m must be non-negative"):
        parse_instance("rainbow 1\n2 -1\n0 1\n")
    with pytest.raises(ValueError, match="line 3: n and m must be non-negative"):
        parse_instance("rainbow 1\n# sizes\n-2 0\n0 1\n0 1 2 3 atmost\n")


def test_parse_reports_arc_and_color_faults_at_their_line():
    with pytest.raises(ValueError, match=r"^line 5: self-loop at vertex 1$"):
        parse_instance("rainbow 1\n3 2\n0 1 2\n0 1\n1 1\n0 2 2 2 atmost\n")
    with pytest.raises(ValueError, match=r"^line 5: arc \(1, 7\) out of range$"):
        parse_instance("rainbow 1\n3 2\n0 1 2\n0 1\n1 7\n0 2 2 2 atmost\n")
    with pytest.raises(ValueError, match=r"^line 3: colors must form a dense range starting at 0$"):
        parse_instance("rainbow 1\n3 2\n0 2 2\n0 1\n1 2\n0 2 2 2 atmost\n")


def test_parse_rejects_fewer_than_two_vertices_at_the_size_line():
    # the size line is at fault, not the query line or the count of content lines
    with pytest.raises(ValueError, match=r"^line 2: graph needs at least two vertices$"):
        parse_instance("rainbow 1\n1 0\n0\n0 0 1 1 atmost\n")
    with pytest.raises(ValueError, match=r"^line 2: graph needs at least two vertices$"):
        parse_instance("rainbow 1\n0 0\n\n0 0 1 1 atmost\n")


def test_parse_names_the_first_fault_in_line_order(caplog):
    with pytest.raises(ValueError, match=r"^line 4: arc \(1, 7\) out of range$"):
        parse_instance("rainbow 1\n3 2\n0 1 2\n1 7\n0 x\n0 2 2 2 atmost\n")
    with pytest.raises(ValueError, match=r"^line 4: expected arc 'u v', got '0 1 2'$"):
        parse_instance("rainbow 1\n3 2\n0 1 2\n0 1 2\n1 1\n0 2 2 2 atmost\n")
    with pytest.raises(ValueError, match=r"^line 5: arc \(-1, 2\) out of range$"):
        parse_instance("rainbow 1\n3 2\n0 1 2\n0 1\n-1 2\n0 2 2 2 atmost\n")
    with caplog.at_level(logging.WARNING, logger="rainbowpaths.instances"):
        with pytest.raises(ValueError, match=r"^line 6: expected arc 'u v', got '1 x'$"):
            parse_instance("rainbow 1\n3 3\n0 1 2\n0 1\n0 1\n1 x\n0 2 2 2 atmost\n")
    assert [rec.getMessage() for rec in caplog.records] == ["line 5: duplicate arc (0, 1) collapsed"]
    # the terminals are checked where the graph is built, and blamed on the query line
    with pytest.raises(ValueError, match=r"^line 6: t=3 out of range$"):
        parse_instance("rainbow 1\n3 1\n0 1 2\n\n0 1\n0 3 2 2 atmost\n")
    with pytest.raises(ValueError, match=r"^line 5: terminals must differ$"):
        parse_instance("rainbow 1\n3 1\n0 1 2\n0 1\n2 2 2 2 atmost\n")


def _noisy_instance_text(rng, n, colors, arc_lines, query_line):
    """An instance file with comments, tabs, CRLF line ends, blank lines and zero-padded ids."""
    def spaced(tokens):
        return rng.choice((" ", "\t", "  ", " \t ")).join(tokens)

    def pad(v):
        return f"0{v}" if rng.random() < 0.1 else str(v)

    body = ["rainbow 1", f"{n} {len(arc_lines)}", spaced(map(str, colors))]
    body += [spaced((pad(u), pad(v))) for u, v in arc_lines]
    body.append(query_line)
    out = []
    for line in body:
        if rng.random() < 0.2:
            out.append(rng.choice(("", "   ", "# a comment", "\t# indented comment")))
        if rng.random() < 0.3:
            line += f"  # note {rng.randrange(100)}"
        out.append(rng.choice(("", " ", "\t")) + line)
    return rng.choice(("\n", "\r\n")).join(out) + rng.choice(("", "\n", "\r\n"))


def test_parse_builds_the_graph_the_public_constructor_builds(caplog):
    rng = random.Random(41)
    duplicated = 0
    for trial in range(200):
        n = rng.randint(2, 12)
        colors = [rng.randrange(n) for _ in range(n)]
        dense = {c: i for i, c in enumerate(sorted(set(colors)))}
        colors = tuple(dense[c] for c in colors)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arc_lines = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
        if arc_lines and rng.random() < 0.3:
            arc_lines.insert(rng.randrange(len(arc_lines) + 1), rng.choice(arc_lines))
        s, t = rng.sample(range(n), 2)
        q = Query(rng.randint(0, 3), rng.randint(0, 9), rng.choice(("atmost", "exact", "any")))
        text = _noisy_instance_text(rng, n, colors, arc_lines, f"{s} {t} {q.r} {q.ell} {q.mode}")
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="rainbowpaths.instances"):
            g, q2 = parse_instance(text)
        first_kept = tuple(dict.fromkeys(arc_lines))
        duplicated += len(first_kept) < len(arc_lines)
        assert len(caplog.records) == len(arc_lines) - len(first_kept), trial
        want = ColoredDigraph(n, colors, first_kept, s, t)
        assert g == want and q2 == q, trial
        assert g.out_neighbors == want.out_neighbors, trial
        assert g.in_neighbors == want.in_neighbors, trial
    assert duplicated > 20


# rewrites of one end of one arc line of a ``write_instance`` file
TOKEN_MUTATIONS = {
    "leading zero": lambda tok, n: "0" + tok,
    "minus": lambda tok, n: "-" + tok,  # '-0' at id 0, a negative id elsewhere
    "plus": lambda tok, n: "+" + tok,
    "underscore": lambda tok, n: tok + "_0",
    "arabic-indic digits": lambda tok, n: tok.translate(dict(zip(range(0x30, 0x3A), range(0x660, 0x66A)))),
    "double minus": lambda tok, n: "--" + tok,
    "id n": lambda tok, n: str(n),
}
# rewrites of one arc line "u v", given the file's arc lines
LINE_MUTATIONS = {
    "self-loop": lambda u, v, other: f"{u} {u}",
    "repeated line": lambda u, v, other: other,
    "tab": lambda u, v, other: f"{u}\t{v}",
    "double space": lambda u, v, other: f"{u}  {v}",
    "third token": lambda u, v, other: f"{u} {v} {v}",
    "tab and third token": lambda u, v, other: f"{u}\t{v} {v}",
    "missing token": lambda u, v, other: f"{u}",
}
MUTATION = st.one_of(
    st.tuples(st.sampled_from(sorted(TOKEN_MUTATIONS)), st.integers(0, 999), st.integers(0, 1)),
    st.tuples(st.sampled_from(sorted(LINE_MUTATIONS)), st.integers(0, 999), st.integers(0, 999)),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(2, 12),
    colors=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    mutations=st.lists(MUTATION, min_size=1, max_size=3),
)
def test_parse_agrees_with_the_line_by_line_reference(caplog, n, colors, seed, mutations):
    # one to three arc lines are rewritten, so the first fault in line
    # order and the warnings before it are compared too
    g, q = gen_random(n, 0.4, colors, 2, 5, seed=seed)
    assume(g.arcs)
    lines = write_instance(g, q).splitlines()
    canonical = lines[3:-1]
    for kind, index, which in mutations:
        at = index % len(g.arcs)
        u, v = canonical[at].split()
        if kind in TOKEN_MUTATIONS:
            ends = [u, v]
            ends[which] = TOKEN_MUTATIONS[kind](ends[which], n)
            lines[3 + at] = " ".join(ends)
        else:
            lines[3 + at] = LINE_MUTATIONS[kind](u, v, canonical[which % len(g.arcs)])
    text = "\n".join(lines) + "\n"
    want_warnings: list[str] = []
    try:
        want = read_instance_lines(text, want_warnings)
    except ValueError as exc:
        want = str(exc)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="rainbowpaths.instances"):
        try:
            got = parse_instance(text)
        except ValueError as exc:
            got = str(exc)
    assert got == want
    assert [rec.getMessage() for rec in caplog.records] == want_warnings


def test_parse_reads_a_file_with_no_arc_lines():
    g, q = parse_instance("rainbow 1\n2 0\n0 1\n0 1 1 1 atmost\n")
    assert g.arcs == () and g.n == 2 and q == Query(1, 1, "atmost")


def test_parse_reads_canonical_and_tab_separated_arc_lines_alike():
    g, q = gen_random(9, 0.5, 3, 2, 6, seed=5)
    lines = write_instance(g, q).splitlines()
    for at in range(3, len(lines) - 1, 2):
        lines[at] = lines[at].replace(" ", "\t")
    assert parse_instance("\n".join(lines) + "\n") == (g, q)


def test_parse_collapses_a_zero_padded_repeat_at_its_later_line(caplog):
    with caplog.at_level(logging.WARNING, logger="rainbowpaths.instances"):
        g, q = parse_instance("rainbow 1\n3 3\n0 1 2\n0 1\n00 01\n1 2\n0 2 2 2 atmost\n")
    assert g.arcs == ((0, 1), (1, 2))
    assert [rec.getMessage() for rec in caplog.records] == ["line 5: duplicate arc (0, 1) collapsed"]


def _canonical_file(n, arcs):
    body = ["rainbow 1", f"{n} {len(arcs)}", " ".join(str(v % 3) for v in range(n))]
    return "\n".join(body + [f"{u} {v}" for u, v in arcs] + [f"0 {n - 1} 2 5 atmost"]) + "\n"


def test_parse_names_a_canonical_fault_deep_in_a_large_file():
    n = 40
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v][:1000]
    assert parse_instance(_canonical_file(n, arcs))[0].arcs == tuple(arcs)
    # arc 900 sits on line 903: the header, sizes and colors come first
    for arc, message in (((17, 17), "self-loop at vertex 17"), ((3, n), f"arc (3, {n}) out of range")):
        faulty = arcs[:899] + [arc] + arcs[900:]
        with pytest.raises(ValueError, match=rf"^line 903: {re.escape(message)}$"):
            parse_instance(_canonical_file(n, faulty))


def test_parse_refuses_a_line_whose_tokens_another_line_would_balance():
    # each pair of arc lines holds four tokens, and the first two as many
    # spaces as lines, but the first line of each pair is at fault
    for first, second in (("0\t1 2", "1 2"), ("0\t1\t2", "1 2"), ("0 1 2", "1")):
        with pytest.raises(ValueError, match=rf"^line 4: expected arc 'u v', got {re.escape(repr(first))}$"):
            parse_instance(f"rainbow 1\n3 2\n0 1 2\n{first}\n{second}\n0 2 2 2 atmost\n")


def test_parse_allows_comments():
    g, q = gen_random(4, 0.5, 2, 1, 3, seed=2)
    text = "# a comment\n" + write_instance(g, q)
    g2, q2 = parse_instance(text)
    assert g2 == g and q2 == q


def test_read_dimacs():
    cnf = read_dimacs("c comment\np cnf 3 4\n1 2 3 0\n1 2 3 0\n-1 -2 -3 0\n-1 -2 -3 0\n")
    assert cnf.clauses == ((1, 2, 3), (1, 2, 3), (-1, -2, -3), (-1, -2, -3))
    # a last clause with no terminating 0 is kept
    assert read_dimacs("1 2 3 0 1 2 3 0\n-1 -2 -3 0\n-1 -2 -3\n") == cnf


def test_readers_report_malformed_integers_at_their_line():
    for token in MALFORMED_TOKENS + ("x",):
        line = f"1 2 {token} 0"
        with pytest.raises(ValueError, match=rf"^line 3: expected integer literals, got {re.escape(repr(line))}$"):
            read_dimacs(f"c comment\np cnf 3 1\n{line}\n")
        line = f"1 {token}"
        with pytest.raises(ValueError, match=rf"^line 2: expected integers, got {re.escape(repr(line))}$"):
            read_phs_sets(f"2\n{line}\n")


def test_read_phs_sets_reports_an_odd_family_at_its_line():
    with pytest.raises(ValueError, match=r"^line 4: family \[1, 1, 2\] has an odd number of integers$"):
        read_phs_sets("2\n1 1 2 2\n# odd\n1 1 2\n")


def test_read_phs_sets():
    inp = read_phs_sets("2\n1 1 2 2\n2 1\n")
    assert inp.k == 2
    assert inp.sets == (((1, 1), (2, 2)), ((2, 1),))


PARSE_REFUSALS = {
    "empty": ("", "empty instance"),
    "no-size-line": ("rainbow 1\n", "missing size line"),
    "missing-arc-line": (
        "rainbow 1\n2 1\n0 1\n0 1 1 1 atmost\n",
        "expected 5 content lines for n=2, m=1, got 4",
    ),
    "negative-color": ("rainbow 1\n2 0\n0 -1\n0 1 1 0 atmost\n", "line 3: colors must be non-negative"),
    "short-query": ("rainbow 1\n2 0\n0 1\n0 1 1\n", "line 4: expected 's t r ell mode', got '0 1 1'"),
    "bad-mode": (
        "rainbow 1\n2 0\n0 1\n0 1 1 0 most\n",
        "line 4: mode must be one of ('atmost', 'exact', 'any'), got 'most'",
    ),
    # the integers of the query line are read before its mode
    "bad-ints-and-mode": ("rainbow 1\n2 0\n0 1\n0 x 1 0 most\n", "line 4: s, t, r, ell must be integers"),
}


@pytest.mark.parametrize("text, message", PARSE_REFUSALS.values(), ids=PARSE_REFUSALS)
def test_parse_refuses_malformed_files(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_instance(text)


BALANCED = ((1, 2, 3), (1, 2, 3), (-1, -2, -3), (-1, -2, -3))
INPUT_REFUSALS = {
    "phs-k": (lambda: PHSInput(0, ()), "k must be at least 1"),
    "phs-pair": (lambda: PHSInput(2, (((3, 1),),)), "pair (3, 1) outside [1..2]^2"),
    "cnf-width": (lambda: CnfInput(((1, 2),) + BALANCED[1:]), "clause 1 has 2 literals, want 3"),
    "cnf-zero": (
        lambda: CnfInput(((1, 2, 0),) + BALANCED[1:]),
        "clause 1 contains a zero literal",
    ),
    "phs-no-family": (lambda: gen_phs_instance(PHSInput(2, ())), "at least one family is required"),
    "phs-float-k": (lambda: PHSInput(2.5, ()), "k and pair entries must be ints, got 2.5"),
    "phs-bool-k": (lambda: PHSInput(True, (((1, 1),),)), "k and pair entries must be ints, got True"),
    "phs-float-pair": (lambda: PHSInput(2, (((1.0, 1),),)), "k and pair entries must be ints, got 1.0"),
    "phs-float-k-encode": (
        lambda: gen_phs_instance(PHSInput(2.0, (((1, 1),),))),
        "k and pair entries must be ints, got 2.0",
    ),
    "cnf-bool": (lambda: CnfInput(((True, 2, 3),) + BALANCED[1:]), "literals must be ints, got True"),
    "random-n": (lambda: gen_random(1, 0.5, 2, 1, 1, seed=0), "need at least two vertices"),
    "random-p": (lambda: gen_random(3, 1.5, 2, 1, 1, seed=0), "arc_probability must lie in [0, 1]"),
    "random-colors": (lambda: gen_random(3, 0.5, 0, 1, 1, seed=0), "need at least one color"),
    "random-float-n": (lambda: gen_random(3.0, 0.5, 2, 1, 1, seed=0), "n and colors must be ints, got 3.0"),
    "random-float-colors": (lambda: gen_random(3, 0.5, 2.0, 1, 1, seed=0), "n and colors must be ints, got 2.0"),
    "phs-file-k": (lambda: read_phs_sets("2 1\n1 1\n"), "first content line must be the single integer k"),
}


@pytest.mark.parametrize("build, message", INPUT_REFUSALS.values(), ids=INPUT_REFUSALS)
def test_inputs_and_generators_refuse_bad_arguments(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
