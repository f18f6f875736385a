"""Text formats: byte-stable writers, strict parsers, DOT export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprc import (
    CanonicalMop,
    EdgeColoring,
    FormatError,
    build_ccs,
    from_canonical,
    lad,
    parse_coloring,
    parse_mop,
    rainbow_coloring,
    random_mop,
    spine_to_dot,
    to_canonical,
    to_dot,
    write_coloring,
    write_mop,
)

MMOP4 = CanonicalMop(4, {3: 1, 4: 2}, {3: 2, 4: 3})


def test_golden_construction_file():
    assert write_mop(MMOP4) == "MOP 4\n3 1 2\n4 2 3\n"
    assert parse_mop("MOP 4\n3 1 2\n4 2 3\n") == MMOP4


def test_parse_accepts_missing_final_newline():
    assert parse_mop("MOP 4\n3 1 2\n4 2 3") == MMOP4


@pytest.mark.parametrize(
    "text, line, needle",
    [
        ("", 1, "empty"),
        ("MOP\n", 1, "header"),
        ("mop 4\n3 1 2\n4 2 3\n", 1, "header"),
        ("MOP 2\n", 1, "at least 3"),
        ("MOP 4\n3 1 2\n", 1, "expected 2 attachment rows"),
        ("MOP 4\n3 1 2\n4 2 3\n5 3 4\n", 1, "expected 2 attachment rows"),
        ("MOP 4\n4 2 3\n3 1 2\n", 2, "expected vertex 3"),
        ("MOP 4\n3 1 2\n4 x 3\n", 3, "not an integer"),
        ("MOP 4\n3 1 2\n4 2\n", 3, "3 space-separated"),
        ("MOP \u00b2\n", 1, "header"),
        ("MOP 3\n3 1 \u00b2\n", 2, "not an integer"),
        ("MOP \u0663\n3 1 2\n", 1, "header"),
    ],
)
def test_construction_parse_errors(text, line, needle):
    with pytest.raises(FormatError) as exc:
        parse_mop(text)
    assert exc.value.line == line
    assert needle in str(exc.value)


def test_semantic_row_error_has_no_line_number():
    # Three well-formed integers, but (3, 2) violates low < high; the
    # parser reports the constructor's complaint without a line number.
    with pytest.raises(FormatError) as exc:
        parse_mop("MOP 4\n3 1 2\n4 3 2\n")
    assert exc.value.line is None
    assert "low < high" in str(exc.value)


def test_coloring_round_trip_and_header():
    g = lad(3).graph
    col, _ = rainbow_coloring(g)
    text = write_coloring(g, col)
    first = text.split("\n", 1)[0]
    assert first == f"COLORING {g.n} {len(col.used)}"
    n, parsed = parse_coloring(text)
    assert n == g.n and parsed.colors == col.colors


@pytest.mark.parametrize(
    "text, line, needle",
    [
        ("", 1, "empty"),
        ("COLORING 3\n", 1, "header"),
        ("COLORING 3 x\n", 1, "integers"),
        ("COLORING \u00b3 1\n", 1, "integers"),
        ("COLORING 4 1\n3 4 \u00b9\n", 2, "not an integer"),
        ("COLORING 4 1\n3 4 -\u00b9\n", 2, "not an integer"),
        ("COLORING 3 1\n1 2 1\n2 1 1\n", 3, "1 <= u < v"),
        ("COLORING 3 1\n1 2 1\n1 4 1\n", 3, "1 <= u < v"),
        ("COLORING 3 1\n1 2 0\n", 2, "1-based"),
        ("COLORING 3 1\n1 3 1\n1 2 1\n", 3, "sorted"),
        ("COLORING 3 1\n1 2 1\n1 2 1\n", 3, "sorted"),
        ("COLORING 3 2\n1 2 1\n1 3 1\n2 3 1\n", 1, "claims 2 colors but rows use 1"),
    ],
)
def test_coloring_parse_errors(text, line, needle):
    with pytest.raises(FormatError) as exc:
        parse_coloring(text)
    assert exc.value.line == line
    assert needle in str(exc.value)


def test_coloring_parser_does_not_require_a_graph():
    # The format stands alone; totality against a graph is a separate check.
    n, col = parse_coloring("COLORING 5 2\n1 2 1\n2 3 2\n")
    assert n == 5 and col.used == frozenset({1, 2})


def test_dot_export_plain_and_labelled():
    g = from_canonical(MMOP4)
    plain = to_dot(g)
    assert plain.startswith("graph mop {")
    assert "  1 -- 2;" in plain and "  2 -- 3;" in plain
    assert plain.endswith("}\n")

    col = EdgeColoring({e: i + 1 for i, e in enumerate(sorted(g.edges))})
    labelled = to_dot(g, col)
    assert '  1 -- 2 [label="1"];' in labelled
    assert labelled.count("[label=") == len(g.edges)


def test_spine_dot_marks_node_kinds():
    text = spine_to_dot(build_ccs(lad(4).graph))
    assert text.startswith("digraph spine {")
    assert '"root(4) L0" [fillcolor=lightblue];' in text
    assert '"green(2,3) L1" [fillcolor=palegreen];' in text
    assert '"root(4) L0" -> "green(2,3) L1";' in text


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=2**63))
@settings(max_examples=60, deadline=None)
def test_construction_files_round_trip(n, seed):
    c = random_mop(n, seed)
    assert parse_mop(write_mop(c)) == c


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=2**63))
@settings(max_examples=40, deadline=None)
def test_coloring_files_round_trip(n, seed):
    c = random_mop(n, seed)
    g = from_canonical(c)
    col, _ = rainbow_coloring(g)
    n2, parsed = parse_coloring(write_coloring(g, col))
    assert n2 == g.n and parsed.colors == col.colors
    canon_again, _ = to_canonical(g)
    assert canon_again == c
