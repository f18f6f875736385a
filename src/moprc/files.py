"""Text formats: construction files, coloring files, DOT export.

Both formats are line-based ASCII with single spaces and LF endings,
and writers emit them byte for byte reproducibly.

Construction file:        Coloring file:
    MOP <n>                   COLORING <n> <colors_used>
    3 1 2                     <u> <v> <color>     (u < v, rows sorted)
    <i> <low> <high> ...

Parsers are strict: wrong counts, out-of-order rows, duplicate rows,
or trailing junk raise FormatError with the offending line number.
"""

from __future__ import annotations

from .core import CanonicalMop, EdgeColoring, Graph
from .errors import DomainError, FormatError
from .spine import CutSpine


def write_mop(c: CanonicalMop) -> str:
    lines = [f"MOP {c.n}"]
    for i, lo, hi in c.rows():
        lines.append(f"{i} {lo} {hi}")
    return "\n".join(lines) + "\n"


def _is_digits(s: str) -> bool:
    # str.isdigit alone also accepts superscripts and non-ASCII digits.
    return s.isascii() and s.isdigit()


def _split_ints(line: str, lineno: int, expect: int) -> list[int]:
    parts = line.split(" ")
    if len(parts) != expect or any(p == "" for p in parts):
        raise FormatError(f"expected {expect} space-separated integers", lineno)
    out = []
    for p in parts:
        if not (_is_digits(p) or (p[0] == "-" and _is_digits(p[1:]))):
            raise FormatError(f"not an integer: {p!r}", lineno)
        out.append(int(p))
    return out


def _lines(text: str) -> list[str]:
    """The LF-separated lines of a file, the final empty one dropped;
    FormatError on empty input."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty input", 1)
    return lines


def parse_mop(text: str) -> CanonicalMop:
    lines = _lines(text)
    header = lines[0].split(" ")
    if len(header) != 2 or header[0] != "MOP" or not _is_digits(header[1]):
        raise FormatError("header must be 'MOP <n>'", 1)
    n = int(header[1])
    if n < 3:
        raise FormatError(f"n must be at least 3, got {n}", 1)
    if len(lines) - 1 != n - 2:
        raise FormatError(
            f"expected {n - 2} attachment rows for n={n}, found {len(lines) - 1}", 1
        )
    low: dict[int, int] = {}
    high: dict[int, int] = {}
    for k, line in enumerate(lines[1:], start=2):
        i, lo, hi = _split_ints(line, k, 3)
        if i != k + 1:
            raise FormatError(f"rows must cover 3..{n} in order; expected vertex {k + 1}, got {i}", k)
        low[i], high[i] = lo, hi
    try:
        return CanonicalMop(n, low, high)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def write_coloring(g: Graph, coloring: EdgeColoring) -> str:
    coloring.check_total(g)
    lines = [f"COLORING {g.n} {len(coloring.used)}"]
    for u, v in sorted(coloring.colors):
        lines.append(f"{u} {v} {coloring.colors[(u, v)]}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> tuple[int, EdgeColoring]:
    """Read a coloring file; returns (n, coloring).

    Cross-validates the header's color count against the rows and
    requires rows in lexicographic order with u < v.
    """
    lines = _lines(text)
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != "COLORING":
        raise FormatError("header must be 'COLORING <n> <colors_used>'", 1)
    if not (_is_digits(header[1]) and _is_digits(header[2])):
        raise FormatError("header counts must be integers", 1)
    n, claimed = int(header[1]), int(header[2])
    colors: dict[tuple[int, int], int] = {}
    prev: tuple[int, int] | None = None
    for k, line in enumerate(lines[1:], start=2):
        u, v, c = _split_ints(line, k, 3)
        if not (1 <= u < v <= n):
            raise FormatError(f"need 1 <= u < v <= {n}, got ({u}, {v})", k)
        if c < 1:
            raise FormatError(f"colors are 1-based, got {c}", k)
        if prev is not None and (u, v) <= prev:
            raise FormatError(f"rows must be sorted; ({u}, {v}) after {prev}", k)
        prev = (u, v)
        colors[(u, v)] = c
    distinct = len(set(colors.values()))
    if distinct != claimed:
        raise FormatError(
            f"header claims {claimed} colors but rows use {distinct}", 1
        )
    return n, EdgeColoring(colors)


def to_dot(g: Graph, coloring: EdgeColoring | None = None) -> str:
    """DOT text for a graph, optionally labelling edges with colors."""
    lines = ["graph mop {", "  node [shape=circle];"]
    for v in g.vertices():
        lines.append(f"  {v};")
    for u, v in sorted(g.edges):
        if coloring is not None:
            lines.append(f'  {u} -- {v} [label="{coloring.colors[(u, v)]}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def spine_to_dot(spine: CutSpine) -> str:
    """DOT text for a cut spine: the root and its green nodes, each
    with an edge from its parent."""

    def name(nd) -> str:
        inner = ",".join(str(v) for v in nd.realization)
        return f"{nd.kind}({inner}) L{nd.level}"

    fill = {"root": "lightblue", "green": "palegreen"}
    lines = ["digraph spine {", "  node [style=filled];"]
    for nd in spine.nodes:
        lines.append(f'  "{name(nd)}" [fillcolor={fill[nd.kind]}];')
    for nd in spine.nodes:
        if nd.kind == "root":
            continue
        lines.append(f'  "{name(spine.parent[nd])}" -> "{name(nd)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
