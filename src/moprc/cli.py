"""Command-line interface.

Subcommands:
    gen     write a family or random MOP (plus its coloring if any)
    info    basic metrics of a construction file
    ccs     print (or export) the central cut spine
    color   run the staged rainbow coloring
    verify  exhaustively check a coloring file
    rc      exact rainbow connection number by search
    bench   CSV of algorithm colorings vs bounds and exact values

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 scale
limit or timeout.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .coloring import rainbow_coloring
from .core import EdgeColoring, from_canonical, to_canonical
from .errors import MoprcError, ScaleLimit
from .files import parse_coloring, parse_mop, spine_to_dot, to_dot, write_coloring, write_mop
from .generators import fan, lad, lad_plus, random_mop
from .metrics import _least_degree, ecc_diam_rad_center, layers
from .spine import build_ccs
from .verify import exact_rc, exact_src, is_rainbow_connected, is_strong_rainbow_connected

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_SCALE = 3

# bench runs the exact search only on graphs with at most this many edges.
_BENCH_EXACT_CAP = 22


def _read_ascii(path: str) -> str:
    """A file's text; a missing file or a non-ASCII byte is bad input."""
    try:
        return Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise MoprcError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str):
    return from_canonical(parse_mop(_read_ascii(path)))


def _relabelled_coloring(instance):
    """Family graph as (canonical form, coloring in canonical labels)."""
    canon, mapping = to_canonical(instance.graph)
    colors = {
        (mapping[u], mapping[v]): c for (u, v), c in instance.coloring.colors.items()
    }
    return canon, EdgeColoring(colors)


def _cmd_gen(args) -> int:
    kind = args.family
    if kind == "random":
        canon = random_mop(args.n, args.seed)
        coloring = None
        base = args.out or f"random_{args.n}_{args.seed}"
    else:
        maker = {"fan": fan, "lad": lad, "lad_plus": lad_plus}[kind]
        instance = maker(args.n)
        canon, coloring = _relabelled_coloring(instance)
        base = args.out or f"{kind}_{args.n}"
    mop_path = Path(f"{base}.mop")
    mop_path.write_text(write_mop(canon), encoding="ascii")
    print(f"wrote {mop_path}")
    if coloring is not None:
        g = from_canonical(canon)
        colors_path = Path(f"{base}.colors")
        colors_path.write_text(write_coloring(g, coloring), encoding="ascii")
        print(f"wrote {colors_path}")
    return EXIT_OK


def _cmd_info(args) -> int:
    g = _load_graph(args.mop)
    summary = ecc_diam_rad_center(g)
    lay = layers(g, _least_degree(g, summary.center))
    print(f"n: {g.n}")
    print(f"edges: {g.m}")
    print(f"diam: {summary.diameter}")
    print(f"rad: {summary.radius}")
    print("center: " + " ".join(str(v) for v in summary.center))
    print("layers: " + " | ".join(" ".join(str(v) for v in band) for band in lay))
    return EXIT_OK


def _cmd_ccs(args) -> int:
    g = _load_graph(args.mop)
    spine = build_ccs(g)

    def show(node, depth):
        inner = ",".join(str(v) for v in node.realization)
        print("  " * depth + f"{node.kind} ({inner}) level {node.level}")
        for child in spine.children(node):
            show(child, depth + 1)

    show(spine.root, 0)
    if spine.degenerate_radius:
        print("note: radius <= 1, spine is the root alone")
    if args.dot:
        Path(args.dot).write_text(spine_to_dot(spine), encoding="ascii")
        print(f"wrote {args.dot}")
    return EXIT_OK


def _cmd_color(args) -> int:
    g = _load_graph(args.mop)
    coloring, stats = rainbow_coloring(g)
    text = write_coloring(g, coloring)
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {args.out}")
        print(f"radius: {stats.radius}")
        print(f"colors_used: {stats.colors_used}")
        print(f"bound_3rad: {stats.bound}")
        print(f"excess: {stats.excess}")
        print(f"staged_valid: {stats.staged_valid}")
    else:
        sys.stdout.write(text)
    if args.dot:
        Path(args.dot).write_text(to_dot(g, coloring), encoding="ascii")
        # Without --out stdout is the coloring file: keep it parseable.
        print(f"wrote {args.dot}", file=sys.stdout if args.out else sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.mop)
    n, coloring = parse_coloring(_read_ascii(args.colors))
    if n != g.n:
        raise MoprcError(f"coloring is for n={n}, graph has n={g.n}")
    check = is_strong_rainbow_connected if args.strong else is_rainbow_connected
    result = check(g, coloring, max_n=args.max_n, max_colors=args.max_colors)
    if result.ok:
        print("OK")
    else:
        u, v = result.counterexample
        print(f"FAIL {u} {v}")
    # stdout stays the bare verdict for scripts; the split goes to stderr.
    print(
        f"pairs: {result.pairs_checked} checked, {result.pairs_certified} certified",
        file=sys.stderr,
    )
    return EXIT_OK if result.ok else EXIT_FAIL


def _cmd_rc(args) -> int:
    g = _load_graph(args.mop)
    solver = exact_src if args.strong else exact_rc
    result = solver(
        g, max_edges=args.max_edges, max_n=args.max_n, timeout_s=args.timeout_s
    )
    name = "src" if args.strong else "rc"
    print(f"{name}: {result.value}")
    print("nodes: " + " ".join(str(k) for k in result.nodes))
    print("seconds: " + " ".join(f"{s:.4f}" for s in result.seconds))
    out = args.out or f"{Path(args.mop).stem}_cert.colors"
    Path(out).write_text(write_coloring(g, result.certificate), encoding="ascii")
    print(f"wrote {out}")
    return EXIT_OK


def _bench_row(g, timeout_s: float | None) -> str:
    summary = ecc_diam_rad_center(g)
    t0 = time.perf_counter()
    _, stats = rainbow_coloring(g)
    millis = (time.perf_counter() - t0) * 1000.0
    exact = ""
    if g.m <= _BENCH_EXACT_CAP:
        try:
            exact = str(exact_rc(g, timeout_s=timeout_s).value)
        except ScaleLimit:
            exact = ""
    return (
        f"{g.n},{summary.diameter},{summary.radius},"
        f"{stats.colors_used},{stats.bound},{exact},{millis:.1f}"
    )


def _cmd_bench(args) -> int:
    rows = ["n,diam,rad,alg3_colors,bound_3rad,exact_rc,millis"]
    for d in range(2, 7):
        rows.append(_bench_row(lad(d).graph, args.timeout_s))
    for n in args.n_list:
        for t in range(args.trials):
            g = from_canonical(random_mop(n, args.seed + t))
            rows.append(_bench_row(g, args.timeout_s))
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="moprc",
        description="Maximal outerplanar graphs: cut spines and rainbow colorings",
    )
    ap.add_argument("--version", action="version", version=f"moprc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a MOP (and family coloring)")
    gen.add_argument("family", choices=["fan", "lad", "lad_plus", "random"])
    gen.add_argument("n", type=int, help="size parameter (vertices for random)")
    gen.add_argument("--seed", type=int, default=1, help="random family seed")
    gen.add_argument("--out", help="output base name (writes BASE.mop, BASE.colors)")
    gen.set_defaults(func=_cmd_gen)

    info = sub.add_parser("info", help="metrics of a construction file")
    info.add_argument("mop")
    info.set_defaults(func=_cmd_info)

    ccs = sub.add_parser("ccs", help="print the central cut spine")
    ccs.add_argument("mop")
    ccs.add_argument("--dot", help="also write a DOT rendering here")
    ccs.set_defaults(func=_cmd_ccs)

    color = sub.add_parser("color", help="staged rainbow coloring")
    color.add_argument("mop")
    color.add_argument("--out", help="write the coloring file here")
    color.add_argument("--dot", help="also write a DOT rendering here")
    color.set_defaults(func=_cmd_color)

    verify = sub.add_parser("verify", help="check a coloring exhaustively")
    verify.add_argument("mop")
    verify.add_argument("colors")
    verify.add_argument("--strong", action="store_true")
    verify.add_argument("--max-n", type=int, default=200)
    verify.add_argument("--max-colors", type=int, default=32)
    verify.set_defaults(func=_cmd_verify)

    rc = sub.add_parser("rc", help="exact rainbow connection number")
    rc.add_argument("mop")
    rc.add_argument("--strong", action="store_true")
    rc.add_argument("--out", help="certificate file (default <stem>_cert.colors)")
    rc.add_argument("--max-n", type=int, default=40)
    rc.add_argument("--max-edges", type=int, default=25)
    rc.add_argument("--timeout-s", type=float, default=None)
    rc.set_defaults(func=_cmd_rc)

    bench = sub.add_parser("bench", help="CSV benchmark table")
    bench.add_argument("--n-list", type=int, nargs="*", default=[])
    bench.add_argument("--trials", type=int, default=3)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--timeout-s", type=float, default=5.0)
    bench.add_argument("--out", help="write the CSV here instead of stdout")
    bench.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScaleLimit as exc:
        print(f"scale limit: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except MoprcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
