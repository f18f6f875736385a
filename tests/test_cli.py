"""End-to-end drives of the command-line interface via main(argv)."""

from pathlib import Path

import pytest

import moprc.metrics
from moprc import Graph, exact_rc, from_canonical, is_rainbow_connected, parse_coloring, parse_mop
from moprc.cli import main
from moprc.metrics import central_vertex, layers

MMOP4_TEXT = "MOP 4\n3 1 2\n4 2 3\n"
ALL_ONE_TEXT = "COLORING 4 1\n1 2 1\n1 3 1\n2 3 1\n2 4 1\n3 4 1\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_gen_family_then_verify_ok(workdir, capsys):
    assert main(["gen", "lad", "5"]) == 0
    out = capsys.readouterr().out
    assert "wrote lad_5.mop" in out and "wrote lad_5.colors" in out

    assert main(["verify", "lad_5.mop", "lad_5.colors"]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    # Strip colorings are strong as well.
    assert main(["verify", "lad_5.mop", "lad_5.colors", "--strong"]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_gen_random_is_reproducible(workdir, capsys):
    assert main(["gen", "random", "12", "--seed", "9", "--out", "a"]) == 0
    assert main(["gen", "random", "12", "--seed", "9", "--out", "b"]) == 0
    capsys.readouterr()
    a = Path("a.mop").read_bytes()
    assert a == Path("b.mop").read_bytes()
    assert a.startswith(b"MOP 12\n")
    assert not Path("a.colors").exists()


def test_info_reports_metrics(workdir, capsys):
    assert main(["gen", "lad", "4"]) == 0
    capsys.readouterr()
    assert main(["info", "lad_4.mop"]) == 0
    out = capsys.readouterr().out
    assert "n: 8" in out
    assert "edges: 13" in out
    assert "diam: 4" in out
    assert "rad: 2" in out
    assert "center:" in out and "layers:" in out


@pytest.mark.parametrize("n", [9, 20, 60])
def test_info_grows_no_balls_and_roots_layers_at_the_central_vertex(
    n, workdir, capsys, monkeypatch
):
    # info reads its table off one run of the MopGraph's dual-tree pass,
    # and its layers from the vertex central_vertex picks, which ball
    # growth on a plain Graph copy confirms.
    def refuse(g):
        raise AssertionError("a distance ball grew")

    passes = []
    dual_tree_pass = moprc.metrics._mop_eccentricities
    for seed in range(3):
        assert main(["gen", "random", str(n), "--seed", str(seed), "--out", "g"]) == 0
        g = from_canonical(parse_mop(Path("g.mop").read_text()))
        root = central_vertex(Graph(g.n, g.edges))
        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(moprc.metrics, "_balls", refuse)
            m.setattr(
                moprc.metrics,
                "_mop_eccentricities",
                lambda g: passes.append(g) or dual_tree_pass(g),
            )
            assert main(["info", "g.mop"]) == 0
        assert len(passes) == seed + 1
        line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("layers: "))
        printed = tuple(tuple(map(int, band.split())) for band in line[8:].split(" | "))
        assert printed == layers(g, root), seed


def test_color_verify_round_trip(workdir, capsys):
    assert main(["gen", "random", "15", "--seed", "3", "--out", "g"]) == 0
    assert main(["color", "g.mop", "--out", "g.colors"]) == 0
    out = capsys.readouterr().out
    assert "wrote g.colors" in out
    assert "radius:" in out and "colors_used:" in out and "bound_3rad:" in out
    assert main(["verify", "g.mop", "g.colors"]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_color_without_out_prints_the_file(workdir, capsys):
    Path("m.mop").write_text(MMOP4_TEXT, encoding="ascii")
    assert main(["color", "m.mop"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("COLORING 4 ")
    assert out.endswith("\n")


def test_color_dot_without_out_keeps_stdout_a_coloring(workdir, capsys):
    # `moprc color G.mop --dot G.dot > G.colors` must write a file that
    # verify accepts; the DOT notice goes to stderr.
    assert main(["gen", "lad", "5"]) == 0
    capsys.readouterr()
    assert main(["color", "lad_5.mop", "--dot", "l.dot"]) == 0
    captured = capsys.readouterr()
    assert "wrote l.dot" in captured.err
    n, _ = parse_coloring(captured.out)
    assert n == 10
    Path("s.colors").write_text(captured.out, encoding="ascii")
    assert main(["verify", "lad_5.mop", "s.colors"]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    assert Path("l.dot").read_text(encoding="ascii").startswith("graph")


def test_verify_reports_failing_pair(workdir, capsys):
    Path("m.mop").write_text(MMOP4_TEXT, encoding="ascii")
    Path("m.colors").write_text(ALL_ONE_TEXT, encoding="ascii")
    assert main(["verify", "m.mop", "m.colors"]) == 1
    assert capsys.readouterr().out.strip() == "FAIL 1 4"


def test_verify_prints_the_hub_split_on_stderr(workdir, capsys):
    # stdout stays the bare verdict; stderr gets the pairs checked and
    # how many of them a certificate, of the layers or of the hub, proved.
    assert main(["gen", "lad", "5"]) == 0
    Path("m.mop").write_text(MMOP4_TEXT, encoding="ascii")
    Path("m.colors").write_text(ALL_ONE_TEXT, encoding="ascii")
    capsys.readouterr()
    certified = []
    for mop, colors, code, verdict in [
        ("lad_5.mop", "lad_5.colors", 0, "OK\n"),
        ("m.mop", "m.colors", 1, "FAIL 1 4\n"),
    ]:
        g = from_canonical(parse_mop(Path(mop).read_text(encoding="ascii")))
        _, coloring = parse_coloring(Path(colors).read_text(encoding="ascii"))
        res = is_rainbow_connected(g, coloring)
        assert main(["verify", mop, colors]) == code
        out, err = capsys.readouterr()
        assert out == verdict
        assert err == f"pairs: {res.pairs_checked} checked, {res.pairs_certified} certified\n"
        certified.append(res.pairs_certified)
    assert certified[0] > 0  # some pairs of lad(5) are certified


def test_exact_search_writes_certificate(workdir, capsys):
    assert main(["gen", "lad", "2"]) == 0
    capsys.readouterr()
    assert main(["rc", "lad_2.mop"]) == 0
    out = capsys.readouterr().out
    assert "rc: 2" in out and "wrote lad_2_cert.colors" in out
    assert main(["verify", "lad_2.mop", "lad_2_cert.colors"]) == 0

    assert main(["rc", "lad_2.mop", "--strong", "--out", "s.colors"]) == 0
    out = capsys.readouterr().out
    assert "src: 2" in out
    assert main(["verify", "lad_2.mop", "s.colors", "--strong"]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_rc_prints_search_nodes_per_palette_size(workdir, capsys):
    assert main(["gen", "fan", "7"]) == 0
    capsys.readouterr()
    assert main(["rc", "fan_7.mop"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Size 2 is ruled out, so the search reports two node counts.
    g = from_canonical(parse_mop(Path("fan_7.mop").read_text(encoding="ascii")))
    expected = exact_rc(g).nodes
    assert len(expected) == 2
    assert lines[:2] == ["rc: 3", "nodes: " + " ".join(map(str, expected))]
    # One wall time per palette size, in the order of the node counts.
    label, *seconds = lines[2].split(" ")
    assert label == "seconds:" and len(seconds) == len(expected)
    assert all(float(s) >= 0 for s in seconds)


def test_bench_csv_shape(workdir, capsys):
    rc = main(
        ["bench", "--n-list", "10", "--trials", "2", "--seed", "5",
         "--timeout-s", "30", "--out", "bench.csv"]
    )
    assert rc == 0
    assert "wrote bench.csv" in capsys.readouterr().out
    lines = Path("bench.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "n,diam,rad,alg3_colors,bound_3rad,exact_rc,millis"
    # Five built-in strip rows plus n-list x trials.
    assert len(lines) == 1 + 5 + 2
    for row in lines[1:]:
        n, diam, rad, used, bound, exact, millis = row.split(",")
        assert int(diam) <= int(used) <= int(bound) == 3 * int(rad)
        assert float(millis) >= 0.0
        if exact:
            assert int(diam) <= int(exact) <= int(used)


def test_malformed_file_is_input_error(workdir, capsys):
    Path("bad.mop").write_text("MOP x\n", encoding="ascii")
    assert main(["info", "bad.mop"]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["info", "missing.mop"]) == 2
    assert "cannot read" in capsys.readouterr().err

    # A non-ASCII byte is bad input too, not a failed verification.
    Path("accent.mop").write_bytes("MOP 4\n3 1 2\n4 2 \u00e9\n".encode("utf-8"))
    assert main(["info", "accent.mop"]) == 2
    assert "cannot read accent.mop" in capsys.readouterr().err

    Path("ok.mop").write_text(MMOP4_TEXT, encoding="ascii")
    Path("bad.colors").write_bytes(b"COLORING 4 1\n1 2 \xb9\n")
    assert main(["verify", "ok.mop", "bad.colors"]) == 2
    assert "cannot read bad.colors" in capsys.readouterr().err


def test_mismatched_coloring_is_input_error(workdir, capsys):
    assert main(["gen", "lad", "3"]) == 0
    Path("m.colors").write_text("COLORING 4 1\n1 2 1\n", encoding="ascii")
    assert main(["verify", "lad_3.mop", "m.colors"]) == 2
    assert "coloring is for n=4" in capsys.readouterr().err


def test_scale_cap_is_exit_three(workdir, capsys):
    assert main(["gen", "random", "10", "--out", "r10"]) == 0
    assert main(["color", "r10.mop", "--out", "r10.colors"]) == 0
    assert main(["verify", "r10.mop", "r10.colors", "--max-n", "5"]) == 3
    assert "scale limit:" in capsys.readouterr().err


def test_spine_listing_and_dot(workdir, capsys):
    assert main(["gen", "lad", "4"]) == 0
    capsys.readouterr()
    assert main(["ccs", "lad_4.mop", "--dot", "spine.dot"]) == 0
    out = capsys.readouterr().out
    assert "root (" in out
    assert out.count("green (") == 2
    assert "wrote spine.dot" in out
    dot = Path("spine.dot").read_text(encoding="ascii")
    assert dot.startswith("digraph spine {")
    assert "palegreen" in dot and "lightblue" in dot


def test_degenerate_spine_note(workdir, capsys):
    assert main(["gen", "fan", "6", "--out", "f"]) == 0
    capsys.readouterr()
    assert main(["ccs", "f.mop"]) == 0
    out = capsys.readouterr().out
    assert "radius <= 1" in out

    assert main(["verify", "f.mop", "f.colors"]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("moprc ")


def test_color_reports_staged_valid(workdir, capsys):
    # The staged coloring of random_mop(22, 14) fails its check, so the
    # layered fallback is returned; that of lad(4) passes.
    assert main(["gen", "random", "22", "--seed", "14", "--out", "g"]) == 0
    assert main(["color", "g.mop", "--out", "g.colors"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("excess: 1") + 1] == "staged_valid: False"
    assert main(["gen", "lad", "4", "--out", "l"]) == 0
    assert main(["color", "l.mop", "--out", "l.colors"]) == 0
    assert "staged_valid: True" in capsys.readouterr().out.splitlines()
