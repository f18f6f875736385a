"""Brute-force oracles: connectivity checks, exact values, cuts."""

import ast
import hashlib
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprc import (
    DomainError,
    EdgeColoring,
    Graph,
    NotACut,
    ScaleLimit,
    build_ccs,
    disjoint_cut_property,
    edge,
    enumerate_small_edge_cuts,
    exact_rc,
    exact_src,
    fan,
    from_canonical,
    is_rainbow_connected,
    is_strong_rainbow_connected,
    lad,
    lad_plus,
    rainbow_coloring,
    rainbow_witness,
    random_mop_graph,
)
import moprc.metrics
from moprc import verify
from moprc.coloring import N0, _layered, _staged
from moprc.metrics import central_vertex, layers
from moprc._rng import SplitMix64

from conftest import construction_orders, independent_rainbow_ok

K3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
P3 = Graph(3, [(1, 2), (2, 3)])
P3_MONO = EdgeColoring({(1, 2): 1, (2, 3): 1})


def cycle(n: int) -> Graph:
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def test_single_color_triangle_is_connected():
    res = is_rainbow_connected(K3, EdgeColoring({e: 1 for e in K3.edges}))
    assert res.ok and res.counterexample is None
    assert res.pairs_checked == 3


def test_monochromatic_path_fails_with_counterexample():
    res = is_rainbow_connected(P3, P3_MONO)
    assert not res.ok
    assert res.counterexample == (1, 3)


def test_family_colorings_pass():
    inst = lad(4)
    assert is_rainbow_connected(inst.graph, inst.coloring).ok
    assert is_strong_rainbow_connected(inst.graph, inst.coloring).ok


def test_complete_graph_single_color_is_strongly_connected():
    k5 = Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    res = is_strong_rainbow_connected(k5, EdgeColoring({e: 1 for e in k5.edges}))
    assert res.ok


def test_strong_check_distinguishes_shortest_paths():
    # Spokes carry distinct colors except the two end spokes, which
    # share color 1. The path ends' unique geodesic runs through the
    # hub on those two spokes, so the strong check fails exactly there;
    # a one-step detour (end, neighbor, hub, other end) is still
    # rainbow, so the plain check passes.
    g = fan(7).graph
    hub = 8
    colors = {edge(j, hub): j for j in range(1, 8)}
    colors[edge(7, hub)] = 1
    for j in range(1, 7):
        colors[edge(j, j + 1)] = 7
    tweaked = EdgeColoring(colors)
    assert is_rainbow_connected(g, tweaked).ok
    res = is_strong_rainbow_connected(g, tweaked)
    assert not res.ok
    assert res.counterexample == (1, 7)


def levels(g: Graph, u: int) -> dict[int, int]:
    """Distance from u of every vertex u reaches, by plain BFS."""
    level = {u: 0}
    queue = [u]
    for x in queue:
        for y in g.neighbors(x):
            if y not in level:
                level[y] = level[x] + 1
                queue.append(y)
    return level


def rainbow_reach(g: Graph, colors: dict[tuple[int, int], int], u: int, shortest: bool = False):
    """Every vertex some rainbow walk from u reaches.

    A breadth-first search over (vertex, colors used) states, the colors
    as a bitmask; a rainbow walk contains a rainbow path. A state is
    dropped when another state at its vertex used a subset of its colors:
    that one can take every step the dropped one could. With shortest
    set, a step must lead one BFS level further from u, so every walk is
    a shortest path.
    """
    level = levels(g, u)
    minimal = {u: [0]}
    frontier = [(u, 0)]
    while frontier:
        nxt = []
        for x, used in frontier:
            for y in g.neighbors(x):
                bit = 1 << colors[edge(x, y)]
                if used & bit or (shortest and level[y] != level[x] + 1):
                    continue
                grown = used | bit
                kept = minimal.setdefault(y, [])
                if any(m & grown == m for m in kept):
                    continue
                kept.append(grown)
                nxt.append((y, grown))
        frontier = nxt
    return set(minimal)


def per_source_check(g: Graph, colors: dict[tuple[int, int], int], shortest: bool = False):
    """(ok, counterexample, pairs_checked) of a plain per-source search.

    From each u in turn, rainbow_reach finds every vertex a rainbow
    walk (a shortest one, with shortest set) reaches. Stops at the first
    u that misses some v > u, after counting the pairs of that u.
    """
    pairs = 0
    for u in range(1, g.n):
        reached = rainbow_reach(g, colors, u, shortest)
        pairs += g.n - u
        missed = [v for v in range(u + 1, g.n + 1) if v not in reached]
        if missed:
            return False, (u, missed[0]), pairs
    return True, None, pairs


@st.composite
def colored_mops(draw):
    family = draw(st.sampled_from(["random", "lad", "lad_plus"]))
    if family == "random":
        g = random_mop_graph(draw(st.integers(3, 12)), draw(st.integers(0, 2**32)))
    else:
        g = (lad if family == "lad" else lad_plus)(draw(st.integers(2, 6))).graph
    k = draw(st.integers(1, 9))
    colors = {e: draw(st.integers(1, k)) for e in sorted(g.edges)}
    return g, colors


def assert_matches_per_source_check(g: Graph, colors) -> bool:
    res = is_rainbow_connected(g, EdgeColoring(colors))
    assert (res.ok, res.counterexample, res.pairs_checked) == per_source_check(g, colors)
    assert 0 <= res.pairs_certified <= res.pairs_checked
    return res.ok


def layer_certified(g: Graph, colors) -> bool:
    """Whether the layer certificate alone proves the coloring."""
    coloring = EdgeColoring(colors)
    bit = verify._prepare(g, coloring, g.n, len(coloring.used))
    return verify._layer_certificate(coloring.colors, bit, verify._levels(g, central_vertex(g)))


@contextmanager
def layer_certificate_off(monkeypatch):
    """is_rainbow_connected runs its hub and per-source phases only."""
    with monkeypatch.context() as m:
        m.setattr(verify, "_layer_certificate", lambda colors, bit, level: False)
        yield


def checked_both_ways(monkeypatch, g: Graph, colors, **caps):
    """is_rainbow_connected's results with the layer certificate on, then off."""
    coloring = EdgeColoring(colors)
    on = is_rainbow_connected(g, coloring, **caps)
    with layer_certificate_off(monkeypatch):
        return on, is_rainbow_connected(g, coloring, **caps)


def assert_certificate_sound(monkeypatch, g: Graph, colors) -> bool:
    """Check the layer certificate against the exhaustive phases.

    Returns whether it accepted the coloring.
    """
    certified = layer_certified(g, colors)
    caps = {"max_n": g.n, "max_colors": len(set(colors.values()))}
    on, off = checked_both_ways(monkeypatch, g, colors, **caps)
    assert (on.ok, on.counterexample, on.pairs_checked) == (
        off.ok,
        off.counterexample,
        off.pairs_checked,
    )
    if certified:
        assert off.ok and on.pairs_certified == on.pairs_checked
    else:
        assert on == off
    return certified


HUB_GRAPHS = [
    K3,
    P3,
    Graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7)]),
    fan(6).graph,
    lad(5).graph,
    lad_plus(4).graph,
    random_mop_graph(30, 2),
    random_mop_graph(61, 5),
]


@pytest.mark.parametrize("g", HUB_GRAPHS, ids=repr)
def test_hub_is_least_eccentricity_degree_label(g):
    ecc = {v: max(levels(g, v).values()) for v in g.vertices()}
    assert central_vertex(g) == min(g.vertices(), key=lambda v: (ecc[v], g.degree(v), v))


@pytest.mark.parametrize(
    "g, hub",
    [
        (Graph(5, [(1, 2), (1, 3), (4, 5)]), 2),
        (Graph(4, [(1, 2), (2, 3), (1, 3)]), 4),
        (Graph(6, [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6)]), 5),
    ],
)
def test_hub_on_disconnected_graph_is_least_degree_label(g, hub):
    assert central_vertex(g) == hub


@given(colored_mops())
@settings(max_examples=150, deadline=None)
def test_hub_certificate_matches_per_source_check(case):
    assert_matches_per_source_check(*case)


@pytest.mark.parametrize("cap", [8, verify._HUB_MASK_CAP])
def test_hub_certificate_matches_on_both_verdicts(monkeypatch, cap):
    # A smaller mask cap truncates more antichains; only the split
    # between certified and searched pairs may change.
    monkeypatch.setattr(verify, "_HUB_MASK_CAP", cap)
    rng = SplitMix64(7)
    verdicts = []
    for n in range(5, 15):
        for trial in range(4):
            g = random_mop_graph(n, 900 + 10 * n + trial)
            k = 2 + rng.below(2 * n)
            colors = {e: 1 + rng.below(k) for e in sorted(g.edges)}
            verdicts.append(assert_matches_per_source_check(g, colors))
    for d in range(3, 9):
        g = lad_plus(d).graph
        k = d + rng.below(d)
        colors = {e: 1 + rng.below(k) for e in sorted(g.edges)}
        verdicts.append(assert_matches_per_source_check(g, colors))
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("cap", [8, 16, 32, 64])
def test_open_pairs_match_brute_force_rows(monkeypatch, cap):
    # v is left open exactly when no mask of u is disjoint from any mask
    # of v. Lists run from empty (a vertex the hub cannot reach) to full
    # lanes of cap masks; sparse masks let rows settle after a few masks.
    def proves(us: list[int], vs: list[int]) -> bool:
        return any(a & b == 0 for a in us for b in vs)

    monkeypatch.setattr(verify, "_HUB_MASK_CAP", cap)
    rng = SplitMix64(cap)
    for n in (1, 2, 3, 5, 9, 17):
        # Both sides of every 8-color chunk boundary the lanes are built
        # on, then palettes of up to 100 colors.
        ks = [1, 7, 8, 9, 63, 64, 65] + [1 + rng.below(100) for _ in range(5)]
        for trial, k in enumerate(ks):
            density = 1 + rng.below(8)
            masks: list[list[int]] = [[]]
            for _ in range(n):
                size = rng.below(4)
                count = (0, 1 + rng.below(cap), cap, 1 + rng.below(3))[size]
                masks.append(
                    [
                        sum(1 << j for j in range(k) if rng.below(density) == 0)
                        for _ in range(count)
                    ]
                )
            expected = [
                (u, [v for v in range(u + 1, n + 1) if not proves(masks[u], masks[v])])
                for u in range(1, n)
            ]
            assert list(verify._open_pairs(masks, n, k)) == expected, (n, trial)


def test_hub_certificate_beyond_64_colors():
    # max_colors raised past 64, so masks and lanes span up to ten chunks
    # of 8 colors. On lad(20) with every edge its own color every path is
    # rainbow, so all 780 pairs must pass, and the hub proves them all;
    # per_source_check would follow every path of lad(20) and does not
    # finish. On a 70-cycle it is cheap: each vertex has two arcs to
    # every other one.
    g = lad(20).graph
    distinct = {e: i for i, e in enumerate(sorted(g.edges), 1)}
    res = is_rainbow_connected(g, EdgeColoring(distinct), max_colors=77)
    assert (res.ok, res.counterexample, res.pairs_checked) == (True, None, 780)
    assert res.pairs_certified == 780

    cycle = Graph(70, [(i, i % 70 + 1) for i in range(1, 71)])
    distinct = {e: i for i, e in enumerate(sorted(cycle.edges), 1)}
    # Both arcs between 40 and 42 repeat a color: 40-41-42 uses X twice,
    # 42-43-...-39-40 uses Y twice. 68 colors remain.
    x, y = distinct[(40, 41)], distinct[(39, 40)]
    broken = {**distinct, (41, 42): x, (42, 43): y}
    verdicts = []
    for colors in (distinct, broken):
        res = is_rainbow_connected(cycle, EdgeColoring(colors), max_colors=70)
        assert (res.ok, res.counterexample, res.pairs_checked) == per_source_check(cycle, colors)
        verdicts.append((res.ok, res.counterexample))
    assert verdicts == [(True, None), (False, (40, 42))]


@pytest.mark.parametrize("family", [lad, lad_plus], ids=lambda f: f.__name__)
def test_verifier_matches_reference_on_strip_colorings(family, monkeypatch):
    # The staged colorings spend 2 * radius + 2 colors and the hub proves
    # every pair. The layered ones spend 3 * radius; the layer
    # certificate proves them at once, and with it off they leave some
    # pairs open to the per-source search (up to 21 on lad_plus(12)).
    # Beyond d = 12 the reference grows too slow on layered colorings.
    open_pairs = []
    for d in range(10, 17):
        g = family(d).graph
        spine = build_ccs(g)
        assert assert_matches_per_source_check(g, _staged(g, spine).colors), d
        if d <= 12:
            colors = _layered(g, spine.layers).colors
            expected = per_source_check(g, colors)
            on, off = checked_both_ways(monkeypatch, g, colors)
            assert expected[0] and on.pairs_certified == on.pairs_checked, d
            for res in (on, off):
                assert (res.ok, res.counterexample, res.pairs_checked) == expected, d
            open_pairs.append(off.pairs_checked - off.pairs_certified)
    assert max(open_pairs) > 0


def test_hub_split_of_pairs_on_returned_colorings(monkeypatch):
    # sha256 of every check's (ok, counterexample, pairs_checked,
    # pairs_certified) on the colorings rainbow_coloring returns for the
    # bench strips (their diam-color strip colorings) and random-200
    # graphs. The random-200 colorings are layered, so the hash is taken
    # with the layer certificate off, which keeps the hub rows pinned on
    # them.
    graphs = [f(d).graph for d in range(10, 21) for f in (lad, lad_plus)]
    graphs += [random_mop_graph(200, s) for s in range(1, 4)]
    splits = []
    with layer_certificate_off(monkeypatch):
        for g in graphs:
            coloring, _ = rainbow_coloring(g)
            res = is_rainbow_connected(g, coloring, max_n=g.n, max_colors=64)
            splits.append((res.ok, res.counterexample, res.pairs_checked, res.pairs_certified))
    assert hashlib.sha256(repr(splits).encode()).hexdigest() == (
        "a5ef737a854855e0aaaa2cac680730b0f522b674e3eaefa8bf589764bfab37bf"
    )
    # With it on, it proves every pair of each random-200 coloring of the
    # bench corpora 1 to 4 (graphs 1 to 6).
    for s in range(1, 7):
        g = random_mop_graph(200, s)
        res = is_rainbow_connected(g, rainbow_coloring(g)[0], max_n=g.n, max_colors=64)
        assert (res.ok, res.pairs_checked, res.pairs_certified) == (True, 19900, 19900), s


def test_layer_certificate_never_accepts_what_the_search_rejects(monkeypatch):
    # Drawn colorings of small MOPs and fans: layered, layered with one
    # to three edges recolored, random, and layered with one edge moved
    # into another layer's palette, which the certificate must refuse.
    rng = SplitMix64(21)
    graphs = [random_mop_graph(n, seed + n) for n in range(6, 31) for seed in (300, 600)]
    graphs += [f(d).graph for d in range(3, 9) for f in (lad, lad_plus)]
    accepted: dict[str, list[bool]] = {"layered": [], "recolored": [], "random": []}
    for g in graphs:
        layered = _layered(g, layers(g, central_vertex(g))).colors
        accepted["layered"].append(assert_certificate_sound(monkeypatch, g, layered))
        top = max(layered.values())
        edges = sorted(g.edges)
        for _ in range(12):
            recolored = dict(layered)
            for _ in range(1 + rng.below(3)):
                recolored[edges[rng.below(len(edges))]] = 1 + rng.below(top)
            accepted["recolored"].append(assert_certificate_sound(monkeypatch, g, recolored))
        for _ in range(4):
            k = 1 + rng.below(top)
            colors = {e: 1 + rng.below(k) for e in edges}
            accepted["random"].append(assert_certificate_sound(monkeypatch, g, colors))
        # An edge belongs to the layer of its deeper end.
        level = verify._levels(g, central_vertex(g))
        e = edges[rng.below(len(edges))]
        others = [f for f in edges if max(level[x] for x in f) != max(level[x] for x in e)]
        if others:  # a fan has one layer
            shared = dict(layered)
            shared[e] = layered[others[rng.below(len(others))]]
            assert not assert_certificate_sound(monkeypatch, g, shared)
    for n in range(3, 15):
        g = fan(n).graph
        for k in (1, 2, 3, 4):
            colors = {e: 1 + rng.below(k) for e in sorted(g.edges)}
            accepted["random"].append(assert_certificate_sound(monkeypatch, g, colors))
    # How many colorings of each kind the certificate accepts, pinned so
    # that no rewrite of it gains or loses an acceptance unnoticed.
    counts = {kind: (sum(verdicts), len(verdicts)) for kind, verdicts in accepted.items()}
    assert counts == {"layered": (62, 62), "recolored": (150, 744), "random": (9, 296)}


def test_layer_certificate_on_graphs_that_are_no_mops(monkeypatch):
    # Cycles, a tree, a disconnected graph and the hub graphs, with every
    # edge its own color and with random colorings. A disconnected graph
    # has a vertex no layer holds, so the certificate refuses it.
    rng = SplitMix64(5)
    tree = Graph(9, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (6, 7), (6, 8), (8, 9)])
    split = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)])
    graphs = [cycle(n) for n in range(3, 13)] + [tree, split] + HUB_GRAPHS
    accepted = []
    for g in graphs:
        edges = sorted(g.edges)
        drawn = [{e: i for i, e in enumerate(edges, 1)}]
        for k in (1, 2, 3, 5, 8):
            drawn.append({e: 1 + rng.below(k) for e in edges})
        for colors in drawn:
            certified = assert_certificate_sound(monkeypatch, g, colors)
            if g is split:
                assert not certified
            accepted.append(certified)
    assert (sum(accepted), len(accepted)) == (28, 120)


def test_layer_certificate_accepts_every_layered_coloring():
    # `_layered`'s lemma rests on the three facts the certificate reads,
    # so it proves every such coloring, including ones far past what the
    # exhaustive phases can finish (lad(30) spends 45 colors).
    graphs = [f(d).graph for d in range(3, 31) for f in (lad, lad_plus)]
    graphs += [random_mop_graph(n, s) for n in (10, 20, 50, 100, 200, 400) for s in range(3)]
    for g in graphs:
        assert layer_certified(g, _layered(g, layers(g, central_vertex(g))).colors), g


def test_certified_path_builds_no_search_tables(monkeypatch):
    # A layered coloring is proven from its color map and one run of the
    # BFS kernel, for the hub's levels: no sorted edge list and no step
    # table. The coloring's check reads the levels off the layers it is
    # given and runs the kernel not at all. A recolored one fails the
    # certificate and reaches the patched builders.
    g = random_mop_graph(200, 1)
    hub = central_vertex(g)
    lay = layers(g, hub)
    layered = _layered(g, lay).colors

    def refuse(*args, **kwargs):
        raise AssertionError("search table built")

    def sorted_but_edges(items, **kwargs):
        if items is g.edges:
            raise AssertionError("edges sorted")
        return sorted(items, **kwargs)

    kernel, runs = verify.breadth_first, []

    def counted(neighbors, n, sources):
        runs.append(tuple(sources))
        return kernel(neighbors, n, sources)

    monkeypatch.setattr(verify, "_steps", refuse)
    monkeypatch.setattr(verify, "breadth_first", counted)
    monkeypatch.setattr(verify, "sorted", sorted_but_edges, raising=False)
    res = is_rainbow_connected(g, EdgeColoring(layered), max_colors=64)
    assert (res.ok, res.pairs_checked, res.pairs_certified) == (True, 19900, 19900)
    assert runs == [(hub,)]
    assert verify._rainbow_verdict(g, EdgeColoring(layered), lay)
    assert runs == [(hub,)]
    # A deepest layer's color on a spoke of the hub: two layers share it.
    level = verify._levels(g, hub)
    deep = max(sorted(g.edges), key=lambda e: level[e[0]] + level[e[1]])
    spoke = min(e for e in g.edges if hub in e)
    recolored = EdgeColoring({**layered, spoke: layered[deep]})
    with pytest.raises(AssertionError, match="edges sorted"):
        is_rainbow_connected(g, recolored, max_colors=64)


def test_totality_then_caps_before_the_hub(monkeypatch):
    # A coloring that is not total is refused before either cap, and the
    # n cap before the color cap. The hub is found only after all three
    # pass, so no input over a cap grows a distance ball.
    def no_hub(g):
        raise AssertionError("central_vertex ran on a refused input")

    monkeypatch.setattr(verify, "central_vertex", no_hub)
    g = lad(5).graph
    distinct = {e: i for i, e in enumerate(sorted(g.edges), 1)}
    n, k = g.n, len(distinct)
    partial = dict(list(distinct.items())[1:])
    extra = {**distinct, (1, n + 1): 1}
    for colors in (partial, extra):
        with pytest.raises(DomainError, match="^(uncolored edges|colored non-edges), e.g."):
            is_rainbow_connected(g, EdgeColoring(colors), max_n=1, max_colors=1)
    with pytest.raises(ScaleLimit, match=f"^n={n} exceeds cap {n - 1};"):
        is_rainbow_connected(g, EdgeColoring(distinct), max_n=n - 1, max_colors=1)
    with pytest.raises(ScaleLimit, match=f"^{k} colors exceed cap {k - 1};"):
        is_rainbow_connected(g, EdgeColoring(distinct), max_n=n, max_colors=k - 1)
    with pytest.raises(AssertionError, match="central_vertex ran"):
        is_rainbow_connected(g, EdgeColoring(distinct), max_n=n, max_colors=k)


def test_only_a_plain_graph_grows_distance_balls(monkeypatch):
    # The verifier and the exact search take any graph. The verifier's
    # hub comes from a MopGraph's dual-tree pass and from a plain
    # Graph's ball growth, with the same results. The exact search reads
    # the diameter off its own BFS table, so it runs neither, on either
    # graph type.
    g = random_mop_graph(200, 1)
    coloring, _ = rainbow_coloring(g)
    small = random_mop_graph(9, 2)
    plain, plain_small = Graph(g.n, g.edges), Graph(small.n, small.edges)
    expect = is_rainbow_connected(plain, coloring)
    assert expect.ok and expect.pairs_certified == expect.pairs_checked
    expect_exact = exact_rc(small), exact_src(small)

    def refuse(g):
        raise AssertionError("a distance ball grew")

    monkeypatch.setattr(moprc.metrics, "_balls", refuse)
    assert is_rainbow_connected(g, coloring) == expect
    with pytest.raises(AssertionError, match="a distance ball grew"):
        is_rainbow_connected(plain, coloring)

    def no_pass(g):
        raise AssertionError("the dual-tree pass ran")

    monkeypatch.setattr(moprc.metrics, "_mop_eccentricities", no_pass)
    for h in (small, plain_small):
        assert (exact_rc(h), exact_src(h)) == expect_exact
    # The same table proves connectivity.
    for exact in (exact_rc, exact_src):
        with pytest.raises(DomainError, match="^graph is not connected$"):
            exact(Graph(4, [(1, 2), (3, 4)]))


def test_exact_setup_runs_one_bfs_per_vertex(monkeypatch):
    # One BFS table serves the diameter, the walk kernel's pruning and,
    # for exact_src, the shortest-path steps. The search itself runs no
    # BFS.
    kernel, runs = verify.breadth_first, []

    def counted(neighbors, n, sources):
        runs.append(tuple(sources))
        return kernel(neighbors, n, sources)

    monkeypatch.setattr(verify, "breadth_first", counted)
    cycle5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    for g in (random_mop_graph(9, 2), fan(6).graph, cycle5):
        for exact in (exact_rc, exact_src):
            del runs[:]
            exact(g)
            assert runs == [(v,) for v in g.vertices()], (exact, g)


def test_coloring_check_runs_no_bfs(monkeypatch):
    # Staged and recolored layered colorings past the layer
    # certificate, both passing and failing: the check reads the hub,
    # the probe and the levels off the layers it is given, and its
    # verdict is the checker's.
    rng = SplitMix64(41)
    cases = []
    for n in range(8, 21):
        g = random_mop_graph(n, 4100 + n)
        spine = build_ccs(g)
        layered = _layered(g, spine.layers).colors
        edges = sorted(g.edges)
        recolored = dict(layered)
        for _ in range(2):
            recolored[edges[rng.below(len(edges))]] = 1 + rng.below(max(layered.values()))
        for coloring in (_staged(g, spine), EdgeColoring(recolored)):
            if coloring is not None:
                ok = is_rainbow_connected(g, coloring, max_n=g.n, max_colors=len(coloring.used)).ok
                cases.append((g, coloring, spine.layers, ok))

    def refuse(*args):
        raise AssertionError("the check ran a BFS")

    monkeypatch.setattr(verify, "breadth_first", refuse)
    verdicts = [verify._rainbow_verdict(g, coloring, lay) for g, coloring, lay, _ in cases]
    assert verdicts == [ok for *_, ok in cases]
    assert True in verdicts and False in verdicts


def verdict_matches(g: Graph, colors) -> bool:
    """Assert that the coloring's private verdict is the public checker's."""
    coloring = EdgeColoring(colors)
    k = len(coloring.used)
    ok = verify._rainbow_verdict(g, coloring, layers(g, central_vertex(g)))
    assert ok == is_rainbow_connected(g, coloring, max_n=g.n, max_colors=k).ok, g
    return ok


def test_verdict_matches_the_checker_on_staged_colorings(monkeypatch):
    # Every construction order up to n = 8 of radius >= 2, the 800
    # acceptance graphs and the random-200 graphs of the bench corpora
    # (random_mop_graph(200, 4) has no staged coloring). A failing
    # verdict that never reached phases 1 and 2 was refuted by the probe.
    searched = []
    search = verify._searched

    def counting(*args):
        searched.append(args)
        return search(*args)

    monkeypatch.setattr(verify, "_searched", counting)
    graphs = [from_canonical(c) for n in range(3, 9) for c in construction_orders(n)]
    graphs += [random_mop_graph(n, 1000 * n + t) for n in (10, 20, 40, 60) for t in range(200)]
    graphs += [random_mop_graph(200, s) for s in range(1, 7)]
    valid = refuted = staged_count = 0
    for g in graphs:
        spine = build_ccs(g)
        staged = _staged(g, spine) if spine.radius >= 2 else None
        if staged is None:
            continue
        staged_count += 1
        del searched[:]
        ok = verify._rainbow_verdict(g, staged, spine.layers)
        refuted += not ok and not searched
        valid += ok
        assert ok == is_rainbow_connected(g, staged, max_n=g.n, max_colors=len(staged.used)).ok, g
    assert (staged_count, valid, refuted) == (3576, 3329, 72)


def test_verdict_matches_the_checker_on_recolored_layered_colorings():
    # Layered colorings pass the layer certificate; one to three
    # recolored edges send most of them on to the probe and the phases
    # after it, with both verdicts drawn.
    rng = SplitMix64(29)
    verdicts = []
    for n in range(6, 41):
        g = random_mop_graph(n, 2900 + n)
        layered = _layered(g, layers(g, central_vertex(g))).colors
        top = max(layered.values())
        edges = sorted(g.edges)
        for _ in range(8):
            recolored = dict(layered)
            for _ in range(1 + rng.below(3)):
                recolored[edges[rng.below(len(edges))]] = 1 + rng.below(top)
            verdicts.append(verdict_matches(g, recolored))
    assert True in verdicts and False in verdicts


@given(colored_mops())
@settings(max_examples=150, deadline=None)
def test_verdict_matches_the_checker_on_drawn_colorings(case):
    verdict_matches(*case)


def test_coloring_refutes_random_200_staged_colorings_before_the_hub_rows(monkeypatch):
    # From n = N0 on, rainbow_coloring builds no staged coloring, so each
    # is built and checked here as it was before that gate. This is the
    # gate's tripwire: on a sample from n = N0, with seeds off the bench
    # corpora and off the census that set N0, no staged coloring both
    # passes and spends fewer colors than the layered one. If one does,
    # N0 must be derived again.
    def staged_run(g):
        """(layered colors - staged colors, verdict), or None when
        `_staged` gives up."""
        spine = build_ccs(g)
        staged = _staged(g, spine)
        if staged is None:
            return None
        saved = len(_layered(g, spine.layers).used) - len(staged.used)
        return saved, verify._rainbow_verdict(g, staged, spine.layers)

    sample = [(n, 5_000_000 + 1000 * n + s) for n in (N0, 200, 300) for s in range(20)]
    runs = [r for r in (staged_run(random_mop_graph(*ns)) for ns in sample) if r is not None]
    assert not [r for r in runs if r[1] and r[0] > 0]
    # 57 staged colorings, 54 of them cheaper than the layered one: a
    # fix that made them pass would trip the assertion above.
    assert (len(runs), sum(saved > 0 for saved, _ in runs)) == (57, 54)

    # The staged colorings of the bench's random-200 graphs all fail,
    # and the probe's one search finds a pair with no rainbow path on
    # each, so the hub rows are never built.
    def hub_rows(*args):
        raise AssertionError("the hub rows were reached")

    monkeypatch.setattr(verify, "_open_pairs", hub_rows)
    for s in (1, 2, 3, 5, 6):
        assert staged_run(random_mop_graph(200, s))[1] is False, s


@given(colored_mops())
@settings(max_examples=100, deadline=None)
def test_strong_check_and_witnesses_match_per_source_search(case):
    g, colors = case
    coloring = EdgeColoring(colors)
    res = is_strong_rainbow_connected(g, coloring)
    assert (res.ok, res.counterexample, res.pairs_checked) == per_source_check(g, colors, True)
    for u in range(1, g.n):
        dist = levels(g, u)
        for strong in (False, True):
            reached = rainbow_reach(g, colors, u, strong)
            for v in range(u + 1, g.n + 1):
                w = rainbow_witness(g, coloring, u, v, strong=strong)
                if v not in reached:
                    assert w is None
                    continue
                assert w[0] == u and w[-1] == v and len(set(w)) == len(w)
                assert all(g.has_edge(w[i], w[i + 1]) for i in range(len(w) - 1))
                cols = [colors[edge(w[i], w[i + 1])] for i in range(len(w) - 1)]
                assert len(set(cols)) == len(cols)
                if strong:
                    assert len(w) - 1 == dist[v]


def test_disconnected_graph_fails_at_first_split_pair():
    g = Graph(4, [(1, 2), (3, 4)])
    coloring = EdgeColoring({(1, 2): 1, (3, 4): 1})
    for check in (is_rainbow_connected, is_strong_rainbow_connected):
        res = check(g, coloring)
        assert (res.ok, res.counterexample, res.pairs_checked) == (False, (1, 3), 3)


def test_verdicts_match_independent_path_enumeration():
    # Deliberately tiny palettes so both verdicts occur.
    rng = SplitMix64(2024)
    checked_fail = checked_ok = 0
    for n in (5, 6, 7, 8):
        for trial in range(6):
            g = random_mop_graph(n, 400 + 10 * n + trial)
            k = 2 + rng.below(3)
            colors = {e: 1 + rng.below(k) for e in sorted(g.edges)}
            res = is_rainbow_connected(g, EdgeColoring(colors))
            expect = independent_rainbow_ok(g, colors)
            if expect is None:
                checked_ok += 1
                assert res.ok, (n, trial, colors)
            else:
                checked_fail += 1
                assert not res.ok, (n, trial, colors)
    assert checked_ok and checked_fail


def test_scale_caps_raise():
    g = random_mop_graph(10, 1)
    mono = EdgeColoring({e: 1 for e in g.edges})
    with pytest.raises(ScaleLimit):
        is_rainbow_connected(g, mono, max_n=5)
    rainbow = EdgeColoring({e: i + 1 for i, e in enumerate(sorted(g.edges))})
    with pytest.raises(ScaleLimit):
        is_rainbow_connected(g, rainbow, max_colors=4)


def test_witness_path_revalidates():
    inst = lad(4)
    w = rainbow_witness(inst.graph, inst.coloring, 1, 8, strong=True)
    assert w == (1, 2, 4, 6, 8)
    cols = [inst.coloring.color(w[i], w[i + 1]) for i in range(len(w) - 1)]
    assert len(cols) == len(set(cols))
    assert rainbow_witness(P3, P3_MONO, 1, 3) is None
    with pytest.raises(DomainError):
        rainbow_witness(P3, P3_MONO, 1, 1)


def test_exact_values_on_small_graphs():
    assert exact_rc(K3).value == 1
    assert exact_rc(cycle(4)).value == 2
    assert exact_rc(cycle(5)).value == 3
    assert exact_rc(Graph(4, [(1, 2), (2, 3), (3, 4)])).value == 3
    assert exact_rc(fan(7).graph).value == 3
    assert exact_src(cycle(4)).value == 2
    assert exact_src(lad(3).graph).value == 3


def test_exact_result_certificate_and_bounds():
    g = cycle(6)
    res = exact_rc(g)
    assert res.value == 3
    assert len(res.certificate.used) == res.value
    assert is_rainbow_connected(g, res.certificate).ok
    assert res.infeasible_below == res.value - 1
    assert res.ruled_out == ()  # diameter 3 = answer: nothing tried below
    path = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert exact_rc(path).ruled_out == ()
    star = Graph(5, [(1, 5), (2, 5), (3, 5), (4, 5)])
    res = exact_rc(star)
    assert res.value == 4
    assert res.ruled_out == (2, 3)
    # One wall time per palette size tried; timings take no part in equality.
    assert len(res.seconds) == len(res.nodes) == 3
    assert all(s >= 0 for s in res.seconds)
    assert exact_rc(star) == res


# exact_rc / exact_src outputs: the sha256 of repr((value, ruled_out,
# sorted certificate)) and the search-tree nodes per palette size tried.
# Any sound pruning or backjumping keeps the first valid leaf in DFS
# order, so a changed digest means a changed DFS order or an unsound
# skip; a changed node count means a changed prune or jump decision.
FROZEN_EXACT = [
    pytest.param(exact_rc, Graph(5, [(1, 5), (2, 5), (3, 5), (4, 5)]),
                 "f2d2340715924320acf1030a5ca90c32ab4e15b00c15531523361814284803b6",
                 (3, 4, 5), id="rc-star5"),
    pytest.param(exact_rc, fan(8).graph,
                 "d8326c59e2f77ff168b809af094e75f9f790ccc880b9d5a917a87b701767d9d0",
                 (80, 16), id="rc-fan8"),
    pytest.param(exact_rc, fan(10).graph,
                 "ad5e67dcf3d1d7f50dc7329a851117790246c50e091f9ddb49b2198511fdbd01",
                 (80, 20), id="rc-fan10"),
    pytest.param(exact_rc, random_mop_graph(9, 1),
                 "0d18abcf56411b29465d050d5ed05011c8c607c79deae4a24865d305b6f15bb9",
                 (16,), id="rc-random9_1"),
    pytest.param(exact_rc, random_mop_graph(9, 2),
                 "ddc9dcba65c4132018b5af3d2246fb8d2cc535a1645207d1ec26e1a561dd754e",
                 (35,), id="rc-random9_2"),
    pytest.param(exact_rc, random_mop_graph(10, 1),
                 "8bcaf3f35f32d9a17584a96db23986fc2ed3cfa071d8f39e952a49ac541c3477",
                 (18,), id="rc-random10_1"),
    pytest.param(exact_rc, random_mop_graph(10, 2),
                 "289a023b2ed5db33ad1fe25de48c35ef91c04e455108047601123d329c96cf80",
                 (22,), id="rc-random10_2"),
    pytest.param(exact_rc, random_mop_graph(11, 1),
                 "5980abd61f0bcfdd710a89f2bff0f24a17b6f6d1755084ed2994e2655ed75cf1",
                 (315,), id="rc-random11_1"),
    pytest.param(exact_rc, random_mop_graph(11, 2),
                 "d8c13c9b168872f011045a4c794dd1c43156bf3eac18bdddeb1a6f3338b86801",
                 (38,), id="rc-random11_2"),
    pytest.param(exact_src, fan(8).graph,
                 "18a43c15f24ec68444bea4e15679a6805aa49fd588c52b5f0a435391ea4c8bd1",
                 (80, 129), id="src-fan8"),
    pytest.param(exact_src, lad(4).graph,
                 "25a62fff444437157583cabaa0aac62dafd5ebacf880b23a3dae671aba4becaf",
                 (14,), id="src-lad4"),
    pytest.param(exact_src, random_mop_graph(8, 1),
                 "b9db01d7739a499ee148aae1ad355ad9d953659c55d93ee94ea28e8f9fd9b57c",
                 (14,), id="src-random8_1"),
]


@pytest.mark.parametrize("solver,g,digest,nodes", FROZEN_EXACT)
def test_frozen_exact_outputs(solver, g, digest, nodes):
    res = solver(g)
    key = (res.value, res.ruled_out, sorted(res.certificate.colors.items()))
    assert hashlib.sha256(repr(key).encode()).hexdigest() == digest
    assert res.nodes == nodes
    assert len(res.nodes) == len(res.ruled_out) + 1


def test_exact_search_respects_caps():
    with pytest.raises(ScaleLimit):
        exact_rc(random_mop_graph(30, 1))
    with pytest.raises(ScaleLimit):
        exact_rc(fan(10).graph, timeout_s=0.0)
    with pytest.raises(ScaleLimit):
        # The deadline is checked as each palette size starts, so even a
        # search that would end before its 256th node times out.
        exact_rc(K3, timeout_s=0.0)


def restricted_growth_colorings(m: int, k: int):
    """Colorings of m edges with colors 1..k in the exact search's DFS
    order: edge i takes colors ascending, each at most one above the
    largest color before it."""
    def grow(prefix, top):
        if len(prefix) == m:
            yield prefix
            return
        for c in range(1, min(top + 1, k) + 1):
            yield from grow(prefix + [c], max(top, c))

    yield from grow([], 0)


DFS_ORDER_GRAPHS = {
    "K3": K3,
    "P3": P3,
    "C4": cycle(4),
    "C5": cycle(5),
    "C6": cycle(6),
    "star5": Graph(5, [(1, 5), (2, 5), (3, 5), (4, 5)]),
    "fan5": fan(5).graph,
    "lad2": lad(2).graph,
    "lad3": lad(3).graph,
    "lad_plus2": lad_plus(2).graph,
    "random6_1": random_mop_graph(6, 1),
    "random6_2": random_mop_graph(6, 2),
}


@pytest.mark.parametrize("g", DFS_ORDER_GRAPHS.values(), ids=DFS_ORDER_GRAPHS.keys())
@pytest.mark.parametrize(
    "solver, check",
    [(exact_rc, is_rainbow_connected), (exact_src, is_strong_rainbow_connected)],
    ids=["rc", "src"],
)
def test_exact_certificate_is_first_valid_coloring_in_dfs_order(g, solver, check):
    res = solver(g)
    edges = sorted(g.edges)
    first = next(
        colors
        for colors in restricted_growth_colorings(len(edges), res.value)
        if check(g, EdgeColoring(dict(zip(edges, colors)))).ok
    )
    assert res.certificate.colors == dict(zip(edges, first))


def test_strong_exact_search_on_fan10():
    # Once 257 s and 10.9 M nodes; forward checking needs about 108 k.
    res = exact_src(fan(10).graph, timeout_s=60)
    assert res.value == 4
    assert res.ruled_out == (2, 3)


def plain_rainbow_walk(adj_idx, bits, u, v, k):
    """`verify._rainbow_walk` without its distance pruning, for comparison."""
    best = [[] for _ in adj_idx]
    best[u].append(0)
    frontier = [(u, 0, None)]
    for _ in range(k):
        nxt = []
        for x, mask, trail in frontier:
            for w, ei in adj_idx[x]:
                b = bits[ei]
                if mask & b:
                    continue
                nm = mask | b
                bw = best[w]
                for old in bw:
                    if old & nm == old:
                        break
                else:
                    if w == v:
                        walk = [ei]
                        while trail is not None:
                            ei_back, trail = trail
                            walk.append(ei_back)
                        return walk
                    bw.append(nm)
                    nxt.append((w, nm, (ei, trail)))
        if not nxt:
            break
        frontier = nxt
    return None


class CountedBits(list):
    """A list of color bits that counts its reads: one per step tried."""

    def __init__(self, bits):
        super().__init__(bits)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def walk_and_reads(kernel, adj_idx, bits, *args):
    """What the walk kernel returns, and the steps it tried."""
    counted = CountedBits(bits)
    return kernel(adj_idx, counted, *args), counted.reads


@st.composite
def partial_walk_cases(draw):
    n = draw(st.integers(3, 20))
    g = random_mop_graph(n, draw(st.integers(0, 2**32)))
    edges = sorted(g.edges)
    top = draw(st.integers(1, 8))
    # Color 0 leaves an edge unassigned: a wildcard bit of 0.
    bits = [0 if c == 0 else 1 << c for c in (draw(st.integers(0, top)) for _ in edges)]
    u = draw(st.integers(1, n))
    v = draw(st.integers(1, n).filter(lambda x: x != u))
    k = draw(st.integers(levels(g, u)[v], n - 1))
    return g, edges, bits, u, v, k, draw(st.booleans())


@given(partial_walk_cases())
@settings(max_examples=300, deadline=None)
def test_pruned_walk_kernel_matches_the_unpruned_one(case):
    g, edges, bits, u, v, k, shortest = case
    steps = verify._steps(g, edges, range(len(edges)))
    if shortest:
        steps = verify._shortest_steps(g, steps, verify._levels(g, u))
    plain, plain_reads = walk_and_reads(plain_rainbow_walk, steps, bits, u, v, k)
    far = verify._levels(g, v)
    walk, reads = walk_and_reads(verify._rainbow_walk, steps, bits, u, v, k, far)
    assert walk == plain
    assert reads <= plain_reads


def test_exact_search_walk_searches_on_random14(monkeypatch):
    # Every walk search the exact search makes returns what the unpruned
    # kernel returns; the distance pruning tries fewer than half of its
    # steps. Re-searching each broken walk from scratch made 14,847
    # searches; trying the pair's spare walk first left 9,940,
    # remembering each pair's failed searches left 3,857 over 2,147
    # nodes, and backjumping over the edges a failure never read leaves
    # 3,841 over 2,061 nodes: the 91 initial walks and 3,750 in the
    # search.
    kernel = verify._rainbow_walk
    calls = pruned_reads = plain_reads = 0

    def counted(adj_idx, bits, u, v, k, far):
        nonlocal calls, pruned_reads, plain_reads
        plain, reads = walk_and_reads(plain_rainbow_walk, adj_idx, bits, u, v, k)
        walk, pruned = walk_and_reads(kernel, adj_idx, bits, u, v, k, far)
        assert walk == plain
        calls += 1
        plain_reads += reads
        pruned_reads += pruned
        return walk

    monkeypatch.setattr(verify, "_rainbow_walk", counted)
    res = exact_rc(random_mop_graph(14, 1))
    assert res.nodes == (2061,)
    assert calls == 3841 < 9940
    assert (pruned_reads, plain_reads) == (103260, 233189)


@pytest.mark.parametrize(
    "solver, g",
    [
        (exact_rc, random_mop_graph(12, 1)),
        (exact_rc, random_mop_graph(14, 1)),
        (exact_src, fan(8).graph),
    ],
    ids=["rc-random12_1", "rc-random14_1", "src-fan8"],
)
def test_remembered_walk_failures_are_failures(monkeypatch, solver, g):
    # Every failure the memo answers is one a fresh search would find,
    # and the search with the memo bypassed gives the same result.
    helper = verify._search_unless_failed
    hits = 0

    def checked(failed, key, adj_idx, bits, u, v, k, far):
        nonlocal hits
        if key in failed:
            hits += 1
            assert verify._rainbow_walk(adj_idx, bits, u, v, k, far) is None
        return helper(failed, key, adj_idx, bits, u, v, k, far)

    monkeypatch.setattr(verify, "_search_unless_failed", checked)
    res = solver(g)
    assert hits > 0
    monkeypatch.setattr(
        verify, "_search_unless_failed", lambda failed, key, *args: helper(set(), key, *args)
    )
    assert solver(g) == res  # value, ruled_out, certificate and nodes


def chronological_search_k(edges_sorted, steps, far, pairs, k, deadline):
    """`verify._search_k` without backjumping, for comparison: on each
    failure the DFS tries the next color of the deepest edge it has
    colored (chronological backtracking). Forward checking, the spares
    and the memo are the same."""
    m = len(edges_sorted)
    bits = [0] * m
    walks = [verify._rainbow_walk(steps[u], bits, u, v, k, far[v]) for u, v in pairs]
    spares = [None] * len(pairs)
    users = [set() for _ in range(m)]
    for p, walk in enumerate(walks):
        for ei in walk:
            users[ei].add(p)
    width = k.bit_length()
    state = 0
    regions = [0] * len(pairs)
    failed = [set() for _ in pairs]
    ticks = 0

    def region(u, v):
        du, dv = far[u], far[v]
        full = (1 << width) - 1
        fields = 0
        for i, (a, b) in enumerate(edges_sorted):
            if min(du[a] + dv[b], du[b] + dv[a]) < k:
                fields |= full << i * width
        return fields

    def rainbow(walk):
        mask = 0
        for ei in walk:
            b = bits[ei]
            if mask & b:
                return False
            mask |= b
        return True

    def consistent(idx):
        for p in list(users[idx]):
            walk = walks[p]
            if rainbow(walk):
                continue
            found = spares[p]
            if found is None or not rainbow(found):
                u, v = pairs[p]
                fails = failed[p]
                found = verify._search_unless_failed(
                    fails, state & regions[p], steps[u], bits, u, v, k, far[v]
                )
                if found is None:
                    if not fails:
                        regions[p] = region(u, v)
                    fails.add(state & regions[p])
                    return False
            for ei in walk:
                users[ei].discard(p)
            for ei in found:
                users[ei].add(p)
            walks[p] = found
            spares[p] = walk
        return True

    def dfs(idx, max_used):
        nonlocal ticks, state
        ticks += 1
        if idx == m:
            return True
        shift = idx * width
        for c in range(1, min(max_used + 1, k) + 1):
            bits[idx] = 1 << c
            state ^= c << shift
            if consistent(idx) and dfs(idx + 1, max(max_used, c)):
                return True
            bits[idx] = 0
            state ^= c << shift
        return False

    if dfs(0, 0):
        colors = {e: bits[i].bit_length() - 1 for i, e in enumerate(edges_sorted)}
        return EdgeColoring(colors), ticks
    return None, ticks


def backjump_cases():
    """The graphs the backjumping search is checked on, with their n."""
    for n in range(4, 9):
        for c in construction_orders(n):
            yield f"order{n}", from_canonical(c)
    for d in range(3, 11):
        yield f"fan{d}", fan(d).graph
    for d in range(2, 6):
        yield f"lad{d}", lad(d).graph
    yield "star5", Graph(5, [(1, 5), (2, 5), (3, 5), (4, 5)])
    yield "C5", cycle(5)
    yield "C6", cycle(6)
    # Each refutes a palette of 2 colors.
    yield "random10_161", random_mop_graph(10, 161)
    yield "random10_262", random_mop_graph(10, 262)


@pytest.mark.parametrize(
    "solver, max_n", [(exact_rc, 10), (exact_src, 9)], ids=["rc", "src"]
)
def test_backjumping_matches_the_chronological_search(monkeypatch, solver, max_n):
    # Backjumping skips only subtrees without a valid leaf, so value,
    # ruled_out and certificate equal the chronological search's, and
    # it visits no more nodes at any palette size.
    fewer = 0
    for name, g in backjump_cases():
        if g.n > max_n:
            continue
        res = solver(g)
        with monkeypatch.context() as patched:
            patched.setattr(verify, "_search_k", chronological_search_k)
            ref = solver(g)
        assert (res.value, res.ruled_out, res.certificate) == (
            ref.value, ref.ruled_out, ref.certificate
        ), name
        assert all(a <= b for a, b in zip(res.nodes, ref.nodes, strict=True)), name
        fewer += res.nodes != ref.nodes
    assert fewer > 0


@pytest.mark.parametrize("strong", [False, True])
def test_witness_at_the_length_limit_and_across_components(strong):
    # The walk kernel searches min(n - 1, colors) edges. A path on five
    # vertices meets the n - 1 limit and a 3-colored 6-cycle the color
    # limit, each with a pair exactly that far apart.
    path5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    rainbow = EdgeColoring({(1, 2): 1, (2, 3): 2, (3, 4): 3, (4, 5): 4})
    assert rainbow_witness(path5, rainbow, 1, 5, strong=strong) == (1, 2, 3, 4, 5)
    c6 = cycle(6)
    colors = {edge(i, i % 6 + 1): (i - 1) % 3 + 1 for i in range(1, 7)}
    assert rainbow_witness(c6, EdgeColoring(colors), 1, 4, strong=strong) == (1, 2, 3, 4)
    # Vertices in other components are farther than any walk; a
    # disconnected graph yields None, not an error.
    split = Graph(4, [(1, 2), (3, 4)])
    mono = EdgeColoring({(1, 2): 1, (3, 4): 1})
    assert rainbow_witness(split, mono, 1, 3, strong=strong) is None
    assert rainbow_witness(split, mono, 4, 3, strong=strong) == (4, 3)


def test_small_cut_enumeration():
    path = Graph(4, [(1, 2), (2, 3), (3, 4)])
    singles = enumerate_small_edge_cuts(path, max_size=1)
    assert {frozenset({e}) for e in path.edges} == set(singles)
    k3_cuts = enumerate_small_edge_cuts(K3, max_size=2)
    assert all(len(c) == 2 for c in k3_cuts)
    assert len(k3_cuts) == 3
    strip_cuts = enumerate_small_edge_cuts(lad(3).graph, max_size=3)
    assert frozenset({(2, 4), (3, 4), (3, 5)}) in strip_cuts
    for a in strip_cuts:
        for b in strip_cuts:
            assert not (a < b), "cuts must be minimal"
    with pytest.raises(ScaleLimit):
        enumerate_small_edge_cuts(random_mop_graph(61, 1))


def test_disjoint_cut_colors():
    g = lad(4).graph
    coloring, _ = rainbow_coloring(g)
    cuts = [c for c in enumerate_small_edge_cuts(g, max_size=2) if len(c) == 2]
    s1, s2 = cuts[0], cuts[1]
    assert disjoint_cut_property(g, coloring, s1, s2)
    with pytest.raises(DomainError):
        disjoint_cut_property(g, coloring, s1, s1)
    with pytest.raises(NotACut):
        disjoint_cut_property(g, coloring, s1, frozenset({(2, 3)}))
    # The two path ends of a fan cross both corner cuts, and the hand
    # coloring places two colors on the union.
    f = fan(7)
    f_cuts = [c for c in enumerate_small_edge_cuts(f.graph, max_size=2) if len(c) == 2]
    assert disjoint_cut_property(f.graph, f.coloring, f_cuts[0], f_cuts[1])


def test_exact_value_dominates_diameter_on_small_mops():
    from moprc import ecc_diam_rad_center

    for n in range(4, 9):
        g = random_mop_graph(n, 77 + n)
        s = ecc_diam_rad_center(g)
        res = exact_rc(g)
        assert s.diameter <= res.value <= g.m
        assert res.value <= 3 * s.radius


def frozen_verifier_cases():
    """Seeded random colorings, then lad(12)'s coloring with edge (1, 3)
    recolored so that it fails. The two n = 30 colorings fill some hub
    antichains to _HUB_MASK_CAP, so the hub phase's split into certified
    and searched pairs shows in pairs_certified."""
    for n, seed, k in ((8, 1, 3), (10, 2, 5), (14, 3, 8), (30, 2, 16), (30, 4, 16)):
        g = random_mop_graph(n, seed)
        rng = SplitMix64(seed)
        yield g, EdgeColoring({e: 1 + rng.below(k) for e in sorted(g.edges)})
    inst = lad(12)
    colors = dict(inst.coloring.colors)
    colors[(1, 3)] = 2
    yield inst.graph, EdgeColoring(colors)


def test_frozen_verifier_outputs():
    # sha256 of every check's (ok, counterexample, pairs_checked,
    # pairs_certified), and of every pair's plain and strong witness,
    # recorded before the verifier's searches were merged.
    verdicts, witnesses = [], []
    for g, coloring in frozen_verifier_cases():
        caps = {"max_n": g.n, "max_colors": 64}
        for check in (is_rainbow_connected, is_strong_rainbow_connected):
            res = check(g, coloring, **caps)
            verdicts.append((res.ok, res.counterexample, res.pairs_checked, res.pairs_certified))
        for u in range(1, g.n):
            for v in range(u + 1, g.n + 1):
                witnesses.append(
                    (
                        rainbow_witness(g, coloring, u, v, **caps),
                        rainbow_witness(g, coloring, u, v, strong=True, **caps),
                    )
                )
    assert False in [ok for ok, *_ in verdicts] and True in [ok for ok, *_ in verdicts]
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == (
        "2bef6b5fad004921e895d6291d1b2b0dc6bc0b3e4bde57bf52d1a1c22c13af46"
    )
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == (
        "53f08e91b750547b7f654a053c7d5bfd0ea2477c1ac3edcf0b12128bd46ca517"
    )


@pytest.mark.parametrize(
    "module,allowed",
    [
        ("verify", {"core", "errors", "metrics"}),
        ("metrics", {"core", "errors", "metrics"}),
        ("core", {"errors"}),
    ],
)
def test_oracle_imports_no_constructive_code(module, allowed):
    # The verifier and what it runs on import the standard library and
    # these package modules only, so no constructive code can leak into
    # the oracle that checks it.
    tree = ast.parse(Path(verify.__file__).with_name(f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module in allowed, ast.dump(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, name
