"""Rainbow coloring construction: bound, determinism, oracle agreement."""

import hashlib
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moprc.coloring
import moprc.metrics
import moprc.spine
import moprc.verify
from moprc import (
    CanonicalMop,
    ColoringStats,
    EdgeColoring,
    Graph,
    build_ccs,
    ecc_diam_rad_center,
    edge,
    eta,
    fan,
    from_canonical,
    is_rainbow_connected,
    lad,
    lad_plus,
    layers,
    mop_from_edges,
    rainbow_coloring,
    random_mop_graph,
)
from moprc.metrics import central_vertex
from moprc.spine import primary_secondary

from conftest import all_simple_paths, construction_orders

K3 = mop_from_edges(3, [(1, 2), (1, 3), (2, 3)])

# One mid-size run pinned exactly: any change to pass order or
# tie-breaking shows up here first.
FROZEN_N10 = {
    (1, 2): 6,
    (1, 3): 2,
    (1, 4): 5,
    (1, 6): 6,
    (2, 3): 1,
    (2, 4): 4,
    (2, 5): 6,
    (2, 7): 1,
    (2, 8): 2,
    (2, 10): 1,
    (4, 5): 5,
    (4, 6): 4,
    (5, 7): 2,
    (5, 9): 1,
    (7, 8): 3,
    (7, 9): 3,
    (8, 10): 3,
}


def _check(g, require_colors=None):
    col, stats = rainbow_coloring(g)
    col.check_total(g)
    summary = ecc_diam_rad_center(g)
    diam, rad = summary.diameter, summary.radius
    assert stats.radius == rad
    assert stats.bound == 3 * rad == rad * eta(g)
    assert stats.colors_used == len(col.used)
    assert diam <= stats.colors_used <= stats.bound
    assert stats.excess == stats.colors_used - (2 * rad + 2) <= rad - 2
    assert is_rainbow_connected(g, col).ok
    if require_colors is not None:
        assert stats.colors_used == require_colors
    return col, stats


def test_triangle_needs_one_color():
    _check(K3, require_colors=1)


def test_hub_graph_uses_fan_scheme():
    col, stats = _check(fan(9).graph, require_colors=3)
    assert stats.radius == 1 and stats.bound == 3
    assert col.used == frozenset({1, 2, 3})


def test_frozen_mid_size_run():
    g = random_mop_graph(10, 10010)
    col, stats = rainbow_coloring(g)
    assert col.colors == FROZEN_N10
    assert (stats.radius, stats.colors_used, stats.bound, stats.excess) == (2, 6, 6, 0)


# sha256 of repr(sorted(colors.items())), pinned beyond n = 10.
FROZEN_DIGESTS = {
    # The staged coloring fails its check here (at 12 colors), so the
    # digest is that of the layered fallback.
    "random_mop(120,2)": (
        lambda: random_mop_graph(120, 2),
        "fc0158ccc852328e6a3028c6967176ffb57c9a7d7f1b4ee5070575e800f22b32",
    ),
    # The strips take the diam-color strip coloring.
    "lad(15)": (
        lambda: lad(15).graph,
        "02e8c3f248e1e3c196a05ac973112b63ef4caeefde9aa69314e9828ce1f5a360",
    ),
    "lad_plus(12)": (
        lambda: lad_plus(12).graph,
        "1ba8dac1bbb8a6f1feb1ef530a9d25adfa73bc6ece71bdaa913944fc3a599e27",
    ),
    # Node (28, 47) has no route within 2 * radius - 2 edges, so the
    # staged coloring gives up before its check and the digest is that
    # of the layered fallback.
    "random_mop(60,60192)": (
        lambda: random_mop_graph(60, 60192),
        "1a681b52dd4844e96aca64c7034468b5c958659a2187d1b3e638b8e60048f321",
    ),
}


@pytest.mark.parametrize("name", list(FROZEN_DIGESTS))
def test_frozen_digests_beyond_n10(name):
    make, digest = FROZEN_DIGESTS[name]
    col, _ = rainbow_coloring(make())
    assert hashlib.sha256(repr(sorted(col.colors.items())).encode()).hexdigest() == digest


# (graph, radius, path): at radius 2 no long path is "routed" at all,
# a "layered" graph routes every node and then fails its check, a
# "strip" or a "fan" is colored before any spine is built, and a
# "large" graph (n >= N0) takes the layered coloring with no spine.
CALL_COUNT_GRAPHS = {
    "random_mop(10,10010)": (lambda: random_mop_graph(10, 10010), 2, "staged"),
    "random_mop(60,3)": (lambda: random_mop_graph(60, 3), 4, "routed"),
    "random_mop(120,2)": (lambda: random_mop_graph(120, 2), 4, "layered"),
    "random_mop(200,1)": (lambda: random_mop_graph(200, 1), 5, "large"),
    "lad(12)": (lambda: lad(12).graph, 6, "strip"),
    "lad_plus(10)": (lambda: lad_plus(10).graph, 5, "strip"),
    "fan(8)": (lambda: fan(8).graph, 1, "fan"),
}


@pytest.mark.parametrize("name", list(CALL_COUNT_GRAPHS))
def test_one_realization_per_node_and_one_eccentricity_pass(name, monkeypatch):
    make, radius, path = CALL_COUNT_GRAPHS[name]
    g = make()
    spine = build_ccs(g)
    assert spine.radius == radius
    calls = {"realize": 0, "ecc": 0, "ends": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def refuse(g):
        raise AssertionError("a distance ball grew")

    monkeypatch.setattr(
        moprc.coloring, "realize_paths", counting("realize", moprc.coloring.realize_paths)
    )
    # Count the eccentricity table under every name a moprc module binds
    # it to. The root, for the spine, the layered coloring and the
    # verifier's hub alike, is read off the MopGraph's dual-tree pass,
    # so no distance ball grows.
    ecc = ecc_diam_rad_center
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("moprc") and getattr(mod, "ecc_diam_rad_center", None) is ecc:
            monkeypatch.setattr(mod, "ecc_diam_rad_center", counting("ecc", ecc))
    monkeypatch.setattr(moprc.metrics, "_balls", refuse)
    # Each green node's (primary, secondary) pair is derived once.
    ends = counting("ends", moprc.spine.primary_secondary)
    monkeypatch.setattr(moprc.spine, "primary_secondary", ends)
    coloring, _ = rainbow_coloring(g)
    expected = len(spine.nodes) - 1 if path in ("routed", "layered") else 0
    spined = path not in ("strip", "fan", "large")
    assert calls == {
        "realize": expected,
        "ecc": 0,
        "ends": (len(spine.nodes) - 1) * spined,
    }
    result = is_rainbow_connected(g, coloring)
    assert result.ok
    if path in ("layered", "large"):
        # The layer certificate proves every pair of a layered coloring.
        assert result.pairs_certified == result.pairs_checked


def test_deterministic_across_runs():
    g = random_mop_graph(40, 77)
    c1, s1 = rainbow_coloring(g)
    c2, s2 = rainbow_coloring(g)
    assert c1.colors == c2.colors
    assert s1 == s2


def test_strip_family_spots():
    for d in range(2, 7):
        _check(lad(d).graph)
        _check(lad_plus(d).graph)


def test_strips_meet_the_paper_palette():
    # The abstract's 2 * rad + 2 + c colors with c = 0: the staged
    # coloring of every strip is rainbow connected at that count, though
    # rainbow_coloring returns the strip's diam-color coloring instead.
    for d in range(3, 31):
        for fam in (lad, lad_plus):
            g = fam(d).graph
            spine = build_ccs(g)
            col = moprc.coloring._staged(g, spine)
            assert len(col.used) == 2 * spine.radius + 2, (fam.__name__, d)
            res = is_rainbow_connected(g, col, max_n=g.n, max_colors=3 * spine.radius)
            assert res.ok, (fam.__name__, d)


def _counting_checks(monkeypatch) -> list:
    """Record every exact check rainbow_coloring makes, by either name."""
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        moprc.coloring, "_rainbow_verdict", counting(moprc.coloring._rainbow_verdict)
    )
    monkeypatch.setattr(
        moprc.verify, "is_rainbow_connected", counting(moprc.verify.is_rainbow_connected)
    )
    return calls


def test_strips_get_diam_colors_without_a_check(monkeypatch):
    # rc = diam on the paper's strips, met by construction: no exact
    # check runs, and the checker accepts each coloring afterwards.
    colorings = []
    calls = _counting_checks(monkeypatch)
    for d in range(2, 31):
        for fam in (lad, lad_plus):
            g = fam(d).graph
            col, stats = rainbow_coloring(g)
            diam = ecc_diam_rad_center(g).diameter
            assert stats.colors_used == len(col.used) == diam == d, (fam.__name__, d)
            assert stats.staged_valid
            colorings.append((g, col))
    assert calls == []
    monkeypatch.undo()
    for g, col in colorings:
        assert is_rainbow_connected(g, col, max_n=g.n, max_colors=len(col.used)).ok, g


def _pair_class_ears(g) -> list[int]:
    """The ears whose BFS distance classes are each one vertex or two
    adjacent ones, read off `layers`."""
    return [
        p
        for p in g.vertices()
        if g.degree(p) == 2
        and all(len(c) == 1 or (len(c) == 2 and g.has_edge(*c)) for c in layers(g, p))
    ]


def test_strip_coloring_fires_exactly_on_pair_class_ears(monkeypatch):
    # Every MOP up to n = 8, by construction order, and seeded random
    # MOPs up to n = 20. The strip coloring applies exactly when the
    # radius is at least 2 and some ear's classes are single vertices or
    # edges; its coloring, read from the first such ear, uses diam
    # colors, is rainbow connected, and is returned with no check.
    graphs = [from_canonical(c) for n in range(3, 9) for c in construction_orders(n)]
    graphs += [random_mop_graph(n, s) for n in range(4, 21) for s in range(100)]
    fired = one_ear = not_first = 0
    calls = _counting_checks(monkeypatch)
    for g in graphs:
        rad = build_ccs(g).radius
        ears = _pair_class_ears(g) if rad >= 2 else []
        col = moprc.coloring._strip_coloring(g) if rad >= 2 else None
        assert (col is not None) == bool(ears), g
        if col is None:
            continue
        fired += 1
        one_ear += len(ears) == 1
        not_first += ears[0] != min(v for v in g.vertices() if g.degree(v) == 2)
        dist = {v: k for k, layer in enumerate(layers(g, ears[0])) for v in layer}
        assert col.colors == {(u, v): max(dist[u], dist[v]) for u, v in g.edges}
        del calls[:]
        assert rainbow_coloring(g)[0] == col
        assert calls == []
        summary = ecc_diam_rad_center(g)
        assert len(col.used) == summary.diameter == summary.ecc[ears[0]]
        assert is_rainbow_connected(g, col).ok, g
    assert (fired, one_ear, not_first) == (458, 125, 62)


# sha256 over the colorings of lad(d) and lad_plus(d), d = 3..60, then
# fan(k), k = 3..60, as rainbow_coloring gave them while it built the
# cut spine for every MOP.
FROZEN_NO_SPINE = "8f10b5cbfe9345476876d11ffa52668343cd90d1174169679979f61d26bad5c9"


def test_strips_and_fans_never_build_the_spine(monkeypatch):
    # Both colorings valid by design are decided from degrees and at
    # most two BFS runs: no cut spine, no distance balls, and the same
    # colorings and stats as when the spine came first.
    graphs = [fam(d).graph for fam in (lad, lad_plus) for d in range(3, 61)]
    graphs += [fan(k).graph for k in range(3, 61)]
    radii = [ecc_diam_rad_center(g).radius for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("a strip or a fan built the cut spine")

    for mod in (moprc.spine, moprc.coloring):
        monkeypatch.setattr(mod, "build_ccs", refuse)
    monkeypatch.setattr(moprc.metrics, "_balls", refuse)
    digest = hashlib.sha256()
    for g, rad in zip(graphs, radii):
        col, stats = rainbow_coloring(g)
        assert stats == ColoringStats(rad, len(col.used), True), g
        digest.update(repr(sorted(col.colors.items())).encode())
    assert digest.hexdigest() == FROZEN_NO_SPINE


def _two_ear_mops(n_max: int):
    """MOPs whose triangles form one strip (the dual tree is a path),
    n = 4..n_max: vertex i goes on the edge between vertex i - 1 and
    one end of the edge vertex i - 1 went on. Vertex 4 always takes
    end 1, since taking end 2 only swaps labels 1 and 2."""
    for n in range(4, n_max + 1):
        for turns in product((0, 1), repeat=n - 4):
            low, high = {3: 1, 4: 1}, {3: 2, 4: 3}
            for i, turn in zip(range(5, n + 1), turns):
                low[i], high[i] = (low[i - 1], high[i - 1])[turn], i - 1
            yield from_canonical(CanonicalMop(n, low, high))


def test_a_pair_class_ear_means_two_ears_and_half_diameter_radius():
    # The two facts rainbow_coloring's strip gate rests on (proved in
    # _strip_coloring's docstring). A vertex of degree n - 1 exists
    # exactly at radius 1. Above it, a MOP with an ear whose classes are
    # single vertices or edges has exactly two ears, and its radius is
    # ceil(ecc(p) / 2) for each such ear p. Below radius 2 the gate is
    # never reached: fan(3) and fan(4) have pair-class ears and a hub.
    graphs = [from_canonical(c) for n in range(3, 10) for c in construction_orders(n)]
    graphs += [random_mop_graph(n, s) for n in range(4, 41) for s in range(100)]
    graphs += list(_two_ear_mops(16))
    fired = 0
    for g in graphs:
        summary = ecc_diam_rad_center(g)
        hub = any(g.degree(v) == g.n - 1 for v in g.vertices())
        assert hub == (summary.radius <= 1), g
        if hub:
            continue
        ears = _pair_class_ears(g)
        assert (moprc.coloring._strip_coloring(g) is not None) == bool(ears), g
        if not ears:
            continue
        fired += 1
        assert sum(g.degree(v) == 2 for v in g.vertices()) == 2, g
        assert all(summary.radius == (summary.ecc[p] + 1) // 2 for p in ears), g
    assert fired == 2166


def test_random_spots_within_bound_and_connected():
    for n, seed in [(12, 4), (25, 13), (50, 6), (80, 91), (120, 2)]:
        _check(random_mop_graph(n, seed))


def test_sun_graph():
    from moprc import CanonicalMop

    g = from_canonical(CanonicalMop(6, {4: 1, 5: 2, 6: 1}, {4: 2, 5: 3, 6: 3}))
    _check(g)


@given(st.integers(min_value=3, max_value=45), st.integers(min_value=0, max_value=2**63))
@settings(max_examples=50, deadline=None)
def test_oracle_and_bound_property(n, seed):
    _check(random_mop_graph(n, seed))


# Each of these raised ScaleLimit while a repair loop checked its
# colorings under the public verifier caps (n <= 200, 32 colors).
BEYOND_PUBLIC_CAPS = {
    "lad(21)": lambda: lad(21).graph,
    "lad_plus(21)": lambda: lad_plus(21).graph,
    "lad(24)": lambda: lad(24).graph,
    "lad(30)": lambda: lad(30).graph,
    "random_mop(210,1)": lambda: random_mop_graph(210, 1),
    "random_mop(400,1)": lambda: random_mop_graph(400, 1),
}


@pytest.mark.parametrize("name", list(BEYOND_PUBLIC_CAPS))
def test_inputs_beyond_public_verifier_caps(name):
    g = BEYOND_PUBLIC_CAPS[name]()
    col, stats = rainbow_coloring(g)
    summary = ecc_diam_rad_center(g)
    assert summary.diameter <= stats.colors_used <= 3 * summary.radius
    assert is_rainbow_connected(g, col, max_n=g.n, max_colors=stats.colors_used).ok


def test_large_mops_take_the_layered_coloring_with_no_spine(monkeypatch):
    # From n = N0 on, a MOP that is no fan and no strip gets the layered
    # coloring of its central vertex's BFS layers, with no cut spine, no
    # staged coloring and no check: the coloring the staged path fell
    # back to there, at the same radius. One vertex fewer still takes the
    # staged path.
    n0 = moprc.coloring.N0
    graphs = [random_mop_graph(n, s) for n in (n0, 200, 400) for s in range(3)]
    graphs += [g for g in (make() for make in BEYOND_PUBLIC_CAPS.values()) if g.n >= n0]
    expected = [
        (moprc.coloring._layered(g, layers(g, central_vertex(g))), ecc_diam_rad_center(g).radius)
        for g in graphs
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the staged path ran")

    for name in ("build_ccs", "realize_paths", "_staged", "_rainbow_verdict"):
        monkeypatch.setattr(moprc.coloring, name, refuse)
    monkeypatch.setattr(moprc.spine, "build_ccs", refuse)
    for g, (layered, rad) in zip(graphs, expected):
        col, stats = rainbow_coloring(g)
        assert col == layered, g
        assert stats == ColoringStats(rad, len(layered.used), False), g
    with pytest.raises(AssertionError, match="the staged path ran"):
        rainbow_coloring(random_mop_graph(n0 - 1, 1))


# The staged colorings of these graphs fail their check, so
# rainbow_coloring returns the layered fallback; pinned like
# FROZEN_DIGESTS.
FROZEN_FALLBACK_DIGESTS = {
    (50, 1): "ecaf8550d6aad9e01d7a0d7adb94f2bda6c04e3a91276464c2b31d2567fbf9cf",
    (80, 1): "df2b2bfa57263c8481bfaf37f5934503c8ec1df1ab761779321373a71d2dc2f5",
    (100, 1): "362fb99af6357b534d143250698aa7e80e4b619da7b951ab182f1e1b73c61d64",
}


@pytest.mark.parametrize("n_seed", list(FROZEN_FALLBACK_DIGESTS))
def test_frozen_fallback_digests(n_seed):
    col, _ = rainbow_coloring(random_mop_graph(*n_seed))
    digest = hashlib.sha256(repr(sorted(col.colors.items())).encode()).hexdigest()
    assert digest == FROZEN_FALLBACK_DIGESTS[n_seed]


# One sha256 over every (sorted colors, colors_used, staged_valid) of
# the even-t half of the acceptance corpus (seeds 1000 * n + t), so a
# refactor that changes any coloring, count or verdict shows here. The
# half holds staged, failed-check and no-long-path cases (60192).
# random_mop_graph(10, 10078) takes the strip coloring (5 colors, where
# the staged one spent 8).
FROZEN_CORPUS_DIGEST = "30b7ae0af15c6389a06a7d50831a09977bfc69de569003cb05eb785f7ac79eb9"


def test_frozen_acceptance_half_corpus():
    h = hashlib.sha256()
    for n in (10, 20, 40, 60):
        for t in range(0, 200, 2):
            col, stats = rainbow_coloring(random_mop_graph(n, 1000 * n + t))
            key = (sorted(col.colors.items()), stats.colors_used, stats.staged_valid)
            h.update(repr(key).encode())
    assert h.hexdigest() == FROZEN_CORPUS_DIGEST


# Graph -> the verdict of its staged coloring's one check, "strip" when
# the strip coloring is returned with no check, or None when some node
# has no long path and no check is made.
ONE_CHECK_GRAPHS = {
    "random_mop(10,10010)": (lambda: random_mop_graph(10, 10010), True),
    "random_mop(120,2)": (FROZEN_DIGESTS["random_mop(120,2)"][0], False),
    "lad(15)": (FROZEN_DIGESTS["lad(15)"][0], "strip"),
    "lad_plus(12)": (FROZEN_DIGESTS["lad_plus(12)"][0], "strip"),
    "random_mop(60,60192)": (FROZEN_DIGESTS["random_mop(60,60192)"][0], None),
    "random_mop(50,1)": (lambda: random_mop_graph(50, 1), False),
    "random_mop(80,1)": (lambda: random_mop_graph(80, 1), False),
    "random_mop(100,1)": (lambda: random_mop_graph(100, 1), False),
    "random_mop(22,14)": (lambda: random_mop_graph(22, 14), False),
    "lad(12)": (lambda: lad(12).graph, "strip"),
}


@pytest.mark.parametrize("name", list(ONE_CHECK_GRAPHS))
def test_one_check_then_staged_or_layered(name, monkeypatch):
    make, verdict = ONE_CHECK_GRAPHS[name]
    g = make()
    spine = build_ccs(g)
    check = moprc.coloring._rainbow_verdict
    verdicts = []

    def recording(g_, coloring, lay):
        # The check reads the spine's layers, rooted at the hub the
        # public checker would pick, and the verdict is the public
        # checker's.
        assert lay == spine.layers and lay[0] == (central_vertex(g),)
        ok = check(g_, coloring, lay)
        assert ok == is_rainbow_connected(g, coloring, max_n=g.n, max_colors=len(coloring.used)).ok
        verdicts.append(ok)
        return ok

    monkeypatch.setattr(moprc.coloring, "_rainbow_verdict", recording)
    col, stats = rainbow_coloring(g)
    assert verdicts == ([verdict] if isinstance(verdict, bool) else [])
    assert stats.staged_valid == bool(verdict)
    if verdict == "strip":
        assert col == moprc.coloring._strip_coloring(g)
    elif not verdict:
        assert col == moprc.coloring._layered(g, spine.layers)


def test_a_route_longer_than_the_reserve_falls_back(monkeypatch):
    # A real route from the root to a node's secondary, off the node's
    # own edges, with more untagged edges after its root spoke than the
    # 2 * radius - 4 reserve colors: first fit runs out of colors on it,
    # so the staged coloring gives up and the layered one is returned.
    g = random_mop_graph(14, 1)
    spine = build_ccs(g)
    assert spine.radius == 3 and moprc.coloring._strip_coloring(g) is None
    assert moprc.coloring._staged(g, spine) is not None
    node = spine.nodes[1]
    primary, secondary = primary_secondary(g, node)
    short = spine.shorts[node]
    own = {edge(a, b) for a, b in zip(short, short[1:])} | {edge(primary, secondary)}
    tagged = spine.tagged

    def untagged_after_spoke(path):
        return sum(edge(a, b) not in tagged for a, b in zip(path[1:], path[2:]))

    sub = Graph(g.n, g.edges - own)
    route = next(
        p
        for p in all_simple_paths(sub, spine.root_vertex, secondary)
        if untagged_after_spoke(p) > 2 * spine.radius - 4
    )
    real = moprc.coloring.realize_paths

    def handing_route(g_, spine_, node_):
        return (short, route) if node_ == node else real(g_, spine_, node_)

    monkeypatch.setattr(moprc.coloring, "realize_paths", handing_route)
    assert moprc.coloring._staged(g, spine) is None
    col, stats = rainbow_coloring(g)
    assert not stats.staged_valid
    assert col == moprc.coloring._layered(g, spine.layers)


def exits_ok(g, coloring, root) -> bool:
    """The local exit condition, checked in time linear in the graph.

    Layers are BFS layers from root. An exit of a vertex v in layer
    k >= 1 is a color set that takes v into layer k - 1: the color of
    an edge to a parent, or the colors of an edge to a layer neighbor w
    and of a spoke from w to a parent of w, when they differ. The
    condition holds when every vertex has an exit, any two vertices of
    one layer have exits with disjoint color sets, and no color is in
    exits of two layers. Then two walks, each taking one exit per
    layer, reach the root (or meet) on disjoint colors, so every pair
    is joined by a rainbow walk.
    """
    depth = {root: 0}
    queue = [root]
    for x in queue:
        for y in g.neighbors(x):
            if y not in depth:
                depth[y] = depth[x] + 1
                queue.append(y)
    color = coloring.colors
    families = {}  # layer -> {exit family: vertices having it}
    for v in g.vertices():
        k = depth[v]
        if not k:
            continue
        exits = set()
        for w in g.neighbors(v):
            c = color[edge(v, w)]
            if depth[w] == k - 1:
                exits.add(frozenset({c}))
            elif depth[w] == k:
                for x in g.neighbors(w):
                    if depth[x] == k - 1 and color[edge(w, x)] != c:
                        exits.add(frozenset({c, color[edge(w, x)]}))
        if not exits:
            return False
        fam = frozenset(exits)
        layer = families.setdefault(k, {})
        layer[fam] = layer.get(fam, 0) + 1
    owner = {}
    for k, layer in families.items():
        for fam in layer:
            for ex in fam:
                for c in ex:
                    if owner.setdefault(c, k) != k:
                        return False
        fams = list(layer)
        for i, f1 in enumerate(fams):
            for f2 in fams[i:]:
                if f1 is f2 and layer[f1] < 2:
                    continue
                if not any(not (a & b) for a in f1 for b in f2):
                    return False
    return True


def _layered_of(g):
    """The layered coloring from the central vertex, that vertex, and the radius."""
    root = central_vertex(g)
    lay = layers(g, root)
    return moprc.coloring._layered(g, lay), root, len(lay) - 1


@given(
    st.one_of(
        st.builds(random_mop_graph, st.integers(4, 60), st.integers(0, 2**63)),
        st.builds(lambda d: lad(d).graph, st.integers(2, 8)),
        st.builds(lambda d: lad_plus(d).graph, st.integers(2, 8)),
    )
)
@settings(max_examples=60, deadline=None)
def test_layered_is_rainbow_connected_within_bound(g):
    col, root, rad = _layered_of(g)
    col.check_total(g)
    assert len(col.used) <= 3 * rad
    assert is_rainbow_connected(g, col, max_n=g.n, max_colors=3 * rad).ok
    assert exits_ok(g, col, root)


# Where the exact oracle is too slow, the linear exit check stands in.
BEYOND_THE_ORACLE = {
    **{f"lad({d})": (lambda d=d: lad(d).graph) for d in (10, 20, 30)},
    **{f"lad_plus({d})": (lambda d=d: lad_plus(d).graph) for d in (10, 20, 30)},
    **{
        f"random_mop({n},{seed})": (lambda n=n, seed=seed: random_mop_graph(n, seed))
        for n in (200, 400)
        for seed in (1, 2)
    },
}


@pytest.mark.parametrize("name", list(BEYOND_THE_ORACLE))
def test_layered_meets_the_exit_condition_beyond_the_oracle(name):
    g = BEYOND_THE_ORACLE[name]()
    col, root, rad = _layered_of(g)
    col.check_total(g)
    assert len(col.used) <= 3 * rad
    assert exits_ok(g, col, root)


def test_layered_is_rainbow_connected_from_every_root():
    # The lemma in `_layered`'s docstring holds for any root r, at
    # 3 * ecc(r) colors, not only for the central vertex that
    # `rainbow_coloring` passes.
    graphs = [from_canonical(c) for n in range(3, 8) for c in construction_orders(n)]
    graphs += [random_mop_graph(n, s) for n in (20, 40, 60) for s in range(3)]
    for g in graphs:
        for v in g.vertices():
            lay = layers(g, v)
            col = moprc.coloring._layered(g, lay)
            ecc = len(lay) - 1
            assert len(col.used) <= 3 * ecc, (g, v)
            assert is_rainbow_connected(g, col, max_n=g.n, max_colors=3 * ecc).ok, (g, v)


# sha256 over repr(sorted(colors.items())) of `_layered(g, layers(g, r))`
# for every root r of every graph below, in that order.
FROZEN_LAYERED_EVERY_ROOT = "d3faecec98845206d8fd9fc6089f6c040a2eeee6a917ed84587590504e72e3a0"


def test_frozen_layered_colorings_from_every_root():
    # Byte identity of the layered coloring itself, from central and
    # non-central roots alike: swapping alpha and beta on one layer
    # keeps it rainbow connected but changes the digest.
    graphs = [from_canonical(c) for n in range(3, 8) for c in construction_orders(n)]
    graphs += [random_mop_graph(n, s) for n in (20, 60, 200) for s in range(3)]
    graphs += [f(d).graph for f in (lad, lad_plus) for d in range(3, 13)]
    h = hashlib.sha256()
    for g in graphs:
        for r in g.vertices():
            col = moprc.coloring._layered(g, layers(g, r))
            h.update(repr(sorted(col.colors.items())).encode())
    assert h.hexdigest() == FROZEN_LAYERED_EVERY_ROOT


def test_exit_condition_rejects_a_single_color():
    g = lad(4).graph
    assert not exits_ok(g, EdgeColoring({e: 1 for e in g.edges}), build_ccs(g).root_vertex)

