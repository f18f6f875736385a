"""Distances, eccentricities, layers, and the linear-time scheme."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprc import (
    CanonicalMop,
    DomainError,
    Graph,
    MopGraph,
    NotMop,
    bfs,
    build_ccs,
    ecc_diam_rad_center,
    eta,
    fan,
    from_canonical,
    lad,
    lad_plus,
    layers,
    linear_eccentricities,
    rainbow_coloring,
    random_mop_graph,
    triangles,
    validate_mop,
)
from moprc.metrics import central_vertex

from conftest import construction_orders

TRIANGLE = from_canonical(CanonicalMop(3))


def test_bfs_on_triangle():
    t = bfs(TRIANGLE, 1)
    assert t.dist == {1: 0, 2: 1, 3: 1}
    assert t.parent[1] is None
    assert t.path_to(3) == (1, 3)


def test_bfs_strip_and_hub():
    assert bfs(lad(3).graph, 1).dist[6] == 3
    hub_table = bfs(fan(7).graph, 8)
    assert set(hub_table.dist.values()) == {0, 1}


def test_bfs_rejects_bad_source_and_disconnected():
    with pytest.raises(DomainError):
        bfs(TRIANGLE, 9)
    with pytest.raises(DomainError):
        bfs(Graph(4, [(1, 2), (3, 4)]), 1)


def test_bfs_path_is_shortest():
    g = random_mop_graph(20, 8)
    t = bfs(g, 5)
    for v in g.vertices():
        p = t.path_to(v)
        assert p[0] == 5 and p[-1] == v
        assert len(p) - 1 == t.dist[v]
        assert all(g.has_edge(p[i], p[i + 1]) for i in range(len(p) - 1))


def test_global_metrics_on_families():
    assert ecc_diam_rad_center(lad(4).graph).diameter == 4
    s = ecc_diam_rad_center(fan(9).graph)
    assert (s.diameter, s.radius, s.center) == (2, 1, (10,))


def test_chordal_radius_diameter_sandwich():
    for n, seed in [(10, 1), (25, 5), (60, 2), (120, 3)]:
        s = ecc_diam_rad_center(random_mop_graph(n, seed))
        assert 2 * s.radius - 2 <= s.diameter <= 2 * s.radius
        assert all(s.radius <= e <= s.diameter for e in s.ecc.values())


def test_layers_partition():
    g = lad(3).graph
    assert layers(g, 1) == ((1,), (2, 3), (4, 5), (6,))
    assert layers(g, tuple(g.vertices())) == (tuple(g.vertices()),)
    f = fan(7).graph
    assert layers(f, 8) == ((8,), (1, 2, 3, 4, 5, 6, 7))
    with pytest.raises(DomainError):
        layers(g, ())


@pytest.mark.parametrize("n, seed", [(3, 0), (17, 2), (60, 5), (150, 9)])
def test_layers_group_bfs_distances(n, seed):
    g = random_mop_graph(n, seed)
    for sources in ((1,), (n, 2), tuple(g.vertices())[::4]):
        dist = {v: min(bfs(g, s).dist[v] for s in sources) for v in g.vertices()}
        expect = [tuple(v for v in g.vertices() if dist[v] == k) for k in range(max(dist.values()) + 1)]
        assert layers(g, sources) == tuple(expect)


# sha256 of every `bfs(g, s)` table (distances and parents in visit
# order) and of `layers(g, S)` from every vertex, edge and face, over
# the corpus below. Recorded on the dict-based BFS the flat-list kernel
# replaced.
FROZEN_BFS_LAYERS = "cd29dc9e3e34a259f3e9a95159feca63d8cc620a9556407c075de454ff86f8d9"


def test_frozen_bfs_tables_and_layers():
    graphs = [from_canonical(c) for n in range(3, 8) for c in construction_orders(n)]
    graphs += [random_mop_graph(n, s) for n in (20, 60, 200) for s in range(3)]
    graphs += [f(d).graph for d in range(3, 13) for f in (lad, lad_plus)]
    h = hashlib.sha256()
    for g in graphs:
        for s in g.vertices():
            t = bfs(g, s)
            h.update(repr((t.dist, t.parent, layers(g, s))).encode())
        for e in sorted(g.edges):
            h.update(repr(layers(g, e)).encode())
        for f in triangles(g):
            h.update(repr(layers(g, tuple(sorted(f)))).encode())
    assert (len(graphs), h.hexdigest()) == (465, FROZEN_BFS_LAYERS)


def test_layers_reject_bad_source_and_disconnected():
    with pytest.raises(DomainError, match="source 0 outside 1..3"):
        layers(TRIANGLE, (1, 0))
    with pytest.raises(DomainError, match="not connected"):
        layers(Graph(4, [(1, 2), (3, 4)]), 1)


def test_every_mop_edge_lies_in_a_triangle():
    assert eta(TRIANGLE) == 3
    assert eta(fan(7).graph) == 3
    assert eta(random_mop_graph(50, 6)) == 3
    with pytest.raises(NotMop):
        eta(Graph(3, [(1, 2), (2, 3)]))


def bfs_ecc(g: Graph) -> dict[int, int]:
    """Every vertex eccentricity by one `bfs` per vertex: the oracle."""
    return {v: max(bfs(g, v).dist.values()) for v in g.vertices()}


def assert_summary_matches_bfs(g: Graph) -> None:
    s = ecc_diam_rad_center(g)
    ref = bfs_ecc(g)
    assert s.ecc == ref and list(s.ecc) == list(g.vertices())
    assert (s.diameter, s.radius) == (max(ref.values()), min(ref.values()))
    assert s.center == tuple(v for v in g.vertices() if ref[v] == s.radius)


def test_linear_eccentricities_fixed_values():
    assert linear_eccentricities(TRIANGLE) == bfs_ecc(TRIANGLE) == {1: 1, 2: 1, 3: 1}
    g = lad(5).graph
    assert linear_eccentricities(g) == bfs_ecc(g)
    assert_summary_matches_bfs(g)


def test_the_constructor_alone_builds_the_face_index(monkeypatch):
    # The dual tree, which is also the face check, is walked once per
    # MopGraph, in its constructor; every eccentricity question reads it.
    from moprc import core

    calls = []
    real = core._dual_tree
    monkeypatch.setattr(core, "_dual_tree", lambda g: calls.append(g) or real(g))
    graphs = [random_mop_graph(30, 4), lad(6).graph, fan(9).graph]
    assert [sum(c is g for c in calls) for g in graphs] == [1, 1, 1]
    built = len(calls)
    for g in graphs:
        ecc = bfs_ecc(g)
        assert linear_eccentricities(g) == ecc
        assert central_vertex(g) == min(g.vertices(), key=lambda v: (ecc[v], g.degree(v), v))
        build_ccs(g)
        rainbow_coloring(g)
    assert len(calls) == built


@pytest.mark.parametrize(
    "g",
    [fan(k).graph for k in range(2, 61)] + [fam(d).graph for d in range(2, 31) for fam in (lad, lad_plus)],
    ids=repr,
)
def test_linear_eccentricities_on_families(g):
    assert linear_eccentricities(g) == bfs_ecc(g)


def cycle_plus_chords(n: int):
    """Every edge list of the cycle 1..n plus n - 3 chords, MOP or not."""
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    chords = [e for e in itertools.combinations(range(1, n + 1), 2) if e[1] - e[0] not in (1, n - 1)]
    for pick in itertools.combinations(chords, n - 3):
        yield ring + list(pick)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_linear_eccentricities_reject_exactly_the_non_mops(n):
    # The MopGraph constructor indexes the faces, so it rejects every
    # non-MOP before linear_eccentricities or build_ccs can see it.
    cycle = tuple(range(1, n + 1))
    mops = 0
    for edges in cycle_plus_chords(n):
        if validate_mop(Graph(n, edges)).ok:
            mops += 1
            g = MopGraph(n, edges, cycle)
            assert linear_eccentricities(g) == bfs_ecc(g), g.edges
            assert build_ccs(g).nodes[0].kind == "root"
        else:
            with pytest.raises(NotMop):
                linear_eccentricities(MopGraph(n, edges, cycle))
    # The triangulations of an n-gon: a Catalan number.
    assert mops == {4: 2, 5: 5, 6: 14, 7: 42}[n]


def test_linear_eccentricities_index_faces_without_triangles(monkeypatch):
    # The face index walks fan neighbors; listing triangles would ask
    # for the common neighbors of every edge.
    graphs = [random_mop_graph(80, 3), fan(40).graph, lad_plus(9).graph]
    expect = [bfs_ecc(g) for g in graphs]

    def refuse(self, u, v):
        raise AssertionError("common_neighbors called")

    monkeypatch.setattr(Graph, "common_neighbors", refuse)
    assert [linear_eccentricities(g) for g in graphs] == expect


def test_linear_eccentricities_match_oracle_large():
    g = random_mop_graph(200, 99)
    assert linear_eccentricities(g) == bfs_ecc(g)
    assert_summary_matches_bfs(g)


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=2**63))
@settings(max_examples=60, deadline=None)
def test_linear_eccentricities_match_oracle(n, seed):
    g = random_mop_graph(n, seed)
    assert linear_eccentricities(g) == bfs_ecc(g)
    assert_summary_matches_bfs(g)


NOT_MOPS = {
    "single vertex": Graph(1, []),
    "K2": Graph(2, [(1, 2)]),
    "path": Graph(6, [(i, i + 1) for i in range(1, 6)]),
    "star": Graph(7, [(4, v) for v in (1, 2, 3, 5, 6, 7)]),
    "cycle": Graph(7, [(i, i % 7 + 1) for i in range(1, 8)]),
    "tree": Graph(9, [(1, 2), (1, 3), (2, 4), (2, 5), (5, 6), (3, 7), (7, 8), (8, 9)]),
}


@pytest.mark.parametrize("name", list(NOT_MOPS))
def test_ball_growth_matches_bfs_beyond_mops(name):
    assert_summary_matches_bfs(NOT_MOPS[name])


def test_ball_growth_rejects_disconnected():
    with pytest.raises(DomainError, match="not connected"):
        ecc_diam_rad_center(Graph(4, [(1, 2), (3, 4)]))
    with pytest.raises(DomainError, match="not connected"):
        ecc_diam_rad_center(Graph(3, [(1, 2)]))


def assert_pass_matches_ball_growth(g: MopGraph) -> None:
    # The MopGraph reads the dual-tree pass; its plain Graph copy, the
    # oracle, grows distance balls.
    # The center is the ball-grown table's least (degree, label) center.
    oracle = ecc_diam_rad_center(Graph(g.n, g.edges))
    s = ecc_diam_rad_center(g)
    assert s == oracle and list(s.ecc) == list(g.vertices()), g
    assert linear_eccentricities(g) == s.ecc, g
    assert central_vertex(g) == min(oracle.center, key=lambda v: (g.degree(v), v)), g


PASS_CORPORA = {
    "orders": lambda: (from_canonical(c) for n in range(3, 10) for c in construction_orders(n)),
    "random": lambda: (
        random_mop_graph(n, s) for n in [*range(3, 101), *range(110, 401, 10)] for s in range(5)
    ),
    "families": lambda: (fam(d).graph for d in range(2, 61) for fam in (fan, lad, lad_plus)),
    # lad(600)'s dual tree is a path of 1,198 faces, deeper than the
    # default recursion limit.
    "large": lambda: (*(random_mop_graph(20000, s) for s in (1, 2)), lad(600).graph),
}


@pytest.mark.parametrize("name", list(PASS_CORPORA))
def test_the_dual_tree_pass_matches_ball_growth(name):
    for g in PASS_CORPORA[name]():
        assert_pass_matches_ball_growth(g)


def test_central_vertex_matches_the_eccentricity_table():
    # central_vertex, the spine's root, is the least (eccentricity,
    # degree, label) vertex of the eccentricity table, which ball
    # growth on a plain Graph copy computes. From n = N0 on, that
    # vertex roots every layered coloring returned.
    mops = [from_canonical(c) for n in range(3, 9) for c in construction_orders(n)]
    mops += [random_mop_graph(n, s) for n in (9, 20, 60, 150, 200, 400) for s in range(5)]
    mops += [fan(50).graph, lad(30).graph]
    for g in mops:
        s = ecc_diam_rad_center(Graph(g.n, g.edges))
        least = min(g.vertices(), key=lambda v: (s.ecc[v], g.degree(v), v))
        assert central_vertex(g) == least, g
        assert build_ccs(g).radius == s.radius, g
    # No ball of a disconnected graph fills up, so every vertex ties.
    g = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5)])
    assert central_vertex(g) == 6


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=2**63))
@settings(max_examples=40, deadline=None)
def test_distance_table_edge_invariant(n, seed):
    g = random_mop_graph(n, seed)
    t = bfs(g, 1)
    assert t.dist[1] == 0
    for u, v in g.edges:
        assert abs(t.dist[u] - t.dist[v]) <= 1
