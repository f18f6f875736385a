"""Elimination orderings, maximal fans, and cut-spine construction."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moprc import (
    CanonicalMop,
    Graph,
    NotChordal,
    build_ccs,
    chordal_peo,
    edge,
    fan,
    from_canonical,
    lad,
    lad_plus,
    maximal_fans,
    mcs,
    random_mop_graph,
    realize_paths,
    triangles,
)
import moprc.metrics
from moprc.metrics import central_vertex
from moprc.spine import SpineNode, _route, primary_secondary

from conftest import all_simple_paths, construction_orders, is_vertex_pair_cut

K3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
C4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
SUN6 = from_canonical(CanonicalMop(6, {4: 1, 5: 2, 6: 1}, {4: 2, 5: 3, 6: 3}))


def test_mcs_base_case_and_determinism():
    assert mcs(K3) == (1, 2, 3)
    g = random_mop_graph(20, 5)
    assert mcs(g) == mcs(g)


def test_elimination_ordering_verified_independently():
    for g in (fan(5).graph, lad(4).graph, random_mop_graph(30, 11)):
        order = chordal_peo(g)
        assert sorted(order) == list(g.vertices())
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
            assert all(
                g.has_edge(a, b) for i, a in enumerate(later) for b in later[i + 1 :]
            )


def test_four_cycle_is_not_chordal():
    with pytest.raises(NotChordal):
        chordal_peo(C4)


def test_maximal_fans():
    assert maximal_fans(K3) == ((1, frozenset({1, 2, 3})),)
    hub_fans = maximal_fans(fan(7).graph)
    assert hub_fans == ((8, frozenset(range(1, 9))),)
    # Strip: every triangle lies inside some retained fan.
    g = lad(3).graph
    fans = maximal_fans(g)
    covered = set()
    for center, closed in fans:
        for t in triangles(g):
            if center in t and t <= closed:
                covered.add(t)
    assert covered == set(triangles(g))


def _all_pairs_fans(g):
    """maximal_fans by its definition: every vertex against every other."""
    closed = {v: frozenset(g.neighbors(v)) | {v} for v in g.vertices()}
    return tuple(
        (v, closed[v])
        for v in g.vertices()
        if not any(
            closed[v] < closed[u] or (closed[v] == closed[u] and u < v)
            for u in g.vertices()
            if u != v
        )
    )


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_maximal_fans_match_all_pairs_on_mops(n, seed):
    g = random_mop_graph(n, seed)
    assert maximal_fans(g) == _all_pairs_fans(g)


@st.composite
def small_graphs(draw):
    """Any simple graph on 1..9 vertices, isolated vertices included."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    return Graph(n, draw(st.sets(pairs)))


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_maximal_fans_match_all_pairs_on_any_graph(g):
    assert maximal_fans(g) == _all_pairs_fans(g)


def test_spine_of_strip_length_three():
    g = lad(3).graph
    s = build_ccs(g)
    assert s.root_vertex == 2
    assert s.radius == 2 and not s.degenerate_radius
    assert s.layers == ((2,), (1, 3, 4), (5, 6))
    kinds = [(nd.kind, nd.realization, nd.level) for nd in s.nodes]
    assert kinds == [("root", (2,), 0), ("green", (3, 4), 1)]
    (leaf,) = s.leaves()
    assert realize_paths(g, s, leaf) == ((2, 3), (2, 4))


def test_spine_of_strip_length_four():
    s = build_ccs(lad(4).graph)
    assert s.root_vertex == 4
    kinds = [(nd.kind, nd.realization, nd.level) for nd in s.nodes]
    assert kinds == [
        ("root", (4,), 0),
        ("green", (2, 3), 1),
        ("green", (5, 6), 1),
    ]
    assert all(s.parent[nd] == s.root for nd in s.nodes[1:])


def test_spine_of_sun():
    s = build_ccs(SUN6)
    assert s.root_vertex == 4
    kinds = [(nd.kind, nd.realization, nd.level) for nd in s.nodes]
    assert kinds == [("root", (4,), 0), ("green", (1, 2), 1)]


def test_degenerate_spine_for_hub_graphs():
    s = build_ccs(fan(9).graph)
    assert s.degenerate_radius
    assert s.nodes == (s.root,)
    assert realize_paths(fan(9).graph, s, s.root) == ((10,), (10,))


def test_spine_invariants_on_corpus():
    for n, seed in [(12, 0), (20, 3), (40, 8), (60, 21)]:
        g = random_mop_graph(n, seed)
        s = build_ccs(g)
        if s.degenerate_radius:
            continue
        for nd in s.nodes[1:]:
            par = s.parent[nd]
            assert par.level < nd.level
            if nd.kind == "green":
                a, b = nd.realization
                assert g.has_edge(a, b)
                assert is_vertex_pair_cut(g, a, b)
            chain = s.ancestors(nd)
            assert chain[0] == s.root and chain[-1] == nd


def test_chords_are_exactly_the_adjacent_two_cuts():
    graphs = [random_mop_graph(n, 4000 + n) for n in range(3, 60, 4)]
    graphs += [fam(d).graph for d in range(2, 15, 3) for fam in (lad, lad_plus)]
    graphs += [fan(k).graph for k in (2, 5, 9)]
    for g in graphs:
        for a, b in sorted(g.edges):
            assert (g.edge_kind[(a, b)] == "chord") == is_vertex_pair_cut(g, a, b), (g, a, b)


def test_green_nodes_cover_every_inner_vertex_with_children():
    # The lemma of build_ccs: every vertex of layers 1..radius-1 with a
    # neighbor one layer out lies on a green node of its own level, and
    # every node hangs off the first node one level up adjacent to all
    # of its vertices. Every long path also has at most 2 * radius - 4
    # untagged edges after its root spoke, as many as the staged
    # coloring's reserve holds, so its first fit never runs out on
    # these graphs (at n <= 8 the radius is at most 2; the random
    # graphs and strips reach radius 8).
    graphs = [from_canonical(c) for n in range(3, 9) for c in construction_orders(n)]
    assert len(graphs) == 2956
    graphs += [random_mop_graph(n, 7 * n + 1) for n in range(9, 300, 2)]
    graphs += [fam(d).graph for d in range(2, 16) for fam in (lad, lad_plus)]
    for g in graphs:
        s = build_ccs(g)
        assert {nd.kind for nd in s.nodes[1:]} <= {"green"}
        on_green = {(nd.level, v) for nd in s.nodes[1:] for v in nd.realization}
        for i in range(1, s.radius):
            out = set(s.layers[i + 1])
            for v in s.layers[i]:
                has_child = any(w in out for w in g.neighbors(v))
                assert ((i, v) in on_green) == has_child, (g, i, v)
        for nd in s.nodes[1:]:
            a, b = nd.realization
            assert g.edge_kind[(a, b)] == "chord"
            p = s.parent[nd]
            assert p.level == nd.level - 1
            above = (q for q in s.nodes if q.level == p.level)
            touching = (q for q in above if all(any(g.has_edge(u, v) for u in q.realization) for v in nd.realization))
            assert p == next(touching), (g, nd, p)
            long_ = realize_paths(g, s, nd)[1]
            if long_ is not None:
                untagged = sum(edge(a, b) not in s.tagged for a, b in zip(long_[1:], long_[2:]))
                assert untagged <= 2 * s.radius - 4, (g, nd, long_)


def test_children_match_the_parent_scan():
    # The child lists are built once; each equals the scan over every
    # parent entry, in node order, and together they hold every non-root
    # node once.
    graphs = [random_mop_graph(n, n) for n in range(4, 400, 7)]
    graphs += [fam(d).graph for d in range(2, 31) for fam in (lad, lad_plus)]
    for g in graphs:
        s = build_ccs(g)
        rank = {nd: i for i, nd in enumerate(s.nodes)}
        seen = []
        for nd in s.nodes:
            kids = s.children(nd)
            assert kids == tuple(c for c, p in s.parent.items() if p == nd)
            assert [rank[c] for c in kids] == sorted(rank[c] for c in kids)
            seen += kids
        assert sorted(seen, key=rank.__getitem__) == list(s.nodes[1:])
    assert s.children(SpineNode("green", (0, 0), 0)) == ()


def test_trees_are_identical_across_runs():
    g = random_mop_graph(35, 14)
    s1, s2 = build_ccs(g), build_ccs(g)
    assert s1.nodes == s2.nodes
    assert s1.parent == s2.parent
    assert s1.layers == s2.layers


# sha256 over every spine's sorted (level, kind, realization, parent
# kind, parent realization) rows, for random_mop_graph(n, n) with
# n = 5, 8, .., 398 and lad(d), lad_plus(d) for d = 2..30.
FROZEN_PARENT_DIGEST = "372f2c5424eb1610779a1801ba7bcd239550cfca85ca372d4b38458a85d51332"


def test_frozen_spine_parents():
    graphs = [random_mop_graph(n, n) for n in range(5, 401, 3)]
    graphs += [fam(d).graph for d in range(2, 31) for fam in (lad, lad_plus)]
    h = hashlib.sha256()
    for g in graphs:
        rows = ((nd.level, nd.kind, nd.realization, p.kind, p.realization) for nd, p in build_ccs(g).parent.items())
        h.update(repr(sorted(rows)).encode())
    assert h.hexdigest() == FROZEN_PARENT_DIGEST


def test_realized_paths_are_edge_disjoint_with_length_contracts():
    for n, seed in [(15, 2), (30, 9), (45, 17), (60, 33)]:
        g = random_mop_graph(n, seed)
        s = build_ccs(g)
        if s.degenerate_radius:
            continue
        for nd in s.nodes[1:]:
            _assert_disjoint_within_bounds(s, *realize_paths(g, s, nd))


def _assert_disjoint_within_bounds(spine, short, long_):
    assert short[0] == spine.root_vertex
    assert len(short) - 1 <= spine.radius - 1
    if long_ is None:
        return
    se = {edge(short[i], short[i + 1]) for i in range(len(short) - 1)}
    le = {edge(long_[i], long_[i + 1]) for i in range(len(long_) - 1)}
    assert not se & le
    assert long_[0] == spine.root_vertex
    assert len(long_) - 1 <= 2 * spine.radius - 2


def test_a_node_with_no_route_within_the_cap():
    # The node's only routes have more than 2 * radius - 2 edges, so the
    # breadth-first search gives up and the long path is None.
    g = random_mop_graph(44, 31)
    s = build_ccs(g)
    green = next(nd for nd in s.nodes if nd.realization == (24, 31))
    assert green.kind == "green"
    short = (5, 4, 7, 19, 24)
    assert realize_paths(g, s, green) == (short, None)
    own = {edge(a, b) for a, b in zip(short, short[1:])} | {edge(24, 31)}
    uncapped = _route(g, s.root_vertex, 31, own, s.tagged, g.n)
    assert len(uncapped) - 1 > 2 * s.radius - 2


@given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=2**63))
@settings(max_examples=40, deadline=None)
def test_realized_paths_edge_disjoint_property(n, seed):
    g = random_mop_graph(n, seed)
    s = build_ccs(g)
    if s.degenerate_radius:
        return
    for leaf in s.leaves():
        _assert_disjoint_within_bounds(s, *realize_paths(g, s, leaf))


def _reference_realize(g, spine, node):
    """The rule by brute force: the least (length, path) of at most
    2 * radius - 2 edges from the root to the secondary that avoids the
    short path and the node's own pair edge and crosses at most one
    tagged edge; else None."""
    v_r = spine.root_vertex
    if node.kind == "root":
        return ((v_r,), (v_r,))
    primary, secondary = primary_secondary(g, node)
    tagged = spine.tagged
    short = spine.shorts[node]
    own = {edge(short[i], short[i + 1]) for i in range(len(short) - 1)}
    if node.kind == "green":
        own.add(edge(primary, secondary))

    sub = Graph(g.n, [e for e in g.edges if e not in own])
    best = min(
        (
            (len(p), p)
            for p in all_simple_paths(sub, v_r, secondary, 2 * spine.radius - 2)
            if sum(edge(p[i], p[i + 1]) in tagged for i in range(len(p) - 1)) <= 1
        ),
        default=None,
    )
    return short, best[1] if best else None


# (n, seed): node (28, 47) of this graph has no route within
# 2 * radius - 2 edges.
FALLBACK_EXAMPLE = (60, 60192)


@given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=2**32))
@example(*FALLBACK_EXAMPLE)
@settings(max_examples=60, deadline=None)
def test_realize_paths_matches_per_spoke_pick(n, seed):
    g = random_mop_graph(n, seed)
    spine = build_ccs(g)
    for node in spine.nodes:
        assert realize_paths(g, spine, node) == _reference_realize(g, spine, node)
    if (n, seed) == FALLBACK_EXAMPLE:
        node = next(nd for nd in spine.nodes if nd.realization == (28, 47))
        assert realize_paths(g, spine, node)[1] is None


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=2**32), st.data())
@settings(max_examples=150, deadline=None)
def test_route_is_first_shortest_path_within_constraints(n, seed, data):
    g = random_mop_graph(n, seed)
    edges = sorted(g.edges)
    banned = data.draw(st.sets(st.sampled_from(edges)))
    tagged = data.draw(st.frozensets(st.sampled_from(edges)))
    src = data.draw(st.integers(min_value=1, max_value=n))
    dst = data.draw(st.integers(min_value=1, max_value=n))

    def allowed(path):
        used = [edge(path[i], path[i + 1]) for i in range(len(path) - 1)]
        return not banned.intersection(used) and sum(e in tagged for e in used) <= 1

    ranked = [(len(p), p) for p in all_simple_paths(g, src, dst) if allowed(p)]
    expected = min(ranked)[1] if ranked else None
    assert _route(g, src, dst, banned, tagged, n - 1) == expected
    # A tighter cap only turns away the paths longer than it.
    cap = data.draw(st.integers(min_value=0, max_value=n - 1))
    fits = expected is not None and len(expected) - 1 <= cap
    assert _route(g, src, dst, banned, tagged, cap) == (expected if fits else None)


# Per graph, the first 16 hex digits of the sha256 of
# repr([realize_paths(g, spine, nd) for nd in spine.nodes]), recorded
# from the corridor search `_route` replaced. A breadth-first oracle,
# one search over (vertex, crossed) states per node, matched that search
# on every node of these graphs. The test keeps its old name, so its
# ids are unchanged.
FROZEN_ROUTES = {
    "lad(3)": "60318ef4d5cf17fe",
    "lad_plus(3)": "a24baf260cad9780",
    "lad(4)": "97478ce6a5985bcc",
    "lad_plus(4)": "7886b7d195950740",
    "lad(5)": "862c1217338a9bc5",
    "lad_plus(5)": "112410a6ee0b5659",
    "lad(6)": "cecdb2d798405d82",
    "lad_plus(6)": "efde7cc4e558630e",
    "lad(7)": "8f098be517df1964",
    "lad_plus(7)": "597ef11b225771ce",
    "lad(8)": "313e5c1c2dd9240f",
    "lad_plus(8)": "aba901f4b433654a",
    "lad(9)": "a633ffc487cf052a",
    "lad_plus(9)": "04d3442a2b3607dc",
    "lad(10)": "c7ef58a234e44f1a",
    "lad_plus(10)": "42bc12752e0b8270",
    "lad(11)": "85c1a4b7e54bc97f",
    "lad_plus(11)": "cd7d1fc0904f6aed",
    "lad(12)": "1ad48487d9135d1d",
    "lad_plus(12)": "520563e3b62c559c",
    "lad(13)": "0149ad6d023179fe",
    "lad_plus(13)": "832220429e9c03b6",
    "lad(14)": "01bf16d949f419b1",
    "lad_plus(14)": "bfa144e7045793ae",
    "lad(15)": "44b933b346fb23ed",
    "lad_plus(15)": "4dad4ca7b221c7e6",
    "lad(16)": "19bbe9b49e428902",
    "lad_plus(16)": "066140dc5c041da0",
    "lad(17)": "862995cf9511f097",
    "lad_plus(17)": "0bab67b9fc3b171d",
    "lad(18)": "54b4fb28fab695b6",
    "lad_plus(18)": "2d8852a8b0d0650e",
    "lad(19)": "26f56c1dd2ba7e71",
    "lad_plus(19)": "8e2ec1027cd10d89",
    "lad(20)": "2047a34ca8e649dd",
    "lad_plus(20)": "9e1888c0b2e478a7",
    "lad(21)": "e6bdbcc015c0986a",
    "lad_plus(21)": "fb614fedc967614b",
    "lad(22)": "35cb92a781c6f685",
    "lad_plus(22)": "977d3e8d6e680405",
    "lad(23)": "2ec6e3d84586c0a6",
    "lad_plus(23)": "d45cbc9aef0c75b3",
    "lad(24)": "30c278c04fa20f80",
    "lad_plus(24)": "cb19adfa3dd81ada",
    "lad(25)": "732baf8376ed24e0",
    "lad_plus(25)": "91e448a2995c8f39",
    "lad(26)": "bc582190e9dbe0ca",
    "lad_plus(26)": "6f6afc8cef988b44",
    "lad(27)": "6a8424e9d0f35df2",
    "lad_plus(27)": "0b67365d4b92e836",
    "lad(28)": "6860bf412ddd8a04",
    "lad_plus(28)": "491464a806021ff8",
    "lad(29)": "d6f92acc8a650b73",
    "lad_plus(29)": "33b0a770e661177c",
    "lad(30)": "db5889339e8fd8be",
    "lad_plus(30)": "22ee2e376f919ce8",
    "random(200, 1)": "9db5d97bf9caaf39",
    "random(200, 2)": "28155f29e14d1cc2",
    "random(200, 3)": "ec1d60d7f393285f",
    "random(200, 4)": "f4ae337474f44bba",
    "random(200, 5)": "71cec3119647b22d",
    "random(200, 6)": "1409362a28d48930",
    "random(400, 1)": "012a97156d7282b2",
}
ROUTE_GRAPHS = {
    f"{f.__name__}({d})": lambda f=f, d=d: f(d).graph for d in range(3, 31) for f in (lad, lad_plus)
}
ROUTE_GRAPHS.update(
    (f"random({n}, {s})", lambda n=n, s=s: random_mop_graph(n, s))
    for n, s in [(200, 1), (200, 2), (200, 3), (200, 4), (200, 5), (200, 6), (400, 1)]
)


@pytest.mark.parametrize("name", list(ROUTE_GRAPHS))
def test_corridor_search_matches_bfs_oracle(name):
    g = ROUTE_GRAPHS[name]()
    spine = build_ccs(g)
    routes = repr([realize_paths(g, spine, nd) for nd in spine.nodes])
    assert hashlib.sha256(routes.encode()).hexdigest()[:16] == FROZEN_ROUTES[name]


def test_no_ball_growth_per_spine(monkeypatch):
    # The root is read off the linear pass over the MopGraph's dual
    # tree, and each long path is one breadth-first search, so no
    # distance ball grows. Ball growth on a plain Graph copy still
    # picks the same root.
    graphs = (lad(12).graph, random_mop_graph(60, 3), fan(6).graph, random_mop_graph(400, 1))
    roots = [central_vertex(Graph(g.n, g.edges)) for g in graphs]

    def refuse(g):
        raise AssertionError("a distance ball grew")

    monkeypatch.setattr(moprc.metrics, "_balls", refuse)
    for g, root in zip(graphs, roots):
        spine = build_ccs(g)
        for node in spine.nodes:
            realize_paths(g, spine, node)
        assert spine.root_vertex == root, g
