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
from moprc.metrics import _balls
from moprc.spine import SpineNode, _corridor, primary_secondary

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
    # corridor search gives up and the long path is None.
    g = random_mop_graph(44, 31)
    s = build_ccs(g)
    green = next(nd for nd in s.nodes if nd.realization == (24, 31))
    assert green.kind == "green"
    short = (5, 4, 7, 19, 24)
    assert realize_paths(g, s, green) == (short, None)
    own = {edge(a, b) for a, b in zip(short, short[1:])} | {edge(24, 31)}
    uncapped = _corridor(g, s.balls, s.root_vertex, 31, own, s.tagged, g.n)
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
    balls = tuple(_balls(g))
    assert _corridor(g, balls, src, dst, banned, tagged, n - 1) == expected
    # A tighter cap only turns away the paths longer than it.
    cap = data.draw(st.integers(min_value=0, max_value=n - 1))
    fits = expected is not None and len(expected) - 1 <= cap
    assert _corridor(g, balls, src, dst, banned, tagged, cap) == (expected if fits else None)


def bfs_route(g, src, dst, banned, tagged):
    """The lexicographically first shortest simple path src..dst.

    A breadth-first search over (vertex, crossed) states that expands
    neighbors in ascending label order, never uses a banned edge and
    never crosses a second tagged one. It first reaches each state along
    its lexicographically first shortest walk and stops at the first dst
    state. None when dst is unreachable under the constraints.
    """
    if src == dst:
        return (src,)
    start = (src, False)
    parent = {start: None}
    queue = [start]
    for state in queue:
        v, crossed = state
        for u in g.neighbors(v):
            e = edge(u, v)
            if e in banned or (crossed and e in tagged):
                continue
            step = (u, crossed or e in tagged)
            if step in parent:
                continue
            parent[step] = state
            if u == dst:
                path = [u]
                while state is not None:
                    path.append(state[0])
                    state = parent[state]
                return tuple(reversed(path))
            queue.append(step)
    return None


def _bfs_realize(g, spine, node):
    """realize_paths by one breadth-first search per node: bfs_route
    from the root to the secondary, off the short path and the node's
    own pair edge, kept when it has at most 2 * radius - 2 edges."""
    v_r = spine.root_vertex
    if node.kind == "root":
        return ((v_r,), (v_r,))
    primary, secondary = primary_secondary(g, node)
    tagged = spine.tagged
    short = spine.shorts[node]
    own = {edge(short[i], short[i + 1]) for i in range(len(short) - 1)}
    if node.kind == "green":
        own.add(edge(primary, secondary))
    seg = bfs_route(g, v_r, secondary, own, tagged)
    if seg is None or len(seg) - 1 > 2 * spine.radius - 2:
        return short, None
    return short, seg


BFS_ORACLE_GRAPHS = (
    [
        pytest.param(lambda f=f, d=d: f(d).graph, id=f"{f.__name__}({d})")
        for d in range(3, 31)
        for f in (lad, lad_plus)
    ]
    + [
        pytest.param(lambda n=n, s=s: random_mop_graph(n, s), id=f"random({n}, {s})")
        for n, s in [(200, 1), (200, 2), (200, 3), (200, 4), (200, 5), (200, 6), (400, 1)]
    ]
)


@pytest.mark.parametrize("make", BFS_ORACLE_GRAPHS)
def test_corridor_search_matches_bfs_oracle(make):
    g = make()
    spine = build_ccs(g)
    for node in spine.nodes:
        assert realize_paths(g, spine, node) == _bfs_realize(g, spine, node), node


def test_one_ball_growth_per_spine(monkeypatch):
    # The root and every long path read the same balls.
    started = []
    grow = moprc.metrics._balls

    def counted(g):
        started.append(g)
        return grow(g)

    monkeypatch.setattr(moprc.metrics, "_balls", counted)
    for g in (lad(12).graph, random_mop_graph(60, 3), fan(6).graph):
        started.clear()
        spine = build_ccs(g)
        for node in spine.nodes:
            realize_paths(g, spine, node)
        assert started == [g]
