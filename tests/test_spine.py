"""Elimination orderings, maximal fans, and cut-spine construction."""

import heapq
import random

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
from moprc.spine import _route, primary_secondary

from conftest import all_simple_paths, is_vertex_pair_cut, route_cases

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


def test_trees_are_identical_across_runs():
    g = random_mop_graph(35, 14)
    s1, s2 = build_ccs(g), build_ccs(g)
    assert s1.nodes == s2.nodes
    assert s1.parent == s2.parent
    assert s1.layers == s2.layers


def test_realized_paths_are_edge_disjoint_with_length_contracts():
    for n, seed in [(15, 2), (30, 9), (45, 17), (60, 33)]:
        g = random_mop_graph(n, seed)
        s = build_ccs(g)
        if s.degenerate_radius:
            continue
        for nd in s.nodes[1:]:
            short, long_ = realize_paths(g, s, nd)
            se = {edge(short[i], short[i + 1]) for i in range(len(short) - 1)}
            le = {edge(long_[i], long_[i + 1]) for i in range(len(long_) - 1)}
            assert not se & le
            assert short[0] == long_[0] == s.root_vertex
            assert len(short) - 1 <= s.radius - 1
            assert len(long_) - 1 <= 2 * s.radius - 2


@given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=2**63))
@settings(max_examples=40, deadline=None)
def test_realized_paths_edge_disjoint_property(n, seed):
    g = random_mop_graph(n, seed)
    s = build_ccs(g)
    if s.degenerate_radius:
        return
    for leaf in s.leaves():
        short, long_ = realize_paths(g, s, leaf)
        se = {edge(short[i], short[i + 1]) for i in range(len(short) - 1)}
        le = {edge(long_[i], long_[i + 1]) for i in range(len(long_) - 1)}
        assert not se & le


def _reference_route(g, src, dst, forbidden, banned=None, tags=None):
    """The former router: least (hops, path) simple path from src,
    never crossing two edges of one tag class."""
    if src == dst:
        return (src,)
    heap = [(0, (src,), frozenset())]
    settled = {}
    while heap:
        hops, path, used_tags = heapq.heappop(heap)
        v = path[-1]
        if v == dst:
            return path
        key = (v, used_tags)
        if key in settled and settled[key] <= hops:
            continue
        settled[key] = hops
        for u in g.neighbors(v):
            if u in forbidden or u in path:
                continue
            e = edge(u, v)
            if banned is not None and e in banned:
                continue
            nxt_tags = used_tags
            if tags is not None and e in tags:
                if tags[e] in used_tags:
                    continue
                nxt_tags = used_tags | {tags[e]}
            heapq.heappush(heap, (hops + 1, path + (u,), nxt_tags))
    return None


def _reference_realize(g, spine, node, avoid):
    """The former pick: one route per root spoke and hard-edge set,
    keeping the least (hops, path) among those that fit the reserve;
    then the unconstrained route and apex detours, each apex chosen by
    the former rules (off the short path, then off the long path, then
    smallest label)."""
    v_r = spine.root_vertex
    if node.kind == "root":
        return ((v_r,), (v_r,))
    primary, secondary = primary_secondary(g, node)
    routes = spine.routes
    tags = dict.fromkeys(routes.tagged, 0)
    a_path = routes.shorts[node]
    a_edges = {edge(a_path[i], a_path[i + 1]) for i in range(len(a_path) - 1)}
    own_pair = {edge(primary, secondary)} if node.kind == "green" else set()

    def fits_reserve(seg):
        need = sum(1 for i in range(1, len(seg) - 1) if edge(seg[i], seg[i + 1]) not in tags)
        return need <= 2 * spine.radius - 4

    best = None
    for hard in (a_edges | own_pair | set(avoid), a_edges | own_pair):
        for w in g.neighbors(v_r):
            if edge(v_r, w) in hard:
                continue
            tail = _reference_route(g, w, secondary, {v_r}, hard, tags)
            if tail is None or not fits_reserve((v_r,) + tail):
                continue
            seg = (v_r,) + tail
            cand = (len(seg) - 1, seg)
            if best is None or cand < best:
                best = cand
        if best is not None:
            break
    b_path = list(best[1] if best else _reference_route(g, v_r, secondary, set()))
    repairs = 0
    while repairs < 4 * g.n:
        shared_at = [
            i for i in range(len(b_path) - 1) if edge(b_path[i], b_path[i + 1]) in a_edges
        ]
        if not shared_at:
            break
        i = shared_at[-1]
        x, y = b_path[i], b_path[i + 1]
        w = min(
            g.common_neighbors(x, y),
            key=lambda w: (edge(x, w) in a_edges or edge(w, y) in a_edges, w in b_path, w),
        )
        b_path = b_path[: i + 1] + [w] + b_path[i + 1 :]
        repairs += 1
        if b_path.count(w) > 1:
            j1 = b_path.index(w)
            j2 = len(b_path) - 1 - b_path[::-1].index(w)
            if secondary not in b_path[j1 + 1 : j2]:
                b_path = b_path[: j1 + 1] + b_path[j2 + 1 :]
    return a_path, tuple(b_path)


def _avoid_sets(n, seed, avoid_seed, share):
    """The graph, its spine, and per spine node a random avoid set
    holding `share` of the edges."""
    g = random_mop_graph(n, seed)
    spine = build_ccs(g)
    edges = sorted(g.edges)
    rng = random.Random(avoid_seed)
    avoids = [
        (node, frozenset(rng.sample(edges, round(share * len(edges)))))
        for node in spine.nodes
    ]
    return g, spine, avoids


# (n, seed, avoid_seed, share) inputs pinned for the routing case each
# reaches; test_pinned_realizations_reach_their_cases asserts it.
# Node (28, 47) of this graph reaches the unconstrained route and an
# apex detour; avoiding every edge forces the second pass everywhere.
FALLBACK_EXAMPLE = (60, 60192, 0, 1.0)
# A route here fails the reserve, and another spoke's route is picked
# in the same pass.
RETRY_EXAMPLE = (22, 70482, 0, 0.1)


@given(
    st.integers(min_value=5, max_value=60),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
)
@example(*FALLBACK_EXAMPLE)
@example(*RETRY_EXAMPLE)
@settings(max_examples=60, deadline=None)
def test_realize_paths_matches_per_spoke_pick(n, seed, avoid_seed, share):
    g, spine, avoids = _avoid_sets(n, seed, avoid_seed, share)
    for node, avoid in avoids:
        assert realize_paths(g, spine, node, avoid) == _reference_realize(g, spine, node, avoid)


@pytest.mark.parametrize(
    "case,expected",
    [(FALLBACK_EXAMPLE, {"unconstrained", "detour"}), (RETRY_EXAMPLE, {"retry"})],
    ids=["fallback", "retry"],
)
def test_pinned_realizations_reach_their_cases(case, expected, route_log):
    g, spine, avoids = _avoid_sets(*case)
    reached = []
    for node, avoid in avoids:
        start = len(route_log)
        _, long_ = realize_paths(g, spine, node, avoid)
        reached.append(route_cases(route_log[start:], spine.root_vertex, long_))
    assert any(expected <= cases for cases in reached)


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
    assert _route(g, src, dst, banned, tagged) == expected
