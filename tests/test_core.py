"""Construction, validation, and structural queries of MOPs."""

import itertools
import random
import re
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moprc import (
    CanonicalMop,
    ValidationReport,
    DomainError,
    EdgeColoring,
    Graph,
    InvalidAttachment,
    MopGraph,
    NotMop,
    edge,
    fan,
    from_canonical,
    hamiltonian_cycle,
    hamiltonian_degree_sequence,
    lad,
    lad_plus,
    mop_from_edges,
    random_mop,
    random_mop_graph,
    to_canonical,
    triangles,
    validate_mop,
)
from moprc import core

from conftest import brute_hamiltonian_cycles, construction_orders

K4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
K23 = Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
MMOP4 = CanonicalMop(4, {4: 2}, {4: 3})


def test_edge_normalizes_and_rejects_loops():
    assert edge(5, 2) == (2, 5)
    assert edge(2, 5) == (2, 5)
    with pytest.raises(DomainError):
        edge(3, 3)


def test_triangle_base_case():
    g = from_canonical(CanonicalMop(3))
    assert g.n == 3
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    assert g.ham_cycle == (1, 2, 3)
    assert all(kind == "outer" for kind in g.edge_kind.values())


def test_four_vertex_double_triangle():
    g = from_canonical(MMOP4)
    assert g.m == 5
    chords = [e for e, k in g.edge_kind.items() if k == "chord"]
    assert chords == [(2, 3)]
    assert g.ham_cycle == (1, 2, 4, 3)
    assert hamiltonian_degree_sequence(g) == (2, 3, 2, 3)


def test_six_vertex_strip_distance():
    g = lad(3).graph
    from moprc import bfs

    assert bfs(g, 1).dist[6] == 3
    assert g.m == 9


def test_canonical_rejects_bad_rows():
    with pytest.raises(DomainError):
        CanonicalMop(2)
    with pytest.raises(DomainError):
        CanonicalMop(4, {4: 3}, {4: 3})  # low == high
    with pytest.raises(DomainError):
        CanonicalMop(4, {4: 3}, {4: 4})  # high not < i
    with pytest.raises(DomainError):
        CanonicalMop(5, {4: 1}, {4: 2})  # missing row for 5


def test_interior_attachment_rejected():
    # After vertex 4 lands on (1, 3), that edge is interior; vertex 5
    # may not attach there.
    with pytest.raises(InvalidAttachment) as exc:
        from_canonical(CanonicalMop(5, {4: 1, 5: 1}, {4: 3, 5: 3}))
    assert exc.value.vertex == 5


def test_validate_accepts_families_and_random():
    assert validate_mop(from_canonical(CanonicalMop(3))).ok
    assert validate_mop(fan(7).graph).ok
    for n, seed in [(5, 1), (12, 9), (30, 4)]:
        assert validate_mop(random_mop_graph(n, seed)).ok


def dict_bfs(g: Graph, sources) -> dict[int, int]:
    """Distances in visit order, by the dict-based BFS the kernel replaced."""
    dist = dict.fromkeys(sources, 0)
    queue = list(sources)
    for v in queue:
        for u in g.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def test_kernel_levels_and_order_match_the_dict_bfs():
    graphs = [from_canonical(c) for n in range(3, 8) for c in construction_orders(n)]
    graphs += [random_mop_graph(n, s) for n in (20, 60, 200) for s in range(3)]
    graphs += [f(d).graph for d in range(3, 13) for f in (lad, lad_plus)]
    for g in graphs:
        top = tuple(reversed(g.vertices()))
        for sources in [(v,) for v in g.vertices()] + [top[:2], top[::3], tuple(g.vertices())]:
            dist = dict_bfs(g, sources)
            level, order = core.breadth_first(g.neighbors, g.n, sources)
            assert order == list(dist), (g, sources)
            assert level == [sys.maxsize] + [dist[v] for v in g.vertices()], (g, sources)


def test_kernel_on_repeated_sources_and_unreached_vertices():
    g = Graph(7, [(1, 2), (2, 3), (3, 1), (4, 5), (6, 2)])
    level, order = core.breadth_first(g.neighbors, g.n, (3, 6, 3, 6))
    assert order == [3, 6, 1, 2]
    far = sys.maxsize
    assert level == [far, 1, 1, 0, far, far, 0, far]
    level, order = core.breadth_first(g.neighbors, g.n, (5, 5))
    assert (level, order) == ([far, far, far, far, 1, 0, far, far], [5, 4])
    level, order = core.breadth_first(g.neighbors, g.n, ())
    assert (level, order) == ([far] * 8, [])


def test_validate_mop_runs_the_kernel_once(monkeypatch):
    # Only the connectivity check runs the kernel. A run per
    # neighborhood would allocate n + 1 levels n times: quadratic.
    kernel, runs = core.breadth_first, []

    def counted(*args):
        runs.append(tuple(args[-1]))
        return kernel(*args)

    monkeypatch.setattr(core, "breadth_first", counted)
    for g in (fan(2000).graph, random_mop_graph(2000, 1)):
        runs.clear()
        assert validate_mop(g).ok
        assert runs == [(1,)], g


def test_validate_rejects_known_non_mops():
    r = validate_mop(K4)
    assert not r.ok and any("2-degenerate" in v for v in r.violations)
    assert not validate_mop(K23).ok
    # Removing a chord leaves a quadrilateral face.
    square = Graph(4, [(1, 2), (2, 4), (3, 4), (1, 3)])
    r = validate_mop(square)
    assert not r.ok
    assert any("induce a path" in v for v in r.violations)
    disconnected = Graph(4, [(1, 2), (3, 4)])
    assert not validate_mop(disconnected).ok


def _small_random_graphs(count: int, max_n: int, seed: int):
    """Graphs on 1..max_n vertices, each with its own edge density."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.random()
        yield Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p])


def _wheel(k: int) -> Graph:
    """Hub k + 1 joined to every vertex of the cycle 1..k."""
    return Graph(k + 1, [(i, i % k + 1) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)])


def _reference_validate(g: Graph) -> ValidationReport:
    """validate_mop as it was first written: neighborhoods checked on
    the whole neighbor lists, 2-degeneracy by peeling a least (degree,
    label) vertex until it has degree above 2."""
    if g.n < 3:
        return ValidationReport(False, (f"n={g.n} is below the minimum of 3",))
    seen, todo = {1}, [1]
    while todo:
        for u in g.neighbors(todo.pop()):
            if u not in seen:
                seen.add(u)
                todo.append(u)
    if len(seen) != g.n:
        return ValidationReport(False, ("graph is not connected",))
    violations = []
    for v in g.vertices():
        vs = set(g.neighbors(v))
        sub = {u: [w for w in g.neighbors(u) if w in vs] for u in vs}
        m = sum(map(len, sub.values())) // 2
        ends = [u for u in vs if len(sub[u]) <= 1]
        reached = set(ends[:1])
        todo = list(reached)
        while todo:
            for w in sub[todo.pop()]:
                if w not in reached:
                    reached.add(w)
                    todo.append(w)
        path = bool(vs) and m == len(vs) - 1 and max(map(len, sub.values())) <= 2 and len(reached) == len(vs)
        if not path:
            violations.append(f"neighborhood of vertex {v} does not induce a path")
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        if len(adj[v]) > 2:
            violations.append(f"not 2-degenerate: peeling stuck at vertex {v} with degree {len(adj[v])}")
            break
        for u in adj[v]:
            adj[u].discard(v)
        del adj[v]
    return ValidationReport(not violations, tuple(violations))


def test_validate_matches_min_degree_peel():
    k5 = Graph(5, itertools.combinations(range(1, 6), 2))
    fixed = [K4, k5, K23] + [_wheel(k) for k in range(3, 9)]
    # A MOP with a K4 hung off vertex 7: the peel gets stuck there.
    hung = random_mop_graph(7, 2)
    fixed.append(Graph(10, list(hung.edges) + [(7, 8), (7, 9), (7, 10), (8, 9), (8, 10), (9, 10)]))
    assert validate_mop(K4).violations[-1] == "not 2-degenerate: peeling stuck at vertex 1 with degree 3"
    assert validate_mop(k5).violations[-1] == "not 2-degenerate: peeling stuck at vertex 1 with degree 4"
    assert validate_mop(_wheel(6)).violations == (
        "neighborhood of vertex 7 does not induce a path",
        "not 2-degenerate: peeling stuck at vertex 1 with degree 3",
    )
    stuck = 0
    for g in fixed + list(_small_random_graphs(2000, 11, 23)):
        report = validate_mop(g)
        assert report == _reference_validate(g), sorted(g.edges)
        stuck += any("2-degenerate" in v for v in report.violations)
    assert stuck > 100


def test_common_neighbors_equal_the_set_intersection():
    for g in _small_random_graphs(300, 9, 7):
        for u in g.vertices():
            for v in g.vertices():
                want = tuple(sorted(set(g.neighbors(u)) & set(g.neighbors(v))))
                assert g.common_neighbors(u, v) == want, (sorted(g.edges), u, v)


def test_cycle_derivation_matches_brute_force():
    for n, seed in [(6, 3), (7, 11), (8, 2), (8, 5)]:
        g = random_mop_graph(n, seed)
        cycles = brute_hamiltonian_cycles(g)
        assert len(cycles) == 1, "a MOP has a unique spanning cycle"
        (cycle_edges,) = cycles
        derived = hamiltonian_cycle(Graph(g.n, g.edges))
        derived_edges = {
            edge(derived[i], derived[(i + 1) % n]) for i in range(n)
        }
        assert derived_edges == cycle_edges
        assert derived == g.ham_cycle


def test_cycle_start_and_direction_deterministic():
    g = from_canonical(MMOP4)
    assert g.ham_cycle[0] == 1
    assert g.ham_cycle[1] < g.ham_cycle[-1]


def test_cycle_derivation_rejects_non_mop():
    with pytest.raises(NotMop):
        hamiltonian_cycle(K4)


def test_fan_degree_sequence():
    g = fan(4).graph
    assert g.ham_cycle == (1, 2, 3, 4, 5)
    assert hamiltonian_degree_sequence(g) == (2, 3, 3, 2, 4)
    assert sum(hamiltonian_degree_sequence(g)) == 2 * g.m


def test_triangle_enumeration():
    assert triangles(from_canonical(CanonicalMop(3))) == (frozenset({1, 2, 3}),)
    assert triangles(from_canonical(MMOP4)) == (
        frozenset({1, 2, 3}),
        frozenset({2, 3, 4}),
    )


def test_structural_counts_on_random_instances():
    for n, seed in [(3, 0), (10, 42), (25, 7), (60, 13)]:
        g = random_mop_graph(n, seed)
        assert g.m == 2 * n - 3
        assert sum(1 for k in g.edge_kind.values() if k == "chord") == n - 3
        assert len(triangles(g)) == n - 2


def test_mop_from_edges_round_trip():
    g = lad(4).graph
    rebuilt = mop_from_edges(g.n, g.edges)
    assert rebuilt.edges == g.edges
    assert rebuilt.ham_cycle == g.ham_cycle


def test_mop_from_edges_rejects_bad_input():
    with pytest.raises(NotMop):
        mop_from_edges(4, [(1, 2), (2, 3), (3, 4)])  # wrong count
    with pytest.raises(NotMop):
        # Right count (2n-3 = 7) but a crossing-chord pentagon, not a MOP.
        mop_from_edges(
            5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3), (2, 4)]
        )


def test_mop_from_edges_agrees_with_validate_mop():
    # Every edge set with 2n - 3 edges, n = 3..6: 5,132 in all.
    count = mops = 0
    for n in range(3, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for edges in itertools.combinations(pairs, 2 * n - 3):
            count += 1
            if validate_mop(Graph(n, edges)).ok:
                mops += 1
                assert mop_from_edges(n, edges).edges == frozenset(edges)
            else:
                with pytest.raises(NotMop):
                    mop_from_edges(n, edges)
    assert count == 5132
    # Labelled MOPs: (n - 1)! / 2 spanning cycles, Catalan(n - 2)
    # triangulations of each.
    assert mops == 1 + 6 + 60 + 840


def test_mop_graph_rejects_what_is_not_a_mop():
    ring = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    with pytest.raises(NotMop, match="close no inner face"):
        MopGraph(5, ring + [(1, 3), (2, 4)], (1, 2, 3, 4, 5))
    with pytest.raises(NotMop, match="n >= 3"):
        MopGraph(2, [(1, 2)], (1, 2))
    triangle = [(1, 2), (1, 3), (2, 3)]
    with pytest.raises(NotMop, match="each of 1..n once"):
        MopGraph(3, triangle, (1, 2, 3, 1))
    g = lad(3).graph
    with pytest.raises(NotMop, match="each of 1..n once"):
        MopGraph(g.n, g.edges, g.ham_cycle + g.ham_cycle[:1])


@pytest.mark.parametrize("relabel", [False, True], ids=["identity", "relabelled"])
def test_mop_graph_agrees_with_validate_mop_on_every_chord_set(relabel):
    # Every set of n - 3 chords of an n-cycle, n = 3..8: 16,602 in all.
    # The constructor accepts the Catalan(n - 2) triangulations and
    # nothing else. Each refusal names a face (v, c, u) of the walk that
    # fails: u is not adjacent to c, or not just before v in c's fan.
    # Some name a triangle that is no face, so c and u are adjacent.
    face = re.compile(r"fan neighbors (\d+) and (\d+) of vertex (\d+) close no inner face")
    count, accepted, triangles_named = 0, [], []
    for n in range(3, 9):
        cycle = tuple(random.Random(n).sample(range(1, n + 1), n)) if relabel else tuple(range(1, n + 1))
        pos = {v: i for i, v in enumerate(cycle)}
        ring = [(cycle[i - 1], cycle[i]) for i in range(n)]
        chords = [(cycle[i], cycle[j]) for i, j in itertools.combinations(range(n), 2) if 1 < j - i < n - 1]
        mops = named = 0
        for cs in itertools.combinations(chords, n - 3):
            count += 1
            plain = Graph(n, ring + list(cs))
            ok = validate_mop(plain).ok
            try:
                g = MopGraph(n, plain.edges, cycle)
            except NotMop as e:
                assert not ok, cs
                c, u, v = map(int, face.match(str(e)).groups())
                fan_of = {w: sorted(plain.neighbors(w), key=lambda x: (pos[x] - pos[w]) % n) for w in (v, c)}
                assert fan_of[v].index(u) == fan_of[v].index(c) + 1, (cs, str(e))
                assert u not in fan_of[c] or fan_of[c].index(v) != fan_of[c].index(u) + 1, (cs, str(e))
                named += u in fan_of[c]
            else:
                assert ok and g.edges == plain.edges, cs
                mops += 1
        accepted.append(mops)
        triangles_named.append(named)
    assert count == 16602
    assert accepted == [1, 2, 5, 14, 42, 132]
    assert triangles_named == [0, 0, 0, 5, 79, 1130]


def test_fan_neighbors_walk_the_neighborhood_path():
    g = random_mop_graph(15, 3)
    for v in g.vertices():
        order = g.fan_neighbors(v)
        assert sorted(order) == sorted(g.neighbors(v))
        for a, b in zip(order, order[1:]):
            assert g.has_edge(a, b)


def _peel_by_rescan(g: MopGraph):
    """to_canonical's peel as a plain loop that rescans every vertex for
    the largest degree-2 label before each removal."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    removed = []
    while len(adj) > 3:
        v = max(u for u in adj if len(adj[u]) == 2)
        a, b = sorted(adj[v])
        for u in (a, b):
            adj[u].discard(v)
        del adj[v]
        removed.append((v, a, b))
    relabel = {orig: i + 1 for i, orig in enumerate(sorted(adj))}
    low, high = {}, {}
    for label, (v, a, b) in enumerate(reversed(removed), 4):
        relabel[v] = label
        low[label], high[label] = sorted((relabel[a], relabel[b]))
    return CanonicalMop(g.n, low, high), relabel


def test_canonical_peel_matches_the_rescanning_peel():
    # Every construction order up to n = 9 maps to itself, so each is
    # also peeled with its labels reversed; random MOPs up to n = 200
    # get a seeded relabelling too.
    graphs = []
    for n in range(3, 10):
        for c in construction_orders(n):
            g = from_canonical(c)
            flip = [(n + 1 - u, n + 1 - v) for u, v in g.edges]
            graphs += [g, MopGraph(n, flip, tuple(n + 1 - v for v in g.ham_cycle))]
    assert len(graphs) == 2 * 23116
    rng = random.Random(28)
    for n in range(3, 201, 3):
        for s in range(2):
            g = random_mop_graph(n, s)
            perm = list(g.vertices())
            rng.shuffle(perm)
            label = dict(zip(g.vertices(), perm))
            graphs += [g, mop_from_edges(n, [(label[u], label[v]) for u, v in g.edges])]
    graphs += [fam(d).graph for d in range(2, 31) for fam in (lad, lad_plus)]
    graphs += [fan(k).graph for k in range(2, 60)]
    for g in graphs:
        assert to_canonical(g) == _peel_by_rescan(g), g


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=2**63))
@settings(max_examples=60, deadline=None)
def test_construction_round_trip(n, seed):
    g = from_canonical(random_mop(n, seed))
    canon, relabel = to_canonical(g)
    rebuilt = from_canonical(canon)
    mapped = {edge(relabel[u], relabel[v]) for u, v in g.edges}
    assert mapped == set(rebuilt.edges)


def test_coloring_accounting():
    c = EdgeColoring({(2, 1): 3, (1, 3): 1})
    assert c.colors == {(1, 2): 3, (1, 3): 1}
    assert c.palette_size == 3
    assert c.used == frozenset({1, 3})
    assert c.color(3, 1) == 1
    with pytest.raises(DomainError):
        EdgeColoring({(1, 2): 0})
    # A bool is an int to Python, but it would not survive a file.
    with pytest.raises(DomainError, match="1-based ints"):
        EdgeColoring({(1, 2): True, (1, 3): 2})
    with pytest.raises(DomainError, match="colored twice"):
        EdgeColoring({(1, 2): 1, (2, 1): 2})
    g = from_canonical(CanonicalMop(3))
    with pytest.raises(DomainError):
        c.check_total(g)  # (2, 3) uncolored
    full = EdgeColoring({(1, 2): 1, (1, 3): 1, (2, 3): 1})
    full.check_total(g)
    with pytest.raises(DomainError):
        EdgeColoring({(1, 2): 1, (1, 4): 1, (1, 3): 1, (2, 3): 1}).check_total(g)


def test_check_total_names_the_least_offending_edge():
    # The least uncolored edge is named before any colored non-edge.
    g = from_canonical(CanonicalMop(3))  # edges (1, 2), (1, 3), (2, 3)
    cases = [
        ({(1, 2): 1, (1, 3): 2}, "uncolored edges, e.g. (2, 3)"),
        ({(1, 2): 1}, "uncolored edges, e.g. (1, 3)"),
        ({(1, 2): 1, (1, 3): 1, (2, 3): 1, (1, 4): 2, (3, 5): 1}, "colored non-edges, e.g. (1, 4)"),
        ({(1, 2): 1, (1, 3): 1, (1, 4): 1}, "uncolored edges, e.g. (2, 3)"),
        ({}, "uncolored edges, e.g. (1, 2)"),
    ]
    for colors, message in cases:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            EdgeColoring(colors).check_total(g)


def test_coloring_validation_edge_cases():
    # Every case is tried with canonical and with reversed edges, and
    # with the bad entry first and last, so no shortcut for plain ints
    # on canonical edges can change a verdict or a message.
    cases = [((3, 3), 1, "self-loop at vertex 3")]
    for c in (0, -1, 1.0, True):
        cases.append(((1, 3), c, f"edge (1, 3): colors are 1-based ints, got {c!r}"))
    for key in ((1, 2), (2, 1)):
        for bad_edge, bad_color, message in cases:
            for colors in ({key: 1, bad_edge: bad_color}, {bad_edge: bad_color, key: 1}):
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    EdgeColoring(colors)
    for colors in ({(1, 2): 1, (2, 1): 2}, {(2, 1): 2, (1, 2): 1}):
        with pytest.raises(DomainError, match=r"^edge \(1, 2\) is colored twice$"):
            EdgeColoring(colors)
    # An int subclass is a color, and it is kept as given.
    shade = IntEnum("Shade", "DARK LIGHT")
    for key in ((1, 2), (2, 1)):
        c = EdgeColoring({key: shade.LIGHT, (1, 3): 1})
        assert c.colors == {(1, 2): 2, (1, 3): 1}
        assert c.colors[(1, 2)] is shade.LIGHT
        assert c.used == frozenset({1, 2})
