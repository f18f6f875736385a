"""Rainbow coloring construction: bound, determinism, oracle agreement."""

import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moprc.coloring
from moprc import (
    RepairExhausted,
    bfs,
    build_ccs,
    ecc_diam_rad_center,
    edge,
    eta,
    fan,
    from_canonical,
    is_rainbow_connected,
    lad,
    lad_plus,
    mop_from_edges,
    rainbow_coloring,
    random_mop_graph,
)

from conftest import route_cases

K3 = mop_from_edges(3, [(1, 2), (1, 3), (2, 3)])

# One mid-size run pinned exactly: any change to pass order, tie-breaking,
# or repair behavior shows up here first.
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
    "random_mop(120,2)": (
        lambda: random_mop_graph(120, 2),
        "f1cda48818bfec491aad38eae3ae76d3ed7bace7826d3ceb71806506b31947e5",
    ),
    "lad(15)": (
        lambda: lad(15).graph,
        "288cfb4d3971a1922edae134742d9ad94f37d6e0f83dbdee4537619e87972240",
    ),
    "lad_plus(12)": (
        lambda: lad_plus(12).graph,
        "b7790cc63de90e975971d6628f856caa33a46477fee749d15a6b9b3c1be948a6",
    ),
    # Its long paths reach the unconstrained route and an apex detour,
    # which no other entry does (asserted by
    # test_pinned_graph_reaches_the_unconstrained_route_and_a_detour).
    "random_mop(60,60192)": (
        lambda: random_mop_graph(60, 60192),
        "74f7f70909950cbf44a71af8f851c02d60f8d9fc068daf5ab27c00c1e133119d",
    ),
}


@pytest.mark.parametrize("name", list(FROZEN_DIGESTS))
def test_frozen_digests_beyond_n10(name):
    make, digest = FROZEN_DIGESTS[name]
    col, _ = rainbow_coloring(make())
    assert hashlib.sha256(repr(sorted(col.colors.items())).encode()).hexdigest() == digest


def test_pinned_graph_reaches_the_unconstrained_route_and_a_detour(route_log, monkeypatch):
    realize = moprc.coloring.realize_paths
    reached = []

    def logged(g, spine, node, avoid=frozenset()):
        start = len(route_log)
        short, long_ = realize(g, spine, node, avoid)
        reached.append(route_cases(route_log[start:], spine.root_vertex, long_))
        return short, long_

    monkeypatch.setattr(moprc.coloring, "realize_paths", logged)
    rainbow_coloring(FROZEN_DIGESTS["random_mop(60,60192)"][0]())
    assert any({"unconstrained", "detour"} <= cases for cases in reached)


# (graph, radius): at radius 2 no long path is routed at all.
CALL_COUNT_GRAPHS = {
    "random_mop(10,10010)": (lambda: random_mop_graph(10, 10010), 2),
    "random_mop(60,3)": (lambda: random_mop_graph(60, 3), 4),
    "lad(12)": (lambda: lad(12).graph, 6),
    "lad_plus(10)": (lambda: lad_plus(10).graph, 5),
}


@pytest.mark.parametrize("name", list(CALL_COUNT_GRAPHS))
def test_one_realization_per_node_and_one_eccentricity_pass(name, monkeypatch):
    make, radius = CALL_COUNT_GRAPHS[name]
    g = make()
    spine = build_ccs(g)
    assert spine.radius == radius
    calls = {"realize": 0, "ecc": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        moprc.coloring, "realize_paths", counting("realize", moprc.coloring.realize_paths)
    )
    # Count the eccentricity pass under every name a moprc module binds it to.
    ecc = ecc_diam_rad_center
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("moprc") and getattr(mod, "ecc_diam_rad_center", None) is ecc:
            monkeypatch.setattr(mod, "ecc_diam_rad_center", counting("ecc", ecc))
    rainbow_coloring(g)
    expected = 0 if radius == 2 else len(spine.nodes) - 1
    assert calls == {"realize": expected, "ecc": 1}


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


# Each of these raised ScaleLimit while the repair loop checked its
# colorings under the public verifier caps (n <= 200, 32 colors).
BEYOND_PUBLIC_CAPS = {
    "lad(21)": lambda: lad(21).graph,
    "lad_plus(21)": lambda: lad_plus(21).graph,
    "lad(24)": lambda: lad(24).graph,
    "lad(30)": lambda: lad(30).graph,
    "random_mop(210,1)": lambda: random_mop_graph(210, 1),
}


@pytest.mark.parametrize("name", list(BEYOND_PUBLIC_CAPS))
def test_inputs_beyond_public_verifier_caps(name):
    g = BEYOND_PUBLIC_CAPS[name]()
    col, stats = rainbow_coloring(g)
    summary = ecc_diam_rad_center(g)
    assert summary.diameter <= stats.colors_used <= 3 * summary.radius
    assert is_rainbow_connected(g, col, max_n=g.n, max_colors=stats.colors_used).ok


# The staged coloring of this graph needs one repair round.
NEEDS_REPAIR = (22, 14)


def test_repair_budget_exhausted_raises(monkeypatch):
    monkeypatch.setattr(moprc.coloring, "_REPAIR_ROUNDS", 0)
    with pytest.raises(RepairExhausted):
        rainbow_coloring(random_mop_graph(*NEEDS_REPAIR))


def test_unfixable_pair_raises(monkeypatch):
    monkeypatch.setattr(moprc.coloring, "_connect_pair", lambda *args, **kwargs: False)
    with pytest.raises(RepairExhausted):
        rainbow_coloring(random_mop_graph(*NEEDS_REPAIR))


def test_repair_rounds_reported():
    _, stats = rainbow_coloring(random_mop_graph(*NEEDS_REPAIR))
    assert stats.repair_rounds == 1
    _, stats = rainbow_coloring(lad(12).graph)
    assert stats.repair_rounds == 0


# Colorings that the verifier-driven repair patches, pinned like
# FROZEN_DIGESTS (recorded when long paths became first shortest
# routes): (100, 1) retries a pair with skip = 1; on (80, 1) and
# (100, 1) every call stops at the path budget (asserted by
# test_pinned_repairs_stop_at_the_path_budget).
FROZEN_REPAIR_DIGESTS = {
    (50, 1): "a5f3de011e97596b8065c3c1c160691f3812aa4e7d18ec49db7dc7aa7ca79264",
    (80, 1): "14d90f2b9490459fb62e001ce49b0f6f8886d828427108947beb5d8c43632e56",
    (100, 1): "14b39c32285d4829bfeae317a97eca5f8b2a1d49e74721e38bc438288b8acc41",
}


@pytest.mark.parametrize("n_seed", list(FROZEN_REPAIR_DIGESTS))
def test_frozen_repair_digests(n_seed, monkeypatch):
    skips = []
    connect = moprc.coloring._connect_pair

    def recording(g, colors, u, v, rad, skip=0):
        skips.append(skip)
        return connect(g, colors, u, v, rad, skip)

    monkeypatch.setattr(moprc.coloring, "_connect_pair", recording)
    col, stats = rainbow_coloring(random_mop_graph(*n_seed))
    digest = hashlib.sha256(repr(sorted(col.colors.items())).encode()).hexdigest()
    assert digest == FROZEN_REPAIR_DIGESTS[n_seed]
    assert skips and stats.repair_rounds == len(skips)
    if n_seed == (100, 1):
        assert max(skips) >= 1


@pytest.mark.parametrize("n_seed", [(80, 1), (100, 1)])
def test_pinned_repairs_stop_at_the_path_budget(n_seed, monkeypatch):
    calls = []
    connect = moprc.coloring._connect_pair

    def recording(g, colors, u, v, rad, skip=0):
        calls.append((u, v, rad))
        return connect(g, colors, u, v, rad, skip)

    monkeypatch.setattr(moprc.coloring, "_connect_pair", recording)
    g = random_mop_graph(*n_seed)
    rainbow_coloring(g)
    budget = moprc.coloring._PATH_BUDGET
    assert calls
    for u, v, rad in calls:
        # More than budget paths exist, so the walk stopped at the budget.
        paths = _reference_paths_between(g, u, v, min(3 * rad, g.n - 1), budget + 1)
        assert len(paths) > budget


# On NEEDS_REPAIR the hub certifies every pair but the failing one, so
# the fallback stores no path; on (100, 1) it stores some every round.
@pytest.mark.parametrize("n_seed,stores", [(NEEDS_REPAIR, False), ((100, 1), True)])
def test_every_repair_round_matches_a_fresh_check(n_seed, stores, monkeypatch):
    check = moprc.coloring.is_rainbow_connected
    results, shared = [], []

    def compared(g, coloring, *, proofs, **caps):
        res = check(g, coloring, proofs=proofs, **caps)
        assert res == check(g, coloring, **caps)
        results.append(res)
        shared.append(proofs)
        return res

    monkeypatch.setattr(moprc.coloring, "is_rainbow_connected", compared)
    _, stats = rainbow_coloring(random_mop_graph(*n_seed))
    assert [res.ok for res in results] == [False] * stats.repair_rounds + [True]
    assert all(proofs is shared[0] for proofs in shared)
    assert bool(shared[0]) == stores


def _reference_paths_between(g, u, v, max_len, budget):
    """The repair loop's former path source: every simple u..v path of
    at most max_len edges (pruned by the distance to v), depth first in
    lexicographic order, cut at `budget` paths, shortest first."""
    dist_v = bfs(g, v).dist
    out = []
    stack = [(u,)]
    while stack and len(out) < budget:
        path = stack.pop()
        x = path[-1]
        if x == v:
            out.append(path)
            continue
        used = len(path) - 1
        for w in sorted(g.neighbors(x), reverse=True):
            if w in path or used + 1 + dist_v[w] > max_len:
                continue
            stack.append(path + (w,))
    out.sort(key=lambda p: (len(p), p))
    return out


def _reference_flip_priority(c, rad):
    if c == 3:
        return 0
    if c in (1, 2):
        return 1
    if c >= rad + 5:
        return 2
    if c == 6:
        return 3
    if c >= 7:
        return 4
    return 5


def _reference_connect_pair(g, colors, u, v, rad, skip, budget):
    """The former pick: score every enumerated path, sort the
    conflicting ones, skip the fixable ones `skip` times, recolor."""
    palette = range(1, 3 * rad + 1)
    max_len = min(3 * rad, g.n - 1)
    scored = []
    for path in _reference_paths_between(g, u, v, max_len, budget):
        cols = [colors[edge(path[i], path[i + 1])] for i in range(len(path) - 1)]
        conflicts = len(cols) - len(set(cols))
        if conflicts:
            scored.append((conflicts, path))
    scored.sort(key=lambda cp: (cp[0], len(cp[1]), cp[1]))
    for _, path in scored:
        edges = [edge(path[i], path[i + 1]) for i in range(len(path) - 1)]
        cols = [colors[e] for e in edges]
        present = set(cols)
        spare = sorted((c for c in palette if c not in present), reverse=True)
        groups = {}
        for e, c in zip(edges, cols):
            groups.setdefault(c, []).append(e)
        dup_groups = [es for es in groups.values() if len(es) > 1]
        if sum(len(es) - 1 for es in dup_groups) > len(spare):
            continue
        if skip:
            skip -= 1
            continue
        spare_iter = iter(spare)
        for es in dup_groups:
            ordered = sorted(
                es, key=lambda e: (_reference_flip_priority(colors[e], rad), e)
            )
            for e in ordered[: len(es) - 1]:
                colors[e] = next(spare_iter)
        return True
    return False


def _assert_same_pick(n, seed, color_seed, skip):
    g = random_mop_graph(n, seed)
    rad = ecc_diam_rad_center(g).radius
    rng = random.Random(color_seed)
    colors = {e: rng.randint(1, 3 * rad) for e in sorted(g.edges)}
    u, v = rng.sample(range(1, n + 1), 2)
    expected = dict(colors)
    budget = moprc.coloring._PATH_BUDGET
    ok = _reference_connect_pair(g, expected, u, v, rad, skip, budget)
    assert moprc.coloring._connect_pair(g, colors, u, v, rad, skip) == ok
    assert colors == expected


PICK_CASES = (
    st.integers(min_value=6, max_value=30),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([0, 1, 2]),
)


@given(*PICK_CASES)
@settings(max_examples=60, deadline=None)
def test_connect_pair_matches_sorted_enumeration(n, seed, color_seed, skip):
    _assert_same_pick(n, seed, color_seed, skip)


@given(*PICK_CASES, st.integers(min_value=2, max_value=25))
@settings(max_examples=60, deadline=None)
def test_connect_pair_matches_sorted_enumeration_at_small_budget(
    n, seed, color_seed, skip, budget
):
    # Budgets this small cut most walks short, so the stop at the
    # budget and the pick among a truncated set are both exercised.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moprc.coloring, "_PATH_BUDGET", budget)
        _assert_same_pick(n, seed, color_seed, skip)
