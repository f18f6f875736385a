"""Exact verification oracles for rainbow connectivity.

Everything here is independent of the constructive algorithms: these
routines work on arbitrary graphs and edge colorings, use plain
state-space search, and are meant as ground truth for tests, for the
CLI `verify` / `rc` commands and for the repair loop of the coloring.
They never import the spine or coloring code. The exact solvers never
reuse a coloring produced elsewhere in the package; certificates come
out of their own search.

A path is rainbow when its edges carry pairwise distinct colors. A
coloring is rainbow connected when every vertex pair is joined by a
rainbow path, and strongly rainbow connected when every pair is joined
by a rainbow shortest path.

Checking a given coloring is NP-hard in general (Chakraborty, Fischer,
Matsliah and Yuster, 2011), so `is_rainbow_connected` works in two
phases. A single search out of one central hub vertex proves most pairs
at once (the hub certificate); only the pairs it leaves open go to the
exhaustive per-source search, which alone decides the verdict.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .core import EdgeColoring, Graph, breadth_first, edge
from .errors import DomainError, NotACut, ScaleLimit
from .metrics import bfs, ecc_diam_rad_center

_DEFAULT_MAX_N = 200
_DEFAULT_MAX_COLORS = 32
# Masks the hub search keeps per vertex. A full antichain can grow
# exponentially with the palette; a truncated one only leaves more
# pairs to the exhaustive search, so the verdict stays exact. A
# multiple of 8, because each vertex gets a lane of this many bits.
_HUB_MASK_CAP = 32


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a rainbow-connectivity check.

    counterexample is the lexicographically first pair with no
    qualifying rainbow path, or None when the property holds.
    pairs_certified counts the pairs among pairs_checked that the hub
    certificate proved; the rest were searched exhaustively.
    """

    ok: bool
    counterexample: tuple[int, int] | None
    pairs_checked: int
    pairs_certified: int = 0


def _steps(g: Graph, edges_sorted, labels) -> list[tuple[tuple[int, int], ...]]:
    """Per vertex, its (neighbor, label) steps by ascending neighbor.

    Edge edges_sorted[i] carries labels[i]: its index for the walk
    kernel, its color bit for the mask kernel. Row 0 stays empty. In
    sorted order every edge (a, x) with a < x comes before every edge
    (x, b), so each row fills in ascending neighbor order.
    """
    rows: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for (a, b), label in zip(edges_sorted, labels):
        rows[a].append((b, label))
        rows[b].append((a, label))
    return [tuple(row) for row in rows]


def _shortest_steps(g: Graph, steps, u: int) -> list[tuple[tuple[int, int], ...]]:
    """The steps that lead one BFS level further from u.

    Rows may hold any steps whose first entry is the neighbor. A walk
    from u over the kept steps is a shortest path.
    """
    level = bfs(g, u).dist
    return [()] + [
        tuple(st for st in steps[x] if level[st[0]] == level[x] + 1) for x in g.vertices()
    ]


def _prepare(g: Graph, coloring: EdgeColoring, max_n: int, max_colors: int):
    """Check the caps and bit-encode the colors.

    Returns the sorted edges, each edge's color bit and the number of
    colors.
    """
    coloring.check_total(g)
    if g.n > max_n:
        raise ScaleLimit(f"n={g.n} exceeds cap {max_n}; raise max_n to override")
    distinct = sorted(coloring.used)
    if len(distinct) > max_colors:
        raise ScaleLimit(
            f"{len(distinct)} colors exceed cap {max_colors}; raise max_colors to override"
        )
    bit = {c: 1 << i for i, c in enumerate(distinct)}
    edges = sorted(g.edges)
    return edges, [bit[coloring.colors[e]] for e in edges], len(distinct)


def _masks(
    adj, source: int, max_len: int, targets=(), cap: int = sys.maxsize
) -> list[list[int]]:
    """Per vertex, minimal color masks of rainbow walks from source.

    adj[x] lists the (neighbor, color bit) steps out of x. States are
    (vertex, color mask); per-vertex mask antichains prune dominated
    states (a superset mask reached no sooner is useless). Walks have
    at most max_len edges. The search stops as soon as every vertex of
    targets holds a mask, and keeps at most cap masks per vertex. The
    cap is tested before the dominance loop: a full antichain takes no
    mask either way, and the hub search fills it often.
    """
    best: list[list[int]] = [[] for _ in adj]
    best[source].append(0)
    remaining = set(targets)
    remaining.discard(source)
    frontier: list[tuple[int, int]] = [(source, 0)]
    for _ in range(max_len):
        nxt: list[tuple[int, int]] = []
        for v, mask in frontier:
            for w, b in adj[v]:
                if mask & b:
                    continue
                bw = best[w]
                if len(bw) >= cap:
                    continue
                nm = mask | b
                for old in bw:
                    if old & nm == old:
                        break
                else:
                    bw.append(nm)
                    nxt.append((w, nm))
                    if w in remaining:
                        remaining.discard(w)
                        if not remaining:
                            return best
        if not nxt:
            break
        frontier = nxt
    return best


def _rainbow_walk(adj_idx, bits, u, v, k) -> list[int] | None:
    """Edge indices of a u..v walk that a partial coloring may make rainbow.

    adj_idx[x] lists the (neighbor, edge index) steps the walk may take
    from x. bits[i] is the color bit of edge i, or 0 while it is
    unassigned. Unassigned edges act as wildcards (a fresh color each);
    assigned edges consume their color bit. The walk has at most k
    edges and its assigned colors are pairwise distinct. If there is no
    such walk, no completion of the partial coloring can join u and v,
    and the result is None. With every edge assigned, the walk is a
    rainbow path: a state that revisits a vertex is dominated.
    """
    best: list[list[int]] = [[] for _ in adj_idx]
    best[u].append(0)
    frontier: list[tuple[int, int, tuple | None]] = [(u, 0, None)]
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
                            ei, trail = trail
                            walk.append(ei)
                        return walk
                    bw.append(nm)
                    nxt.append((w, nm, (ei, trail)))
        if not nxt:
            break
        frontier = nxt
    return None


def _hub(adj, n: int) -> int:
    """The vertex of least (eccentricity, degree, label).

    Grows the distance-d ball of every vertex at once, as bitsets over
    the prepared adjacency, until some ball holds the whole graph: the
    vertices whose balls do are the centers. When the balls stop
    growing first, the graph is disconnected, no eccentricity is
    finite, and every vertex ties.
    """
    everyone = (1 << (n + 1)) - 2
    ball = [1 << v for v in range(n + 1)]
    while True:
        centers = [v for v in range(1, n + 1) if ball[v] == everyone]
        if centers:
            break
        grown = ball[:]
        for v in range(1, n + 1):
            for w, _ in adj[v]:
                grown[v] |= ball[w]
        if grown == ball:
            centers = list(range(1, n + 1))
            break
        ball = grown
    return min(centers, key=lambda v: (len(adj[v]), v))


def _open_pairs(masks: list[list[int]], n: int, k: int):
    """Yield (u, the v > u the hub certificate leaves open), u = 1..n-1.

    u proves v when some mask of u is disjoint from some mask of v.
    All pairs of a row are tested at once on bitsets: slot i of vertex
    v is bit v * W + i, with W = _HUB_MASK_CAP. clash[b] marks the
    slots whose mask holds color bit b, and every unused slot. For a
    mask a of u, the OR of clash[b] over the bits b of a marks the slots
    that do not prove a pair with a; v stays open exactly when, ANDed
    over all masks of u, its lane is still full.
    """
    w = _HUB_MASK_CAP
    full = (1 << w) - 1
    lanes: dict[int, list[int]] = {1 << j: [0] * (n + 1) for j in range(k)}
    unused = [full] * (n + 1)
    for v in range(1, n + 1):
        unused[v] = full >> len(masks[v]) << len(masks[v])
        for i, b in enumerate(masks[v]):
            while b:
                low = b & -b
                lanes[low][v] |= 1 << i
                b ^= low

    def pack(lane: list[int]) -> int:
        return int.from_bytes(b"".join(x.to_bytes(w // 8, "little") for x in lane), "little")

    pad = pack(unused)
    clash = {bit: pack(lane) | pad for bit, lane in lanes.items()}
    every = (1 << (w * (n + 1))) - 1
    lane_bit = every // full  # bit 0 of every lane
    for u in range(1, n):
        shut = every
        for a in masks[u]:
            blocked = pad
            while a:
                low = a & -a
                blocked |= clash[low]
                a ^= low
            shut &= blocked
        # Fold each lane onto its bit 0, which then tells whether any
        # slot of the lane proves the pair.
        proven = every ^ shut
        shift = w // 2
        while shift:
            proven |= proven >> shift
            shift //= 2
        rest = (lane_bit & ~proven) >> (w * (u + 1))
        left = []
        while rest:
            low = rest & -rest
            left.append(u + 1 + (low.bit_length() - 1) // w)
            rest ^= low
        yield u, left


def is_rainbow_connected(
    g: Graph,
    coloring: EdgeColoring,
    *,
    max_n: int = _DEFAULT_MAX_N,
    max_colors: int = _DEFAULT_MAX_COLORS,
) -> VerifyResult:
    """Exactly check that every pair has a rainbow path.

    Phase 1, the hub certificate: one rainbow search from the hub (the
    vertex of least eccentricity, then degree, then label) keeps, per
    vertex, minimal color masks of rainbow walks from the hub. A pair
    (u, v) is proven when some mask of u is disjoint from some mask of
    v: the walk u -> hub -> v then repeats no color, and every walk
    contains a u..v path on a subset of its edges, which is rainbow.

    Phase 2, the fallback: for each u in ascending order, the pairs
    (u, v) left unproven go to the exhaustive search from u. A proven
    pair never fails, so the first counterexample and pairs_checked
    are those of a plain search over all pairs in lexicographic order.
    """
    edges, bits, k = _prepare(g, coloring, max_n, max_colors)
    adj = _steps(g, edges, bits)
    n = g.n
    max_len = min(n - 1, k)
    masks = _masks(adj, _hub(adj, n), max_len, cap=_HUB_MASK_CAP)
    pairs = certified = 0
    for u, left in _open_pairs(masks, n, k):
        pairs += n - u
        certified += n - u - len(left)
        if left:
            best = _masks(adj, u, max_len, targets=left)
            missed = [v for v in left if not best[v]]
            if missed:
                return VerifyResult(False, (u, missed[0]), pairs, certified)
    return VerifyResult(True, None, pairs, certified)


def is_strong_rainbow_connected(
    g: Graph,
    coloring: EdgeColoring,
    *,
    max_n: int = _DEFAULT_MAX_N,
    max_colors: int = _DEFAULT_MAX_COLORS,
) -> VerifyResult:
    """Exhaustively check that every pair has a rainbow shortest path."""
    edges, bits, _ = _prepare(g, coloring, max_n, max_colors)
    adj = _steps(g, edges, bits)
    pairs = 0
    for u in range(1, g.n):
        targets = range(u + 1, g.n + 1)
        pairs += g.n - u
        best = _masks(_shortest_steps(g, adj, u), u, g.n - 1, targets=targets)
        missed = [v for v in targets if not best[v]]
        if missed:
            return VerifyResult(False, (u, missed[0]), pairs)
    return VerifyResult(True, None, pairs)


def rainbow_witness(
    g: Graph,
    coloring: EdgeColoring,
    u: int,
    v: int,
    *,
    strong: bool = False,
    max_n: int = _DEFAULT_MAX_N,
    max_colors: int = _DEFAULT_MAX_COLORS,
) -> tuple[int, ...] | None:
    """An actual rainbow path u..v (shortest when strong), or None."""
    if not (1 <= u <= g.n and 1 <= v <= g.n) or u == v:
        raise DomainError(f"need two distinct vertices in 1..{g.n}")
    edges, bits, k = _prepare(g, coloring, max_n, max_colors)
    steps = _steps(g, edges, range(len(edges)))
    if strong:
        steps = _shortest_steps(g, steps, u)
    walk = _rainbow_walk(steps, bits, u, v, min(g.n - 1, k))
    if walk is None:
        return None
    path = [u]
    for ei in reversed(walk):
        a, b = edges[ei]
        path.append(b if a == path[-1] else a)
    return tuple(path)


@dataclass(frozen=True)
class ExactResult:
    """Minimum number of colors plus a certificate coloring.

    infeasible_below: every smaller palette size is impossible, by the
    diameter lower bound together with the exhausted sizes listed in
    ruled_out (the sizes the search actually tried and refuted).
    nodes: the search-tree nodes visited for each palette size tried,
    in the order ruled_out + (value,).
    """

    value: int
    certificate: EdgeColoring
    infeasible_below: int
    ruled_out: tuple[int, ...]
    nodes: tuple[int, ...]


def _search_k(
    g: Graph, edges_sorted, k: int, strong: bool, deadline
) -> tuple[EdgeColoring | None, int]:
    """Find any valid k-coloring, or prove there is none.

    DFS in lexicographic edge order with the restricted-growth rule:
    color i may be used only if some earlier edge used color i-1, which
    kills color-permutation symmetry. Recently failing pairs are
    re-checked first (against the wildcard relaxation) to prune early.

    Each pair keeps the last walk that the relaxation found for it.
    While that walk's assigned colors stay pairwise distinct it still
    proves the pair, so the pair is searched again only once a color
    breaks it; every prune decision is the one a fresh search would
    make. Returns the coloring (or None) and the number of DFS nodes.
    """
    m = len(edges_sorted)
    # The steps a walk from each source may take: every edge, or for the
    # strong check only the shortest-path steps.
    adj_idx = _steps(g, edges_sorted, range(m))
    steps = [adj_idx] * (g.n + 1)
    if strong:
        for u in g.vertices():
            steps[u] = _shortest_steps(g, adj_idx, u)
    bits = [0] * m
    walks: dict[tuple[int, int], list[int]] = {}
    watched: list[tuple[int, int]] = []
    ticks = 0

    def joinable(u: int, v: int) -> bool:
        walk = walks.get((u, v))
        if walk is not None:
            mask = 0
            for ei in walk:
                b = bits[ei]
                if mask & b:
                    break
                mask |= b
            else:
                return True
        walk = _rainbow_walk(steps[u], bits, u, v, k)
        if walk is None:
            return False
        walks[(u, v)] = walk
        return True

    def first_failing() -> tuple[int, int] | None:
        for u in range(1, g.n):
            for v in range(u + 1, g.n + 1):
                if not joinable(u, v):
                    return (u, v)
        return None

    def dfs(idx: int, max_used: int) -> bool:
        nonlocal ticks
        ticks += 1
        if deadline is not None and ticks % 256 == 0 and time.monotonic() > deadline:
            raise ScaleLimit("exact search timed out")
        if idx == m:
            bad = first_failing()
            if bad is None:
                return True
            if bad not in watched:
                watched.insert(0, bad)
                del watched[8:]
            return False
        for c in range(1, min(max_used + 1, k) + 1):
            bits[idx] = 1 << c
            for u, v in watched:
                if not joinable(u, v):
                    break
            else:
                if dfs(idx + 1, max(max_used, c)):
                    return True
            bits[idx] = 0
        return False

    if dfs(0, 0):
        colors = {e: bits[i].bit_length() - 1 for i, e in enumerate(edges_sorted)}
        return EdgeColoring(colors), ticks
    return None, ticks


def _exact(g: Graph, strong: bool, max_edges: int, max_n: int, timeout_s) -> ExactResult:
    if g.n < 2:
        raise DomainError("need at least two vertices")
    if g.n > max_n or g.m > max_edges:
        raise ScaleLimit(
            f"exact search capped at n<={max_n}, m<={max_edges}; got n={g.n}, m={g.m}"
        )
    summary = ecc_diam_rad_center(g)  # also proves connectivity
    deadline = time.monotonic() + timeout_s if timeout_s is not None else None
    ruled: list[int] = []
    nodes: list[int] = []
    for k in range(summary.diameter, g.m + 1):
        cert, visited = _search_k(g, sorted(g.edges), k, strong, deadline)
        nodes.append(visited)
        if cert is not None:
            return ExactResult(k, cert, k - 1, tuple(ruled), tuple(nodes))
        ruled.append(k)
    raise AssertionError("all-distinct coloring must be feasible")


def exact_rc(
    g: Graph,
    *,
    max_edges: int = 25,
    max_n: int = 40,
    timeout_s: float | None = None,
) -> ExactResult:
    """Minimum colors for rainbow connectivity, by exhaustive search.

    Palette sizes are tried in ascending order from the diameter (no
    coloring below the diameter can work, since some pair needs that
    many edges on any joining path). Single-threaded and deliberately
    independent of the constructive coloring algorithms.
    """
    return _exact(g, False, max_edges, max_n, timeout_s)


def exact_src(
    g: Graph,
    *,
    max_edges: int = 25,
    max_n: int = 40,
    timeout_s: float | None = None,
) -> ExactResult:
    """Minimum colors for strong rainbow connectivity, exhaustively."""
    return _exact(g, True, max_edges, max_n, timeout_s)


def _components_without(g: Graph, removed: frozenset[tuple[int, int]]) -> dict[int, int]:
    """Component label per vertex after deleting the given edges."""

    def kept(v: int) -> list[int]:
        return [u for u in g.neighbors(v) if edge(u, v) not in removed]

    comp: dict[int, int] = {}
    label = 0
    for s in g.vertices():
        if s in comp:
            continue
        label += 1
        reached, _ = breadth_first(kept, (s,))
        comp.update(dict.fromkeys(reached, label))
    return comp


def enumerate_small_edge_cuts(
    g: Graph, *, max_size: int = 3, max_n: int = 60
) -> tuple[frozenset[tuple[int, int]], ...]:
    """All minimal edge cuts with at most max_size edges.

    Brute force over edge subsets in increasing size; a candidate that
    contains an already-found cut is not minimal and is dropped.
    """
    if g.n > max_n:
        raise ScaleLimit(f"n={g.n} exceeds cap {max_n}")
    if max_size < 1:
        raise DomainError("max_size must be at least 1")
    from itertools import combinations

    found: list[frozenset[tuple[int, int]]] = []
    all_edges = sorted(g.edges)
    for size in range(1, max_size + 1):
        for combo in combinations(all_edges, size):
            cand = frozenset(combo)
            if any(prev < cand for prev in found):
                continue
            comp = _components_without(g, cand)
            if len(set(comp.values())) > 1:
                found.append(cand)
    return tuple(sorted(found, key=sorted))


def disjoint_cut_property(
    g: Graph,
    coloring: EdgeColoring,
    s1: frozenset[tuple[int, int]],
    s2: frozenset[tuple[int, int]],
) -> bool:
    """Check the two-cut color condition for a rainbow-connected coloring.

    For disjoint edge cuts s1, s2 that both separate some common vertex
    pair, any joining path crosses both cuts, so a rainbow-connected
    coloring must put at least two colors on s1 union s2. Returns True
    when the condition holds (vacuously if no pair is split by both).
    Raises NotACut when either set fails to disconnect the graph.
    """
    coloring.check_total(g)
    s1 = frozenset(edge(u, v) for u, v in s1)
    s2 = frozenset(edge(u, v) for u, v in s2)
    for s in (s1, s2):
        bad = s - g.edges
        if bad:
            raise DomainError(f"not edges of the graph: {sorted(bad)}")
    if s1 & s2:
        raise DomainError("cuts must be edge-disjoint")
    comps = []
    for s in (s1, s2):
        comp = _components_without(g, s)
        if len(set(comp.values())) < 2:
            raise NotACut(f"removing {sorted(s)} leaves the graph connected")
        comps.append(comp)
    c1, c2 = comps
    crossing = any(
        c1[u] != c1[v] and c2[u] != c2[v]
        for u in g.vertices()
        for v in range(u + 1, g.n + 1)
    )
    if not crossing:
        return True
    seen = {coloring.colors[e] for e in (s1 | s2)}
    return len(seen) >= 2
