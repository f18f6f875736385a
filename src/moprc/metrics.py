"""Distance metrics on graphs: BFS tables, layers, eccentricities.

bfs and layers work on any connected `Graph` and read the levels and
the visit order of one run of `core.breadth_first`, the package's one
plain breadth-first search; bfs takes each vertex's parent to be its
neighbor one level up that was visited first.

Eccentricities take one code path per graph type. On a `MopGraph` they
come from one linear pass over the dual tree of its inner faces
(`_mop_eccentricities`): it keeps three numbers for each side of each
edge, the farthest distance from either end and the farthest distance
from the nearer end, builds each side's from the two beyond it in O(1),
and reads every vertex eccentricity off its outer edge. On a plain
`Graph`, which may be no MOP, they come from ball growth (`_balls`),
which also serves the tests as the oracle for the pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, MopGraph, breadth_first
from .errors import DomainError, NotMop


@dataclass(frozen=True)
class DistanceTable:
    """BFS result from one source: distances and a parent tree."""

    source: int
    dist: dict[int, int]
    parent: dict[int, int | None]

    def path_to(self, v: int) -> tuple[int, ...]:
        """Shortest path source..v along BFS parents."""
        out = [v]
        while out[-1] != self.source:
            out.append(self.parent[out[-1]])
        return tuple(reversed(out))


def bfs(g: Graph, source: int) -> DistanceTable:
    """Breadth-first distances; neighbors expand in ascending label order."""
    if not 1 <= source <= g.n:
        raise DomainError(f"source {source} outside 1..{g.n}")
    level, order = breadth_first(g.neighbors, g.n, (source,))
    if len(order) != g.n:
        raise DomainError("graph is not connected")
    # A BFS parent is the neighbor one level up that was visited first.
    rank = {v: i for i, v in enumerate(order)}
    parent = {
        v: min((u for u in g.neighbors(v) if level[u] < level[v]), key=rank.get, default=None)
        for v in order
    }
    return DistanceTable(source, {v: level[v] for v in order}, parent)


@dataclass(frozen=True)
class EccentricitySummary:
    """Eccentricity of every vertex plus the derived global quantities."""

    ecc: dict[int, int]
    diameter: int
    radius: int
    center: tuple[int, ...]


def _balls(g: Graph):
    """Yield every vertex's distance-d ball for d = 0, 1, ...: entry v
    has bit w set when w is within d of v. Stops once a round grows no
    ball, so a ball is full (n bits set) only if the graph is connected.
    """
    nbrs = [()] + [g.neighbors(v) for v in g.vertices()]
    ball = [0] + [1 << v for v in g.vertices()]
    while True:
        yield ball
        grown = []
        for b, ns in zip(ball, nbrs):
            for w in ns:
                b |= ball[w]
            grown.append(b)
        if grown == ball:
            return
        ball = grown


def ecc_diam_rad_center(g: Graph) -> EccentricitySummary:
    """All vertex eccentricities, with diam/rad/center.

    A MopGraph reads them off the linear pass over its dual tree. Any
    other graph grows distance balls: ecc[v] counts the rounds in which
    v's ball misses some vertex.
    """
    if isinstance(g, MopGraph):
        ecc = linear_eccentricities(g)
    else:
        full = (1 << g.n + 1) - 2  # bits 1..n: the whole graph
        ecc = dict.fromkeys(g.vertices(), 0)
        for ball in _balls(g):
            for v in ecc:
                ecc[v] += ball[v] != full
        if ball[1] != full:
            raise DomainError("graph is not connected")
    diameter = max(ecc.values())
    radius = min(ecc.values())
    center = tuple(v for v in g.vertices() if ecc[v] == radius)
    return EccentricitySummary(ecc, diameter, radius, center)


def central_vertex(g: Graph) -> int:
    """The vertex of least (eccentricity, degree, label).

    A MopGraph reads every eccentricity off the linear pass over its
    dual tree. Any other graph grows distance balls up to the radius
    and no further: the centers are the first vertices whose balls hold
    the whole graph, and a round is tested with one `in` and scanned
    only when it fills a ball. On a disconnected graph every vertex
    ties.
    """
    if isinstance(g, MopGraph):
        ecc = _mop_eccentricities(g)
        radius = min(ecc[1:])
        return _least_degree(g, [v for v in g.vertices() if ecc[v] == radius])
    full = (1 << g.n + 1) - 2  # bits 1..n: the whole graph
    center = []
    for ball in _balls(g):
        if full in ball:
            center = [v for v in g.vertices() if ball[v] == full]
            break
    return _least_degree(g, center or g.vertices())


def _least_degree(g: Graph, vertices) -> int:
    """The vertex of least (degree, label) among vertices: `central_vertex`
    given the center, as in `EccentricitySummary.center`."""
    return min(vertices, key=lambda v: (g.degree(v), v))


def layers(g: Graph, sources: tuple[int, ...] | int) -> tuple[tuple[int, ...], ...]:
    """Vertices grouped by BFS distance from a source set.

    Layer k holds the vertices at distance exactly k, each layer sorted
    by label; layer 0 is the source set itself.
    """
    if isinstance(sources, int):
        sources = (sources,)
    if not sources:
        raise DomainError("need at least one source")
    for s in sources:
        if not 1 <= s <= g.n:
            raise DomainError(f"source {s} outside 1..{g.n}")
    level, order = breadth_first(g.neighbors, g.n, sources)
    if len(order) != g.n:
        raise DomainError("graph is not connected")
    out: list[list[int]] = [[] for _ in range(level[order[-1]] + 1)]
    for v in g.vertices():
        out[level[v]].append(v)
    return tuple(map(tuple, out))


def eta(g: Graph) -> int:
    """Smallest k such that every edge lies in a k-clique.

    For any MOP this is 3: each edge bounds a triangle. Raises NotMop
    if some edge lies in no triangle.
    """
    if g.n < 3 or g.m == 0:
        raise NotMop("eta is defined here for MOPs only")
    for u, v in sorted(g.edges):
        if not g.common_neighbors(u, v):
            raise NotMop(f"edge ({u}, {v}) lies in no triangle")
    return 3


def linear_eccentricities(g: MopGraph) -> dict[int, int]:
    """Every vertex eccentricity of a MOP in O(n), with no BFS."""
    return dict(zip(g.vertices(), _mop_eccentricities(g)[1:]))


def _mop_eccentricities(g: MopGraph) -> list[int]:
    """ecc[v] for every vertex v of a MOP (index 0 unused), in O(n).

    Edge {s, t} splits the other vertices into two sides, one per face
    on it; the exterior side of an outer edge is empty. The side across
    face (s, t, w) has the state (E(s), E(t), m): the farthest distance
    from s and from t to a vertex of the side, and m = max over its
    vertices x of min(d(s, x), d(t, x)). The side is w plus C1, the far
    side of {s, w}, and C2, the far side of {t, w}. Removing the
    adjacent pair {s, w} cuts C1 off from the rest, so a shortest path
    from t into C1 steps to s or w first, and one from s needs no
    vertex outside C1 and {s, w}. By symmetry in {t, w} and C2:

        E(s) = max(1, E1(s), 1 + m2)
        E(t) = max(1, E2(t), 1 + m1)
        m    = max(1, E1(s), E2(t))

    The states are stored as max(1, E) and max(0, m), so an empty side
    is (1, 1, 0) and the rule loses its floor of 1. Each side is an arc
    of the MopGraph's dual tree (`core._dual_tree`), one state per
    half-edge slot, in three flat lists. The tree's own arcs, whose
    sides lie away from the root, are built bottom-up from their two
    children. Their reverse arcs are built top-down: for a face
    (a, c, b) on the arc (a, b), the side of (c, a) is b plus the sides
    of the child (c, b) and of (b, a), the parent's reverse, and the
    side of (b, c) is a plus the sides of (b, a) and the child (a, c).
    The arc (v, u), u the vertex before v on the Hamiltonian cycle, is
    v's last slot, and its side holds every vertex but v and u, so its
    E(v) is v's eccentricity.
    """
    off, arcs, kids, backs = g._dual
    size = off[-1]
    ea, eb, mm = [1] * size, [1] * size, [0] * size
    # The arc (a, b) at s has children (a, c) at s - 1 and (c, b) at k.
    for s, k in zip(reversed(arcs), reversed(kids)):
        e1, m1, e2, m2 = ea[s - 1], mm[s - 1], eb[k], mm[k]
        ea[s] = e1 if e1 > m2 else m2 + 1
        eb[s] = e2 if e2 > m1 else m1 + 1
        mm[s] = e1 if e1 > e2 else e2
    # (c, a) at k + 1 has children (c, b) at k and (b, a) at r;
    # (b, c) at r + 1 has children (b, a) at r and (a, c) at s - 1.
    for s, k, r in zip(arcs, kids, backs):
        e1, m1, e2, m2 = ea[k], mm[k], eb[r], mm[r]
        ea[k + 1] = e1 if e1 > m2 else m2 + 1
        eb[k + 1] = e2 if e2 > m1 else m1 + 1
        mm[k + 1] = e1 if e1 > e2 else e2
        e1, m1, e2, m2 = ea[r], mm[r], eb[s - 1], mm[s - 1]
        ea[r + 1] = e1 if e1 > m2 else m2 + 1
        eb[r + 1] = e2 if e2 > m1 else m1 + 1
        mm[r + 1] = e1 if e1 > e2 else e2
    return [0] + [ea[o - 1] for o in off[2:]]
