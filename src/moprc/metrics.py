"""Distance metrics on graphs, plus a linear-time eccentricity scheme
specific to maximal outerplanar graphs.

The generic routines (bfs, eccentricities by ball growth, layers) work
on any connected `Graph`. bfs and layers read the levels and the visit
order of one run of `core.breadth_first`, the package's one plain
breadth-first search; bfs takes each vertex's parent to be its neighbor
one level up that was visited first. `linear_eccentricities` exploits
the tree structure of a MOP's inner faces: it keeps three numbers for
each side of each edge, the farthest distance from either end and the
farthest distance from the nearer end, builds each side's from the two
beyond it in O(1), and reads every vertex eccentricity off one incident
edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, MopGraph, breadth_first, edge
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
    """All vertex eccentricities by ball growth, with diam/rad/center.

    ecc[v] counts the rounds in which v's ball misses some vertex.
    """
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

    The distance balls grow up to the radius and no further. The
    centers are the first vertices whose balls hold the whole graph: a
    round is tested with one `in` and scanned only when it fills a ball.
    On a disconnected graph every vertex ties.
    """
    full = (1 << g.n + 1) - 2  # bits 1..n: the whole graph
    center = []
    for ball in _balls(g):
        if full in ball:
            center = [v for v in g.vertices() if ball[v] == full]
            break
    return min(center or g.vertices(), key=lambda v: (g.degree(v), v))


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
    """Every vertex eccentricity of a MOP in O(n), with no BFS.

    Edge {s, t} with s < t splits the other vertices into two sides, one
    per face on it; the exterior side of an outer edge is empty. The
    side across face (s, t, w) has the state (E(s), E(t), m): the
    farthest distance from s and from t to a vertex of the side, and
    m = max over its vertices x of min(d(s, x), d(t, x)). An empty side
    is (-1, -1, -1). The side is w plus C1, the far side of {s, w}, and
    C2, the far side of {t, w}. Removing the adjacent pair {s, w} cuts
    C1 off from the rest, so a shortest path from t into C1 steps to s
    or w first, and one from s needs no vertex outside C1 and {s, w}.
    By symmetry in {t, w} and C2:

        E(s) = max(1, E1(s), 1 + m2)
        E(t) = max(1, E2(t), 1 + m1)
        m    = max(1, E1(s), E2(t))

    The states are keyed (s, t, w), with w = 0 for an exterior side.
    Each reads two others in O(1); an explicit stack computes the far
    sides first, so deep MOPs hit no recursion limit. The two sides of
    an edge at v hold every vertex but its ends, so v's eccentricity is
    its larger E over them. The faces on each edge are read off the
    index the MopGraph constructor built.
    """
    apexes = g._apexes
    state = {(*e, 0): (-1, -1, -1) for e, ws in apexes.items() if len(ws) == 1}

    def far_side(a: int, b: int, near: int) -> tuple[int, int, int]:
        """The side of edge {a, b} whose face does not have apex near."""
        lo, hi = edge(a, b)
        return (lo, hi, next((w for w in apexes[(lo, hi)] if w != near), 0))

    stack = [(*e, w) for e, ws in apexes.items() for w in ws]
    while stack:
        key = stack[-1]
        if key in state:
            stack.pop()
            continue
        s, t, w = key
        k1, k2 = far_side(s, w, t), far_side(t, w, s)
        todo = [k for k in (k1, k2) if k not in state]
        if todo:
            stack += todo
            continue
        stack.pop()
        c1, c2 = state[k1], state[k2]
        # A state holds E of its edge's lower end first.
        e1, e2 = c1[s != k1[0]], c2[t != k2[0]]
        state[key] = (max(1, e1, 1 + c2[2]), max(1, e2, 1 + c1[2]), max(1, e1, e2))

    ecc = {}
    for v in g.vertices():
        lo, hi = edge(v, g.neighbors(v)[0])
        ecc[v] = max(state[(lo, hi, w)][v != lo] for w in apexes[(lo, hi)])
    return ecc
