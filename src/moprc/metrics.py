"""Distance metrics on graphs, plus a linear-time eccentricity scheme
specific to maximal outerplanar graphs.

The generic routines (bfs, eccentricities, layers) work on any
connected `Graph`. `linear_eccentricities` exploits the tree structure
of a MOP's inner faces: it propagates signed depth values across each
edge from each side and reads every vertex eccentricity off a single
incident edge, doing O(1) work per (edge, side) state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, MopGraph, breadth_first, edge, triangles
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
    dist, parent = breadth_first(g.neighbors, (source,))
    if len(dist) != g.n:
        raise DomainError("graph is not connected")
    return DistanceTable(source, dist, parent)


@dataclass(frozen=True)
class EccentricitySummary:
    """Eccentricity of every vertex plus the derived global quantities."""

    ecc: dict[int, int]
    diameter: int
    radius: int
    center: tuple[int, ...]


def ecc_diam_rad_center(g: Graph) -> EccentricitySummary:
    """All vertex eccentricities by repeated BFS, with diam/rad/center."""
    ecc = {}
    for v in g.vertices():
        table = bfs(g, v)
        ecc[v] = max(table.dist.values())
    diameter = max(ecc.values())
    radius = min(ecc.values())
    center = tuple(v for v in g.vertices() if ecc[v] == radius)
    return EccentricitySummary(ecc, diameter, radius, center)


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
    dist, _ = breadth_first(g.neighbors, sources)
    if len(dist) != g.n:
        raise DomainError("graph is not connected")
    depth = max(dist.values())
    out: list[tuple[int, ...]] = []
    for k in range(depth + 1):
        out.append(tuple(sorted(v for v in g.vertices() if dist.get(v) == k)))
    return tuple(out)


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


@dataclass(frozen=True)
class EdgeEccentricity:
    """Signed one-sided eccentricity values for an edge p = (lo, hi).

    `side` identifies which side of p the values describe: the inner
    face (triangle) on that side, or None for the exterior side. The
    magnitude of value_at_lo is the farthest distance from lo to any
    vertex strictly on that side of p (hi excluded); -1 encodes an
    empty side. The sign tracks whether the farthest such vertex is
    reached through the side's apex at full depth (negative) or is
    already dominated closer to the edge (positive); it is what lets a
    parent state extend the value by one hop without re-scanning.
    """

    p: tuple[int, int]
    side: frozenset[int] | None
    value_at_lo: int
    value_at_hi: int


def _side_map(g: MopGraph) -> dict[tuple[int, int], tuple[frozenset[int], ...]]:
    """Each edge mapped to the inner faces containing it (1 or 2)."""
    sides: dict[tuple[int, int], list[frozenset[int]]] = {e: [] for e in g.edges}
    for t in triangles(g):
        a, b, c = sorted(t)
        for e in ((a, b), (a, c), (b, c)):
            sides[e].append(t)
    out = {}
    for e, ts in sides.items():
        expect = 2 if g.edge_kind[e] == "chord" else 1
        if len(ts) != expect:
            raise NotMop(f"edge {e} lies in {len(ts)} inner faces, expected {expect}")
        out[e] = tuple(ts)
    return out


def edge_side_eccentricities(g: MopGraph) -> dict[tuple[tuple[int, int], frozenset[int] | None], EdgeEccentricity]:
    """Signed eccentricity values for every (edge, side) state.

    States form the tree of inner faces, so each is computed once from
    its two child states via an explicit stack (no recursion limits).
    """
    sides = _side_map(g)

    def child(e: tuple[int, int], away_from: frozenset[int]):
        ts = sides[e]
        if len(ts) == 1:
            return (e, None)
        return (e, ts[0] if ts[1] == away_from else ts[1])

    memo: dict[tuple[tuple[int, int], frozenset[int] | None], tuple[int, int]] = {}

    def signed_at(key, v: int) -> int:
        lo, hi = key[0]
        vals = memo[key]
        return vals[0] if v == lo else vals[1]

    def combine(key) -> tuple[int, int] | None:
        """Compute the state if both children are ready, else None."""
        p, side = key
        if side is None:
            return (-1, -1)
        s, t = p
        (w,) = side - {s, t}
        a = edge(s, w)
        b = edge(t, w)
        ka = child(a, side)
        kb = child(b, side)
        if ka not in memo or kb not in memo:
            return None

        def one_endpoint(x, key_near, key_far) -> int:
            # Eccentricity of x into this side: either the far
            # endpoint's subtree (shifted one hop through w) dominates,
            # or x's own near subtree does.
            near = signed_at(key_near, x)
            far_end = t if x == s else s
            far = signed_at(key_far, far_end)
            shifted = -(1 + far) if far > 0 else abs(far)
            if abs(near) >= abs(shifted):
                return abs(near)
            return shifted

        val_s = one_endpoint(s, ka, kb)
        val_t = one_endpoint(t, kb, ka)
        lo, hi = p
        return (val_s, val_t) if (s, t) == (lo, hi) else (val_t, val_s)

    # Iterative DFS over dependency edges.
    for e in sorted(g.edges):
        for side in sides[e] + (None,) * (2 - len(sides[e])):
            root = (e, side)
            if root in memo:
                continue
            stack = [root]
            while stack:
                key = stack[-1]
                if key in memo:
                    stack.pop()
                    continue
                result = combine(key)
                if result is not None:
                    memo[key] = result
                    stack.pop()
                    continue
                p, side_k = key
                s, t = p
                (w,) = side_k - {s, t}
                for dep in (child(edge(s, w), side_k), child(edge(t, w), side_k)):
                    if dep not in memo:
                        stack.append(dep)

    out = {}
    for key, (vlo, vhi) in memo.items():
        out[key] = EdgeEccentricity(key[0], key[1], vlo, vhi)
    return out


def linear_eccentricities(g: MopGraph) -> dict[int, int]:
    """Every vertex eccentricity via the face-tree propagation.

    Equivalent to per-vertex BFS but does O(1) work per (edge, side)
    state, i.e. O(n) states overall. For each vertex the two side
    values of any one incident edge cover the whole graph.
    """
    if g.n == 3:
        return {1: 1, 2: 1, 3: 1}
    # The table holds both side states of every edge, so it alone gives
    # each edge its two records.
    states: dict[tuple[int, int], list[EdgeEccentricity]] = {}
    for (e, _), rec in edge_side_eccentricities(g).items():
        states.setdefault(e, []).append(rec)
    ecc = {}
    for v in g.vertices():
        e = edge(v, g.neighbors(v)[0])
        ecc[v] = max(abs(r.value_at_lo if v == e[0] else r.value_at_hi) for r in states[e])
    return ecc
