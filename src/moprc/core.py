"""Core graph structures for maximal outerplanar graphs (MOPs).

Vertices are labelled 1..n throughout. Edges are canonical tuples
(u, v) with u < v. A MOP on n >= 3 vertices is an inner triangulation
of an n-gon; it is stored either as a plain edge list (`Graph`), as a
validated `MopGraph` that additionally knows its unique Hamiltonian
cycle, or as a `CanonicalMop`: the construction order that grows the
graph one exterior triangle at a time.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import DomainError, InvalidAttachment, NotMop


def edge(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an edge."""
    if u == v:
        raise DomainError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def breadth_first(
    neighbors: Callable[[int], Iterable[int]], n: int, sources: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Breadth-first levels and visit order from a source set on 1..n.

    level[v] is v's distance from the nearest source, sys.maxsize when
    no source reaches v (and at index 0). The order lists the reached
    vertices as visited: the sources first, each once, in the given
    order; then neighbors(v) of each visited v, in the order it lists
    them. Levels never fall along the order.
    """
    level = [sys.maxsize] * (n + 1)
    order = list(dict.fromkeys(sources))
    for s in order:
        level[s] = 0
    for v in order:
        d = level[v] + 1
        for u in neighbors(v):
            if level[u] > d:
                level[u] = d
                order.append(u)
    return level, order


class Graph:
    """Immutable undirected simple graph on vertices 1..n."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise DomainError(f"need at least one vertex, got n={n}")
        canon = set()
        for u, v in edges:
            e = edge(u, v)
            if not (1 <= e[0] and e[1] <= n):
                raise DomainError(f"edge {e} outside vertex range 1..{n}")
            canon.add(e)
        self.n = n
        self.edges = frozenset(canon)
        adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending label order."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def common_neighbors(self, u: int, v: int) -> tuple[int, ...]:
        """Common neighbors in ascending order, in time the smaller degree."""
        if len(self._adj[u]) > len(self._adj[v]):
            u, v = v, u
        edges = self.edges
        return tuple(w for w in self._adj[u] if w != v and ((w, v) if w < v else (v, w)) in edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=True)
class CanonicalMop:
    """Construction-order form of a MOP.

    Vertex i (for 3 <= i <= n) is attached to the exterior edge
    (low[i], high[i]) of the graph built from vertices 1..i-1, with
    1 <= low[i] < high[i] < i. The row for vertex 3 is always (1, 2).
    """

    n: int
    low: Mapping[int, int] = field(default_factory=dict)
    high: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 3:
            raise DomainError(f"a MOP needs n >= 3, got n={self.n}")
        low = dict(self.low)
        high = dict(self.high)
        # The first row is forced, so accept its omission.
        low.setdefault(3, 1)
        high.setdefault(3, 2)
        expect = set(range(3, self.n + 1))
        if set(low) != expect or set(high) != expect:
            raise DomainError(
                f"attachment maps must cover vertices 3..{self.n} exactly"
            )
        for i in expect:
            lo, hi = low[i], high[i]
            if not (1 <= lo < hi < i):
                raise DomainError(
                    f"row for vertex {i}: need 1 <= low < high < i, "
                    f"got ({lo}, {hi})"
                )
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    def rows(self) -> tuple[tuple[int, int, int], ...]:
        """(i, low, high) triples in construction order."""
        return tuple((i, self.low[i], self.high[i]) for i in range(3, self.n + 1))


def from_canonical(c: CanonicalMop) -> "MopGraph":
    """Materialize a construction order into a validated MopGraph.

    Raises InvalidAttachment if a row names an edge that is not on the
    exterior face of the partial graph at that step.
    """
    if c.low[3] != 1 or c.high[3] != 2:
        raise InvalidAttachment(3, c.low[3], c.high[3])
    edges = {(1, 2), (1, 3), (2, 3)}
    # The exterior cycle is kept as a successor map; inserting a new
    # vertex on an exterior edge is then O(1).
    nxt = {1: 2, 2: 3, 3: 1}
    for i in range(4, c.n + 1):
        lo, hi = c.low[i], c.high[i]
        if nxt.get(lo) == hi:
            a, b = lo, hi
        elif nxt.get(hi) == lo:
            a, b = hi, lo
        else:
            raise InvalidAttachment(i, lo, hi)
        nxt[a] = i
        nxt[i] = b
        edges.add((lo, i))
        edges.add((hi, i))
    cycle = [1]
    v = nxt[1]
    while v != 1:
        cycle.append(v)
        v = nxt[v]
    return MopGraph(c.n, edges, _normalize_cycle(tuple(cycle)))


def _normalize_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Orient a cycle that starts at vertex 1 toward its smaller neighbor."""
    if cycle[1] > cycle[-1]:
        cycle = (1,) + tuple(reversed(cycle[1:]))
    return cycle


class MopGraph(Graph):
    """A MOP, carrying its unique Hamiltonian cycle.

    The constructor is the one MOP check: it raises NotMop unless the
    edges are the given Hamiltonian cycle plus n - 3 chords that
    triangulate it, so every MopGraph is a MOP. Beyond `Graph`, every
    vertex gets a fan-ordered neighbor list: neighbors sorted by their
    cyclic position after the vertex on the Hamiltonian cycle. In a MOP
    that ordering is exactly the induced path of the neighborhood,
    which several algorithms walk directly. After the edge count and
    the cycle's edges, one walk over the inner faces both checks the
    triangulation and records it, as the dual tree in pre-order over
    half-edge slots (`_dual_tree`), which `metrics` reads for every
    eccentricity of a MopGraph.
    """

    __slots__ = ("ham_cycle", "_fan", "edge_kind", "_dual")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], ham_cycle: tuple[int, ...]):
        super().__init__(n, edges)
        if n < 3:
            raise NotMop(f"a MOP needs n >= 3, got n={n}")
        if self.m != 2 * n - 3:
            raise NotMop(f"a MOP on {n} vertices has {2 * n - 3} edges, got {self.m}")
        pos = {v: i for i, v in enumerate(ham_cycle)}
        if len(ham_cycle) != n or sorted(pos) != list(range(1, n + 1)):
            raise NotMop("Hamiltonian cycle must visit each of 1..n once")
        outer = {edge(v, ham_cycle[i - 1]) for i, v in enumerate(ham_cycle)}
        if not outer <= self.edges:
            raise NotMop(f"claimed cycle edge {min(outer - self.edges)} missing")
        self.ham_cycle = tuple(ham_cycle)
        fan = {}
        for v in self.vertices():
            pv = pos[v]
            fan[v] = tuple(
                sorted(self._adj[v], key=lambda u: (pos[u] - pv) % n)
            )
        self._fan = fan
        self.edge_kind = {e: "outer" if e in outer else "chord" for e in self.edges}
        self._dual = _dual_tree(self)

    def fan_neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v ordered by cyclic position after v.

        This order traverses the path induced by N(v) from one end to
        the other; consecutive entries are adjacent.
        """
        return self._fan[v]

    def __repr__(self) -> str:
        return f"MopGraph(n={self.n}, m={self.m})"


def _dual_tree(g: MopGraph) -> tuple[list[int], list[int], list[int], list[int]]:
    """The inner faces of a MOP as its dual tree in pre-order.

    Half-edge slot off[v] + i stands for the arc (v, u), u the i-th fan
    neighbor of v: the side of edge {v, u} that holds the vertices
    after v and before u on the Hamiltonian cycle. At i = 0 that side
    is empty. At i >= 1 it is the face (v, c, u) with apex c, the fan
    neighbor before u, plus the sides of the arcs (v, c), the slot
    before, and (c, u), which precedes v in the fan of c. These two are
    the arc's children. The root is the arc (ham_cycle[0],
    ham_cycle[-1]), whose side is every vertex but its ends, so the
    tree's inner arcs are the n - 2 faces.

    The walk is also the MOP check. At the face (v, c, u) it finds v at
    index k of the fan of c and raises NotMop unless u is at k - 1.
    The constructor has already checked n >= 3, the edge count and the
    cycle's edges, so this is enough:
    - c lies strictly between v and u on the cycle, since it comes
      before u in the fan of v. As the cycle's edges are graph edges,
      each fan starts at its vertex's successor on the cycle and ends
      at its predecessor. So c is not the predecessor of v, v is not
      the first entry of c's fan, and k >= 1.
    - So each face that passes has three graph edges and splits the
      arc's side into the two strictly smaller sides of (v, c) and
      (c, u). The walk ends, and its faces tile the polygon.
    - A triangulation of the n-gon has n - 3 chords. With the n cycle
      edges they make 2n - 3 graph edges, which is all of them, so
      the graph is that triangulation.
    Conversely, in a MOP the walk's faces are its inner faces, and two
    vertices of a face are consecutive in the fan of the third, so
    every MOP passes.

    Returns off (with off[n + 1] the slot count) and three lists with
    one entry per face, in pre-order: the arc's slot, the slot of
    (c, u) and the slot of the reverse arc (u, v). The reverse arcs
    need no search: (c, v) follows (c, u) in the fan of c, and (u, c)
    follows (u, v) in the fan of u. Each vertex but the root's ends is
    the apex of one face, the one nearest the root that holds it, so
    finding v in the apexes' fans costs O(m) in all.
    """
    fan = g._fan
    off = [0] * (g.n + 2)
    for v in g.vertices():
        off[v + 1] = off[v] + len(fan[v])
    arcs: list[int] = []
    kids: list[int] = []
    backs: list[int] = []
    a, b = g.ham_cycle[0], g.ham_cycle[-1]
    stack = [(a, len(fan[a]) - 1, off[b])]  # (v, i, slot of the reverse arc)
    while stack:
        v, i, back = stack.pop()
        if i:
            c, u = fan[v][i - 1], fan[v][i]
            k = fan[c].index(v)
            if fan[c][k - 1] != u:
                raise NotMop(
                    f"fan neighbors {c} and {u} of vertex {v} close no inner face: "
                    f"{u} does not precede {v} in the fan of {c}"
                )
            j = off[c] + k - 1
            arcs.append(off[v] + i)
            kids.append(j)
            backs.append(back)
            stack.append((c, k - 1, back + 1))
            stack.append((v, i - 1, j + 1))
    return off, arcs, kids, backs


def hamiltonian_cycle(g: Graph) -> tuple[int, ...]:
    """Derive the unique Hamiltonian cycle of a MOP from its edge list.

    In a MOP on n >= 4 vertices an edge is exterior exactly when its
    endpoints have one common neighbor (a chord has two). The exterior
    edges must then form a single cycle through all vertices.
    """
    if g.n == 3:
        if g.m != 3:
            raise NotMop("n=3 requires a triangle")
        return (1, 2, 3)
    incident: dict[int, list[int]] = {v: [] for v in g.vertices()}
    for u, v in g.edges:
        c = len(g.common_neighbors(u, v))
        if c == 1:
            incident[u].append(v)
            incident[v].append(u)
        elif c != 2:
            raise NotMop(
                f"edge ({u}, {v}) has {c} common neighbors; a MOP allows 1 or 2"
            )
    for v, ns in incident.items():
        if len(ns) != 2:
            raise NotMop(f"vertex {v} lies on {len(ns)} exterior edges, expected 2")
    cycle = [1]
    prev, cur = None, 1
    while True:
        a, b = incident[cur]
        nxt = b if a == prev else a
        if nxt == 1:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
    if len(cycle) != g.n:
        raise NotMop("exterior edges do not form a spanning cycle")
    return _normalize_cycle(tuple(cycle))


def mop_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> MopGraph:
    """Build a MopGraph from an edge list, deriving the Hamiltonian cycle.

    Raises NotMop when the edge list is not a maximal outerplanar graph:
    `hamiltonian_cycle` rejects edge lists with no spanning exterior
    cycle, and the MopGraph constructor the rest.
    """
    g = Graph(n, edges)
    if n < 3:
        raise NotMop(f"a MOP needs n >= 3, got n={n}")
    if g.m != 2 * n - 3:
        raise NotMop(f"a MOP on {n} vertices has {2 * n - 3} edges, got {g.m}")
    return MopGraph(n, g.edges, hamiltonian_cycle(g))


def hamiltonian_degree_sequence(g: MopGraph) -> tuple[int, ...]:
    """Vertex degrees read along the Hamiltonian cycle."""
    return tuple(g.degree(v) for v in g.ham_cycle)


def triangles(g: Graph) -> tuple[frozenset[int], ...]:
    """All 3-cliques, sorted by vertex triple. In a MOP these are the
    n-2 inner faces, since a MOP has no separating triangle."""
    seen = set()
    for u, v in g.edges:
        for w in g.common_neighbors(u, v):
            seen.add(frozenset((u, v, w)))
    return tuple(sorted(seen, key=sorted))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_mop: ok plus human-readable violations."""

    ok: bool
    violations: tuple[str, ...]


def _induces_path(g: Graph, vs: tuple[int, ...]) -> bool:
    """Does the subgraph induced by vs form a simple path (P1 counts)?"""
    k = len(vs)
    if k == 0:
        return False
    if k == 1:
        return True
    # The induced adjacency, each vertex scanning the shorter of its
    # own neighbor list and vs.
    inside = set(vs)
    nbr = {
        v: [u for u in g.neighbors(v) if u in inside]
        if g.degree(v) <= k
        else [u for u in vs if u != v and edge(u, v) in g.edges]
        for v in vs
    }
    if sum(map(len, nbr.values())) != 2 * (k - 1) or any(len(ns) > 2 for ns in nbr.values()):
        return False
    # k - 1 edges at degree <= 2: a path exactly when the walk from an
    # end of degree <= 1 reaches all k vertices.
    walked, prev, v = 1, 0, next(v for v in vs if len(nbr[v]) <= 1)
    while step := [u for u in nbr[v] if u != prev]:
        walked, prev, v = walked + 1, v, step[0]
    return walked == k


def validate_mop(g: Graph) -> ValidationReport:
    """Check the MOP characterization and report every violation found.

    A connected graph on n >= 3 vertices is a MOP iff every open
    neighborhood induces a path and the graph is 2-degenerate.
    """
    violations: list[str] = []
    if g.n < 3:
        violations.append(f"n={g.n} is below the minimum of 3")
        return ValidationReport(False, tuple(violations))
    if len(breadth_first(g.neighbors, g.n, (1,))[1]) != g.n:
        violations.append("graph is not connected")
        return ValidationReport(False, tuple(violations))
    for v in g.vertices():
        if not _induces_path(g, g.neighbors(v)):
            violations.append(f"neighborhood of vertex {v} does not induce a path")
    # 2-degeneracy: peel vertices of degree <= 2 off a worklist. What
    # is left when it runs dry is the 3-core, whatever the peel order,
    # and the least (degree, label) vertex of it is reported.
    deg = {v: g.degree(v) for v in g.vertices()}
    work = [v for v in g.vertices() if deg[v] <= 2]
    for v in work:
        del deg[v]
        for u in g.neighbors(v):
            if u in deg:
                deg[u] -= 1
                if deg[u] == 2:
                    work.append(u)
    if deg:
        v = min(deg, key=lambda x: (deg[x], x))
        violations.append(f"not 2-degenerate: peeling stuck at vertex {v} with degree {deg[v]}")
    return ValidationReport(not violations, tuple(violations))


def to_canonical(g: MopGraph) -> tuple[CanonicalMop, dict[int, int]]:
    """Recover a construction order by peeling degree-2 vertices.

    Repeatedly removes the largest-labelled degree-2 vertex until a
    triangle remains; the triangle's vertices become labels 1, 2, 3 in
    ascending original order and removed vertices are re-added as
    4..n in reverse removal order. Returns the canonical form and the
    original-label -> canonical-label mapping. Graphs already in
    construction order (vertex i attached to smaller labels) map to
    themselves.

    The degree-2 labels wait in a max-heap, O(n log n) in all. Every
    graph left by the peel is a MOP, whose degrees are at least 2, so a
    vertex enters the heap once, when it first has degree 2, and stays
    degree 2 until it is removed.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    ears = [-v for v in adj if len(adj[v]) == 2]
    heapq.heapify(ears)
    removed: list[tuple[int, int, int]] = []  # (vertex, nbr_a, nbr_b)
    while len(adj) > 3:
        v = -heapq.heappop(ears)
        a, b = sorted(adj[v])
        for u in (a, b):
            adj[u].discard(v)
            if len(adj[u]) == 2:
                heapq.heappush(ears, -u)
        del adj[v]
        removed.append((v, a, b))
    base = sorted(adj)
    relabel = {orig: i + 1 for i, orig in enumerate(base)}
    low: dict[int, int] = {}
    high: dict[int, int] = {}
    next_label = 4
    for v, a, b in reversed(removed):
        relabel[v] = next_label
        la, lb = relabel[a], relabel[b]
        low[next_label], high[next_label] = min(la, lb), max(la, lb)
        next_label += 1
    return CanonicalMop(g.n, low, high), relabel


@dataclass(frozen=True)
class EdgeColoring:
    """An assignment of 1-based colors to edges."""

    colors: Mapping[tuple[int, int], int]

    def __post_init__(self):
        colors = self.colors
        # Plain positive ints on canonical tuple edges pass the loop
        # below unchanged, and such keys cannot name one edge twice.
        if all(type(c) is int and c >= 1 for c in colors.values()) and all(
            type(e) is tuple and len(e) == 2 and e[0] < e[1] for e in colors
        ):
            object.__setattr__(self, "colors", dict(colors))
            return
        clean = {}
        for (u, v), c in colors.items():
            if isinstance(c, bool) or not (isinstance(c, int) and c >= 1):
                raise DomainError(f"edge ({u}, {v}): colors are 1-based ints, got {c!r}")
            e = edge(u, v)
            if e in clean:
                raise DomainError(f"edge {e} is colored twice")
            clean[e] = c
        object.__setattr__(self, "colors", clean)

    @property
    def palette_size(self) -> int:
        """Largest color value used (0 for the empty coloring)."""
        return max(self.colors.values(), default=0)

    @property
    def used(self) -> frozenset[int]:
        return frozenset(self.colors.values())

    def color(self, u: int, v: int) -> int:
        return self.colors[edge(u, v)]

    def check_total(self, g: Graph) -> None:
        """Require exactly the edges of g to be colored."""
        colored = self.colors.keys()
        if colored == g.edges:
            return
        missing = g.edges.difference(colored)
        if missing:
            raise DomainError(f"uncolored edges, e.g. {min(missing)}")
        raise DomainError(f"colored non-edges, e.g. {min(colored - g.edges)}")
