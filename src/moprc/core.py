"""Core graph structures for maximal outerplanar graphs (MOPs).

Vertices are labelled 1..n throughout. Edges are canonical tuples
(u, v) with u < v. A MOP on n >= 3 vertices is an inner triangulation
of an n-gon; it is stored either as a plain edge list (`Graph`), as a
validated `MopGraph` that additionally knows its unique Hamiltonian
cycle, or as a `CanonicalMop`: the construction order that grows the
graph one exterior triangle at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import DomainError, InvalidAttachment, NotMop


def edge(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an edge."""
    if u == v:
        raise DomainError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def breadth_first(
    neighbors: Callable[[int], Iterable[int]], sources: tuple[int, ...]
) -> tuple[dict[int, int], dict[int, int | None]]:
    """Breadth-first distances and parents over what the sources reach.

    Sources sit at distance 0 with parent None and are expanded in the
    given order; neighbors(v) lists the vertices one step from v, in
    the order they are expanded.
    """
    dist = dict.fromkeys(sources, 0)
    parent: dict[int, int | None] = dict.fromkeys(sources)
    queue = list(sources)
    for v in queue:
        d = dist[v] + 1
        for u in neighbors(v):
            if u not in dist:
                dist[u] = d
                parent[u] = v
                queue.append(u)
    return dist, parent


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
        a, b = self._adj[u], self._adj[v]
        if len(a) > len(b):
            a, b = b, a
        bs = set(b)
        return tuple(w for w in a if w in bs)

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
    """Rotate to start at vertex 1, orient toward its smaller neighbor."""
    i = cycle.index(1)
    cycle = cycle[i:] + cycle[:i]
    if len(cycle) > 2 and cycle[1] > cycle[-1]:
        cycle = (1,) + tuple(reversed(cycle[1:]))
    return cycle


class MopGraph(Graph):
    """A validated MOP, carrying its unique Hamiltonian cycle.

    Beyond `Graph`, every vertex gets a fan-ordered neighbor list:
    neighbors sorted by their cyclic position after the vertex on the
    Hamiltonian cycle. In a MOP that ordering is exactly the induced
    path of the neighborhood, which several algorithms walk directly.
    """

    __slots__ = ("ham_cycle", "_pos", "_fan", "edge_kind")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], ham_cycle: tuple[int, ...]):
        super().__init__(n, edges)
        if self.m != 2 * n - 3:
            raise NotMop(f"a MOP on {n} vertices has {2 * n - 3} edges, got {self.m}")
        pos = {v: i for i, v in enumerate(ham_cycle)}
        if len(pos) != n or sorted(pos) != list(range(1, n + 1)):
            raise NotMop("Hamiltonian cycle must visit each of 1..n once")
        for i, v in enumerate(ham_cycle):
            if not self.has_edge(v, ham_cycle[(i + 1) % n]):
                raise NotMop(f"claimed cycle edge ({v}, {ham_cycle[(i + 1) % n]}) missing")
        self.ham_cycle = tuple(ham_cycle)
        self._pos = pos
        fan = {}
        for v in self.vertices():
            pv = pos[v]
            fan[v] = tuple(
                sorted(self._adj[v], key=lambda u: (pos[u] - pv) % n)
            )
        self._fan = fan
        kind = {}
        outer = set()
        for i, v in enumerate(ham_cycle):
            outer.add(edge(v, ham_cycle[(i + 1) % n]))
        for e in self.edges:
            kind[e] = "outer" if e in outer else "chord"
        self.edge_kind = kind

    def cycle_position(self, v: int) -> int:
        return self._pos[v]

    def fan_neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v ordered by cyclic position after v.

        This order traverses the path induced by N(v) from one end to
        the other; consecutive entries are adjacent.
        """
        return self._fan[v]

    def __repr__(self) -> str:
        return f"MopGraph(n={self.n}, m={self.m})"


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
        if len(cycle) > g.n:
            raise NotMop("exterior edges do not form a single cycle")
    if len(cycle) != g.n:
        raise NotMop("exterior edges do not form a spanning cycle")
    return _normalize_cycle(tuple(cycle))


def mop_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> MopGraph:
    """Build a MopGraph from an edge list, deriving the Hamiltonian cycle.

    Raises NotMop when the edge list is not a maximal outerplanar graph.
    """
    g = Graph(n, edges)
    if n < 3:
        raise NotMop(f"a MOP needs n >= 3, got n={n}")
    if g.m != 2 * n - 3:
        raise NotMop(f"a MOP on {n} vertices has {2 * n - 3} edges, got {g.m}")
    report = validate_mop(g)
    if not report.ok:
        raise NotMop(report.violations[0])
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
    inside = set(vs)
    deg = {v: 0 for v in vs}
    m = 0
    for v in vs:
        for u in g.neighbors(v):
            if u in inside:
                deg[v] += 1
                if u > v:
                    m += 1
    if m != k - 1 or any(d > 2 for d in deg.values()):
        return False
    start = next(v for v in vs if deg[v] <= 1)
    reached, _ = breadth_first(lambda v: [u for u in g.neighbors(v) if u in inside], (start,))
    return len(reached) == k


def validate_mop(g: Graph) -> ValidationReport:
    """Check the MOP characterization and report every violation found.

    A connected graph on n >= 3 vertices is a MOP iff every open
    neighborhood induces a path and the graph is 2-degenerate.
    """
    violations: list[str] = []
    if g.n < 3:
        violations.append(f"n={g.n} is below the minimum of 3")
        return ValidationReport(False, tuple(violations))
    if len(breadth_first(g.neighbors, (1,))[0]) != g.n:
        violations.append("graph is not connected")
        return ValidationReport(False, tuple(violations))
    for v in g.vertices():
        if not _induces_path(g, g.neighbors(v)):
            violations.append(f"neighborhood of vertex {v} does not induce a path")
    # 2-degeneracy: repeatedly peel a minimum-degree vertex.
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        if len(adj[v]) > 2:
            violations.append(
                f"not 2-degenerate: peeling stuck at vertex {v} with degree {len(adj[v])}"
            )
            break
        for u in adj[v]:
            adj[u].discard(v)
        del adj[v]
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
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    removed: list[tuple[int, int, int]] = []  # (vertex, nbr_a, nbr_b)
    while len(adj) > 3:
        v = max(u for u in adj if len(adj[u]) == 2)
        a, b = sorted(adj[v])
        if b not in adj[a]:
            raise NotMop(f"degree-2 vertex {v} has non-adjacent neighbors")
        for u in (a, b):
            adj[u].discard(v)
        del adj[v]
        removed.append((v, a, b))
    base = sorted(adj)
    if not all(y in adj[x] for x in base for y in base if y != x):
        raise NotMop("peeling did not terminate in a triangle")
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
        clean = {}
        for (u, v), c in self.colors.items():
            if not (isinstance(c, int) and c >= 1):
                raise DomainError(f"edge ({u}, {v}): colors are 1-based ints, got {c!r}")
            clean[edge(u, v)] = c
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
        missing = g.edges - set(self.colors)
        extra = set(self.colors) - g.edges
        if missing:
            raise DomainError(f"uncolored edges, e.g. {min(missing)}")
        if extra:
            raise DomainError(f"colored non-edges, e.g. {min(extra)}")
