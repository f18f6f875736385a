"""Cut spines: a tree of small vertex cuts guiding path construction.

A cut spine hangs off a central root vertex and records, layer by
layer, where the graph can be pinched apart: below the root, every
node is green, a chord inside a BFS layer (an adjacent 2-vertex cut)
whose two ends both reach the next layer. Each green node hangs off a
node one layer up that is adjacent to both its ends. The spine drives
the staged rainbow coloring: every green node gets a short realization
path from the root (a BFS tree path) and, when one has at most
2 * radius - 2 edges, an edge-disjoint long one (threaded through the
other endpoint of each green ancestor). The routing data those paths
share is built once with the spine and held in its own fields: each
node's two ends, the short paths themselves and the fixed-color tagged
edges. Each long path is one breadth-first search over (vertex, tagged
edge crossed) states.

Also here: maximum-cardinality search (chordality certificates) and
maximal closed-neighborhood fans, both used by structural checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import Graph, MopGraph, edge
from .errors import NotChordal
from .metrics import central_vertex, layers


def mcs(g: Graph) -> tuple[int, ...]:
    """Maximum cardinality search visit order.

    Repeatedly visits the vertex with the most visited neighbors,
    breaking ties by smallest label. The reverse of this order is a
    perfect elimination ordering exactly when the graph is chordal.
    """
    weight = {v: 0 for v in g.vertices()}
    visited: list[int] = []
    remaining = set(g.vertices())
    while remaining:
        v = min(remaining, key=lambda u: (-weight[u], u))
        visited.append(v)
        remaining.discard(v)
        for u in g.neighbors(v):
            if u in remaining:
                weight[u] += 1
    return tuple(visited)


def chordal_peo(g: Graph) -> tuple[int, ...]:
    """A perfect elimination ordering, or NotChordal.

    Runs mcs, reverses it, and verifies the elimination property: each
    vertex's neighbors that come later in the ordering must form a
    clique.
    """
    order = tuple(reversed(mcs(g)))
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        for i, a in enumerate(later):
            for b in later[i + 1 :]:
                if not g.has_edge(a, b):
                    raise NotChordal(
                        f"vertex {v}: later neighbors {a} and {b} are not adjacent"
                    )
    return order


def maximal_fans(g: Graph) -> tuple[tuple[int, frozenset[int]], ...]:
    """Centers whose closed neighborhoods are set-maximal.

    A fan is a vertex together with its closed neighborhood; fans
    strictly contained in another are dropped, and among equal closed
    neighborhoods the smallest center is kept. Returned sorted by
    center label. A closed neighborhood that holds v's holds v, so
    only v's neighbors are compared with it.
    """
    closed = {v: frozenset(g.neighbors(v)) | {v} for v in g.vertices()}
    return tuple(
        (v, closed[v])
        for v in g.vertices()
        if not any(closed[v] < closed[u] or (closed[v] == closed[u] and u < v) for u in g.neighbors(v))
    )


@dataclass(frozen=True)
class SpineNode:
    """One spine entry: the root vertex, or a green chord (a 2-cut)."""

    kind: str  # "root" | "green"
    realization: tuple[int, ...]
    level: int


@dataclass(frozen=True)
class CutSpine:
    """Cut spine of a MOP: nodes plus their tree structure, and the
    routing data every realization path of the spine shares.

    nodes is the root, then the green nodes in (level, realization)
    order; children and leaves keep that order. layers[k] lists the
    vertices at BFS distance k from the root vertex. degenerate_radius
    marks radius <= 1 graphs, whose spine is just the root.

    The routing data is built once, with the spine. ends maps each
    green node to its (primary, secondary) pair (see
    `primary_secondary`), in node order. shorts maps each green node to
    its short path, the rail-tree path from the root to its primary.
    tagged holds the green pair edges and the layer-1 edges, which
    share one fixed color: it is exactly the set of edges the staged
    coloring paints 6. No long path crosses two of them.
    """

    root: SpineNode
    nodes: tuple[SpineNode, ...]
    parent: dict = field(compare=False)
    layers: tuple[tuple[int, ...], ...]
    radius: int
    ends: dict[SpineNode, tuple[int, int]] = field(compare=False)
    shorts: dict[SpineNode, tuple[int, ...]] = field(compare=False)
    tagged: frozenset[tuple[int, int]] = field(compare=False)

    @property
    def degenerate_radius(self) -> bool:
        return self.radius <= 1

    @property
    def root_vertex(self) -> int:
        return self.root.realization[0]

    @cached_property
    def _children(self) -> dict[SpineNode, tuple[SpineNode, ...]]:
        """Per node with children, its children, in one pass over parent."""
        kids: dict[SpineNode, list[SpineNode]] = {}
        for c, p in self.parent.items():
            kids.setdefault(p, []).append(c)
        return {p: tuple(cs) for p, cs in kids.items()}

    def children(self, node: SpineNode) -> tuple[SpineNode, ...]:
        return self._children.get(node, ())

    def leaves(self) -> tuple[SpineNode, ...]:
        withkids = set(self.parent.values())
        return tuple(nd for nd in self.nodes[1:] if nd not in withkids)

    def ancestors(self, node: SpineNode) -> tuple[SpineNode, ...]:
        """Chain from the root down to node, inclusive."""
        chain = [node]
        while chain[-1].kind != "root":
            chain.append(self.parent[chain[-1]])
        return tuple(reversed(chain))


def build_ccs(g: MopGraph) -> CutSpine:
    """Construct the central cut spine of a MOP.

    g is a MOP, which its constructor checked, so nothing here checks
    it again. The root is a minimum-degree center vertex (smallest
    label on ties), as `central_vertex` picks it in one linear pass
    over the MopGraph's dual tree; the radius is the root's
    eccentricity, its last BFS layer.
    The green nodes at level i, 1 <= i < radius, are
    the chords inside layer i whose two ends both have a neighbor in
    layer i + 1, in (level, realization) order. A node's parent is the
    first node one level up that is adjacent to both of its vertices.

    Lemma. Let c in layer i, 1 <= i < radius, have a neighbor x in
    layer i + 1. Walk c's fan path from x towards a parent of c.
    Distances change by at most 1 per step, so the first vertex w not
    in layer i + 1 lies in layer i. It follows a vertex of layer i + 1
    and comes before at least one more fan neighbor, so (c, w) bounds
    two inner faces: it is a chord, and both of its ends have
    neighbors in layer i + 1. Hence:

    (a) every vertex of layer radius - 1 with a neighbor in the last
        layer lies on a green node of level radius - 1, so the common
        parent of a run of the last layer needs no node of its own;
    (b) when a run of the last layer has two common parents joined by
        a chord, that chord is already a green node;
    (c) in a layer of two vertices below the radius, a vertex with a
        neighbor one layer out lies on a chord inside the layer, which
        can only be the edge between the two: the outer edge of such a
        layer never needs to be a node;
    (d) the ends of a green node at level i >= 2 share a parent p (in
        a MOP two adjacent vertices of one BFS layer always do, from
        any root, the fact `coloring._layered` relies on); by the lemma
        p lies on a green node one level up, which is adjacent to both
        ends. So every node has a parent of the kind picked above.
    """
    v_r = central_vertex(g)
    lay = layers(g, v_r)
    rad = len(lay) - 1
    root = SpineNode("root", (v_r,), 0)
    nodes, above = [root], [root]
    parent: dict[SpineNode, SpineNode] = {}
    for i in range(1, rad):
        below = set(lay[i + 1])
        outward = {v for v in lay[i] if not below.isdisjoint(g.neighbors(v))}
        level = [
            SpineNode("green", (a, b), i)
            for a in lay[i]
            if a in outward
            for b in g.neighbors(a)
            if b > a and b in outward and g.edge_kind[(a, b)] == "chord"
        ]
        # Edges span at most one layer, so only nodes one level up can
        # touch a node; the parent is the first of them that holds a
        # neighbor of each end.
        held: dict[int, list[int]] = {}  # vertex -> indices of the nodes holding it
        for j, p in enumerate(above):
            for u in p.realization:
                held.setdefault(u, []).append(j)
        for node in level:
            a, b = ({j for u in g.neighbors(v) for j in held.get(u, ())} for v in node.realization)
            parent[node] = above[min(a & b)]
        nodes += level
        above = level
    nodes = tuple(nodes)
    return CutSpine(root, nodes, parent, lay, rad, *_routes(g, nodes, lay))


def primary_secondary(g: Graph, node: SpineNode) -> tuple[int, int]:
    """Split a green node's pair into (primary, secondary): the primary
    is the higher-degree end, the smaller label on ties."""
    a, b = node.realization
    p = min((a, b), key=lambda v: (-g.degree(v), v))
    return (p, b if p == a else a)


def _route(
    g: Graph,
    src: int,
    dst: int,
    banned: set[tuple[int, int]],
    tagged: frozenset[tuple[int, int]],
    longest: int,
) -> tuple[int, ...] | None:
    """The lexicographically first shortest simple path src..dst, when
    it has at most `longest` edges; else None.

    Edges in `banned` are never used, and no path crosses two `tagged`
    edges (they hold one fixed color, so a second would put that color
    on the path twice). A breadth-first search over (vertex, crossed)
    states expands neighbors in ascending label order, so it first
    reaches each state along its lexicographically first shortest walk.
    It stops at the first dst state, or after `longest` levels. That
    walk is a simple path, since a walk that repeats a vertex can be
    cut short.
    """
    if src == dst:
        return (src,)
    start = (src, False)
    parent = {start: None}
    level = [start]
    for _ in range(longest):
        nxt = []
        for state in level:
            v, crossed = state
            for u in g.neighbors(v):
                e = (u, v) if u < v else (v, u)
                if e in banned:
                    continue
                c = crossed
                if e in tagged:
                    if c:
                        continue
                    c = True
                step = (u, c)
                if step in parent:
                    continue
                parent[step] = state
                if u == dst:
                    path = [u]
                    while state is not None:
                        path.append(state[0])
                        state = parent[state]
                    return tuple(reversed(path))
                nxt.append(step)
        level = nxt
    return None


def _routes(
    g: MopGraph,
    nodes: tuple[SpineNode, ...],
    lay: tuple[tuple[int, ...], ...],
) -> tuple[dict, dict, frozenset[tuple[int, int]]]:
    """The ends, short paths and tagged edges of a spine with these
    nodes and layers (see `CutSpine`).

    Short paths follow the rail tree, a BFS tree in which each vertex
    picks its parent from the previous layer preferring primaries, then
    vertices on no spine node, then secondaries, breaking ties by
    smallest label; this keeps short paths on the primary rail whenever
    the graph allows it. Green pair edges and layer-1 edges all share
    one color, so they are tagged: a route crossing two of them would
    carry a repeated color, so the path router prunes such routes.
    """
    ends = {nd: primary_secondary(g, nd) for nd in nodes[1:]}
    primaries = {p for p, _ in ends.values()}
    secondaries = {s for _, s in ends.values()}

    def rank(u: int) -> tuple[int, int]:
        if u in primaries:
            return (0, u)
        if u in secondaries:
            return (2, u)
        return (1, u)

    parent: dict[int, int | None] = {lay[0][0]: None}
    for k in range(1, len(lay)):
        above = set(lay[k - 1])
        for v in lay[k]:
            cands = [u for u in g.neighbors(v) if u in above]
            parent[v] = min(cands, key=rank)
    shorts: dict[SpineNode, tuple[int, ...]] = {}
    for nd, (primary, _) in ends.items():
        chain = [primary]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        shorts[nd] = tuple(reversed(chain))

    tagged = {edge(*nd.realization) for nd in nodes[1:]}
    # Layer 1 is the root's neighborhood, which induces its fan path.
    fan = g.fan_neighbors(lay[0][0])
    tagged |= {edge(u, v) for u, v in zip(fan, fan[1:])}
    return ends, shorts, frozenset(tagged)


def realize_paths(
    g: MopGraph,
    spine: CutSpine,
    node: SpineNode,
) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """The (short, long) realization paths of a spine node.

    For the root both are the root vertex alone. For a green node both
    start at the root vertex; the short path ends at the node's primary
    vertex, the long one at its secondary, and they share no edge, the
    pair edge included. The short path is the node's rail-tree path, so
    it has fewer than radius edges. The long path is the
    lexicographically first shortest route from the root that stays off
    the short path and the node's own pair edge and crosses at most one
    tagged edge. It is found by one breadth-first search (see `_route`)
    that gives up past 2 * radius - 2 edges; then the long path is None
    and the staged coloring gives way to the layered one. The staged
    coloring's first fit alone decides whether a route's edges find
    colors in its reserve band.
    """
    v_r = spine.root_vertex
    if node.kind == "root":
        return ((v_r,), (v_r,))
    primary, secondary = spine.ends[node]
    short = spine.shorts[node]
    own = {edge(short[i], short[i + 1]) for i in range(len(short) - 1)}
    own.add(edge(primary, secondary))
    return short, _route(g, v_r, secondary, own, spine.tagged, 2 * spine.radius - 2)
