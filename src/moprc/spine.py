"""Cut spines: a tree of small vertex cuts guiding path construction.

A cut spine hangs off a central root vertex and records, layer by
layer, where the graph can be pinched apart: green nodes are 2-vertex
cuts (adjacent pairs), red nodes are single cut-ish vertices, and the
root is the chosen center. The spine drives the staged rainbow
coloring: every leaf gets two edge-disjoint realization paths from the
root, one short (a BFS tree path) and one long (threaded through the
other endpoint of each green ancestor). The routing data those paths
share (the short paths themselves, the edges long paths avoid, the
fixed-color crossing tags, the root spokes short paths ride) is built
once with the spine, as its `routes`.

Also here: maximum-cardinality search (chordality certificates) and
maximal closed-neighborhood fans, both used by structural checks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .core import Graph, MopGraph, breadth_first, edge
from .errors import NotChordal, NotMop
from .metrics import ecc_diam_rad_center, layers


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
    center label.
    """
    closed = {v: frozenset(g.neighbors(v)) | {v} for v in g.vertices()}
    keep = []
    for v in g.vertices():
        dominated = False
        for u in g.vertices():
            if u == v:
                continue
            if closed[v] < closed[u] or (closed[v] == closed[u] and u < v):
                dominated = True
                break
        if not dominated:
            keep.append((v, closed[v]))
    return tuple(keep)


@dataclass(frozen=True)
class SpineNode:
    """One spine entry: the root, a red vertex, or a green 2-cut."""

    kind: str  # "root" | "red" | "green"
    realization: tuple[int, ...]
    level: int


@dataclass(frozen=True)
class SpineRoutes:
    """Routing data shared by every realization path of one spine.

    shorts maps each non-root node to its short path, the rail-tree
    path from the root to its primary vertex. tags maps each
    fixed-color edge to its crossing class; no path crosses two edges
    of one class. penalized is the tagged edges plus every rail-tree
    edge, which long paths prefer to avoid. gateways are the layer-1
    vertices whose root spoke some short path rides.
    """

    shorts: dict[SpineNode, tuple[int, ...]]
    penalized: frozenset[tuple[int, int]]
    tags: dict[tuple[int, int], int]
    gateways: frozenset[int]


@dataclass(frozen=True)
class CutSpine:
    """Cut spine of a MOP: nodes plus their tree structure.

    layers[k] lists the vertices at BFS distance k from the root
    vertex. degenerate_radius marks radius <= 1 graphs, whose spine is
    just the root. routes is built once, with the spine.
    """

    root: SpineNode
    nodes: tuple[SpineNode, ...]
    parent: dict = field(compare=False)
    layers: tuple[tuple[int, ...], ...]
    radius: int
    degenerate_radius: bool
    routes: SpineRoutes = field(compare=False)

    @property
    def root_vertex(self) -> int:
        return self.root.realization[0]

    def children(self, node: SpineNode) -> tuple[SpineNode, ...]:
        out = [c for c, p in self.parent.items() if p == node]
        return tuple(sorted(out, key=lambda c: (c.level, c.realization)))

    def leaves(self) -> tuple[SpineNode, ...]:
        withkids = set(self.parent.values())
        out = [nd for nd in self.nodes if nd not in withkids and nd.kind != "root"]
        return tuple(sorted(out, key=lambda c: (c.level, c.realization)))

    def ancestors(self, node: SpineNode) -> tuple[SpineNode, ...]:
        """Chain from the root down to node, inclusive."""
        chain = [node]
        while chain[-1].kind != "root":
            chain.append(self.parent[chain[-1]])
        return tuple(reversed(chain))


def _is_two_cut(g: Graph, a: int, b: int) -> bool:
    """Does removing vertices a and b disconnect the graph?"""
    keep = [v for v in g.vertices() if v != a and v != b]
    if len(keep) <= 1:
        return False
    seen, _ = breadth_first(
        lambda v: [u for u in g.neighbors(v) if u != a and u != b], (keep[0],)
    )
    return len(seen) != len(keep)


def _layer_paths(g: Graph, layer: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Connected components of an induced layer, each a path.

    Paths are oriented to start at their smaller-labelled endpoint;
    isolated vertices are length-1 paths. BFS layers of a MOP always
    induce disjoint paths.
    """
    inside = set(layer)
    nbr = {v: [u for u in g.neighbors(v) if u in inside] for v in layer}
    for v in layer:
        if len(nbr[v]) > 2:
            raise NotMop(f"layer vertex {v} has {len(nbr[v])} neighbors in its layer")
    out: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for v in sorted(layer):
        if v in seen:
            continue
        # Find the component's endpoints (degree <= 1 inside the layer).
        comp, _ = breadth_first(nbr.__getitem__, (v,))
        ends = sorted(x for x in comp if len(nbr[x]) <= 1)
        if not ends:
            raise NotMop("layer component is a cycle, not a path")
        # With at most two neighbors each and an end, the component is
        # a path, which a search from that end visits in order.
        path, _ = breadth_first(nbr.__getitem__, (ends[0],))
        seen.update(path)
        out.append(tuple(path))
    return out


def build_ccs(g: MopGraph) -> CutSpine:
    """Construct the central cut spine of a MOP.

    The root is a minimum-degree center vertex (smallest label on
    ties). Green nodes come from two sources: adjacent same-layer pairs
    in layers 1..radius-1 whose endpoints both continue outward (chords
    always; the outer pair too when the layer has exactly two
    vertices), and merged parent pairs over the final layer when the
    pair is adjacent and verified to be a 2-vertex cut. Red nodes mark
    single common parents of final-layer groups; a red falling inside a
    same-level green is dropped as redundant.
    """
    summary = ecc_diam_rad_center(g)
    rad = summary.radius
    v_r = min(summary.center, key=lambda v: (g.degree(v), v))
    lay = layers(g, v_r)
    root = SpineNode("root", (v_r,), 0)
    if rad <= 1:
        return CutSpine(root, (root,), {}, lay, rad, True, _routes(g, (root,), lay))

    greens: list[SpineNode] = []
    green_seen: set[tuple[int, tuple[int, int]]] = set()

    def add_green(a: int, b: int, level: int) -> None:
        r = (a, b) if a < b else (b, a)
        if (level, r) not in green_seen:
            green_seen.add((level, r))
            greens.append(SpineNode("green", r, level))

    for i in range(1, rad):
        ni = lay[i]
        ni_set = set(ni)
        below = set(lay[i + 1])
        pair_layer = len(ni) == 2
        for a in ni:
            for b in g.neighbors(a):
                if b <= a or b not in ni_set:
                    continue
                if g.edge_kind[(a, b)] != "chord" and not pair_layer:
                    continue
                if not any(w in below for w in g.neighbors(a)):
                    continue
                if not any(w in below for w in g.neighbors(b)):
                    continue
                add_green(a, b, i)

    red_candidates: list[tuple[int, int]] = []  # (vertex, level)
    parent_layer = set(lay[rad - 1])
    for seg in _layer_paths(g, lay[rad]):
        idx = 0
        while idx < len(seg):
            common = {u for u in g.neighbors(seg[idx]) if u in parent_layer}
            j = idx + 1
            while j < len(seg):
                nxt = common & set(g.neighbors(seg[j]))
                if not nxt:
                    break
                common = nxt
                j += 1
            cs = sorted(common)
            if len(cs) == 1:
                red_candidates.append((cs[0], rad - 1))
            elif len(cs) == 2 and g.has_edge(cs[0], cs[1]) and _is_two_cut(g, cs[0], cs[1]):
                add_green(cs[0], cs[1], rad - 1)
            else:
                c = min(cs, key=lambda v: (-g.degree(v), v))
                red_candidates.append((c, rad - 1))
            idx = j

    green_cover = {(lvl, v) for lvl, r in green_seen for v in r}
    reds: list[SpineNode] = []
    red_seen: set[tuple[int, int]] = set()
    for c, lvl in red_candidates:
        if (lvl, c) in green_cover or (c, lvl) in red_seen:
            continue
        red_seen.add((c, lvl))
        reds.append(SpineNode("red", (c,), lvl))

    nodes = [root] + sorted(greens + reds, key=lambda nd: (nd.level, nd.realization))

    def touches_all(p: SpineNode, child: SpineNode) -> bool:
        return all(
            any(g.has_edge(u, v) for u in p.realization) for v in child.realization
        )

    def touches_any(p: SpineNode, child: SpineNode) -> bool:
        return any(
            g.has_edge(u, v) for u in p.realization for v in child.realization
        )

    parent: dict[SpineNode, SpineNode] = {}
    for node in nodes[1:]:
        cands = sorted(
            (p for p in nodes if p.level < node.level),
            key=lambda p: (-p.level, p.realization),
        )
        chosen = None
        for p in cands:
            if touches_all(p, node):
                chosen = p
                break
        if chosen is None:
            for p in cands:
                if touches_any(p, node):
                    chosen = p
                    break
        parent[node] = chosen if chosen is not None else root
    nodes = tuple(nodes)
    return CutSpine(root, nodes, parent, lay, rad, False, _routes(g, nodes, lay))


def primary_secondary(g: Graph, node: SpineNode) -> tuple[int, int]:
    """Split a spine node's realization into (primary, secondary).

    For green nodes the primary is the higher-degree endpoint (smaller
    label on ties); root and red nodes repeat their single vertex.
    """
    if node.kind == "green":
        a, b = node.realization
        p = min((a, b), key=lambda v: (-g.degree(v), v))
        return (p, b if p == a else a)
    v = node.realization[0]
    return (v, v)


def _route(
    g: Graph,
    src: int,
    dst: int,
    forbidden: set[int],
    penalized: set[tuple[int, int]],
    banned: set[tuple[int, int]] | None = None,
    tags: dict[tuple[int, int], int] | None = None,
) -> tuple[int, ...] | None:
    """Deterministic cheapest path src..dst.

    Cost is (hops, penalized edges used, path tuple), so the result is
    a shortest path that secondarily avoids the penalized edge set,
    with lexicographic tie-breaking. Vertices in `forbidden` and edges
    in `banned` are never used, and no path ever crosses two edges
    carrying the same `tags` value (tagged edges hold a fixed color, so
    a repeat would put that color on the path twice). Returns None when
    dst is unreachable under the constraints.
    """
    if src == dst:
        return (src,)
    start: tuple[int, int, tuple[int, ...], frozenset[int]] = (
        0,
        0,
        (src,),
        frozenset(),
    )
    heap = [start]
    settled: dict[tuple[int, frozenset[int]], tuple[int, int]] = {}
    while heap:
        hops, pen, path, used_tags = heapq.heappop(heap)
        v = path[-1]
        if v == dst:
            return path
        key = (v, used_tags)
        if key in settled and settled[key] <= (hops, pen):
            continue
        settled[key] = (hops, pen)
        for u in g.neighbors(v):
            if u in forbidden or u in path:
                continue
            e = edge(u, v)
            if banned is not None and e in banned:
                continue
            nxt_tags = used_tags
            if tags is not None and e in tags:
                t = tags[e]
                if t in used_tags:
                    continue
                nxt_tags = used_tags | {t}
            p = pen + (1 if e in penalized else 0)
            heapq.heappush(heap, (hops + 1, p, path + (u,), nxt_tags))
    return None


def _routes(
    g: MopGraph, nodes: tuple[SpineNode, ...], lay: tuple[tuple[int, ...], ...]
) -> SpineRoutes:
    """The routing data of a spine with these nodes and layers.

    Short paths follow the rail tree, a BFS tree in which each vertex
    picks its parent from the previous layer preferring primaries, then
    vertices on no spine node, then secondaries, breaking ties by
    smallest label; this keeps short paths on the primary rail whenever
    the graph allows it. Green pair edges and layer-1 edges all share
    one color, so they form a single crossing class (tag 0): a route
    crossing two of them would carry a repeated color, so the path
    router prunes such routes. Long paths prefer to avoid tree edges,
    which are reserved for short paths, and tagged edges, which carry
    fixed colors; steering them around both keeps the color bands from
    bleeding into each other.
    """
    primaries: set[int] = set()
    secondaries: set[int] = set()
    for nd in nodes[1:]:
        p, s = primary_secondary(g, nd)
        primaries.add(p)
        if s != p:
            secondaries.add(s)

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
    for nd in nodes[1:]:
        chain = [primary_secondary(g, nd)[0]]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        shorts[nd] = tuple(reversed(chain))

    tags: dict[tuple[int, int], int] = {}
    for nd in nodes:
        if nd.kind == "green":
            tags[edge(*nd.realization)] = 0
    n1 = lay[1] if len(lay) > 1 else ()
    inside = set(n1)
    for v in n1:
        for u in g.neighbors(v):
            if u in inside:
                tags.setdefault(edge(u, v), 0)
    tree = {edge(p, v) for v, p in parent.items() if p is not None}
    return SpineRoutes(
        shorts,
        frozenset(tree | tags.keys()),
        tags,
        frozenset(path[1] for path in shorts.values() if len(path) > 1),
    )


def _realize_with_stats(
    g: MopGraph,
    spine: CutSpine,
    node: SpineNode,
    avoid: frozenset[tuple[int, int]] = frozenset(),
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Two edge-disjoint root-to-realization paths plus repair count.

    The short path follows the primary-rail BFS tree to the node's
    primary vertex, so its length is exactly that vertex's layer. The
    long path is a cheapest route to the secondary vertex that prefers
    to avoid tree edges, green pair edges, and layer-1 edges, that
    hard-avoids the `avoid` edges whenever a route without them exists,
    and that would rather not leave the root through a spoke some short
    path rides (so the two bands keep distinct first colors even when
    realization vertices chain across nodes); any edge it still shares
    with the short path afterwards is repaired by detouring through a
    triangle apex (each repair adds one edge and bumps the returned
    counter).
    """
    v_r = spine.root_vertex
    if node.kind == "root":
        return ((v_r,), (v_r,), 0)
    primary, secondary = primary_secondary(g, node)
    routes = spine.routes
    a_path = routes.shorts[node]
    a_edges = {edge(a_path[i], a_path[i + 1]) for i in range(len(a_path) - 1)}
    # The short path's edges are rail-tree edges, so already penalized.
    penalized, gateways, tags = routes.penalized, routes.gateways, routes.tags
    own_pair: set[tuple[int, int]] = set()
    if node.kind == "green":
        own_pair.add(edge(primary, secondary))

    def fits_reserve(seg: tuple[int, ...]) -> bool:
        # Edges after the first either hold a level-indexed pair color
        # or will draw a fresh reserve color; both come out of the same
        # reserve, which holds 2 * radius - 4 colors. Layer-1 edges
        # ride the layer's own color and cost nothing.
        need = 0
        for i in range(1, len(seg) - 1):
            t = tags.get(edge(seg[i], seg[i + 1]))
            if t is None or t >= 1:
                need += 1
        return need <= 2 * spine.radius - 4

    best: tuple[int, int, int, tuple[int, ...]] | None = None
    for hard in (a_edges | own_pair | set(avoid), a_edges | own_pair):
        for w in g.neighbors(v_r):
            if edge(v_r, w) in hard:
                continue
            tail = _route(g, w, secondary, {v_r}, penalized, banned=hard, tags=tags)
            if tail is None:
                continue
            seg = (v_r,) + tail
            if not fits_reserve(seg):
                continue
            hops = len(seg) - 1
            pens = sum(
                1 for i in range(hops) if edge(seg[i], seg[i + 1]) in penalized
            )
            gated = 1 if w in gateways else 0
            if best is None or (hops, gated, pens, seg) < best:
                best = (hops, gated, pens, seg)
        if best is not None:
            break
    if best is not None:
        b_path = list(best[3])
    else:
        seg = _route(g, v_r, secondary, set(), penalized)
        if seg is None:
            raise AssertionError(
                "graph is connected; routing cannot fail outright"
            )
        b_path = list(seg)

    repairs = 0
    while repairs < 4 * g.n:
        shared_at = [
            i
            for i in range(len(b_path) - 1)
            if edge(b_path[i], b_path[i + 1]) in a_edges
        ]
        if not shared_at:
            break
        i = shared_at[-1]
        x, y = b_path[i], b_path[i + 1]

        def apex_cost(w: int) -> tuple[bool, bool, int]:
            touches_a = edge(x, w) in a_edges or edge(w, y) in a_edges
            return (touches_a, w in b_path, w)

        w = min(g.common_neighbors(x, y), key=apex_cost)
        b_path = b_path[: i + 1] + [w] + b_path[i + 1 :]
        repairs += 1
        if b_path.count(w) > 1:
            j1 = b_path.index(w)
            j2 = len(b_path) - 1 - b_path[::-1].index(w)
            cut_out = set(b_path[j1 + 1 : j2])
            if secondary not in cut_out:
                b_path = b_path[: j1 + 1] + b_path[j2 + 1 :]

    return a_path, tuple(b_path), repairs


def realize_paths(
    g: MopGraph,
    spine: CutSpine,
    node: SpineNode,
    avoid: frozenset[tuple[int, int]] = frozenset(),
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (short, long) realization paths of a spine node.

    Both start at the root vertex; the short path ends at the node's
    primary vertex, the long one at its secondary (the same vertex for
    red nodes), and they share no edge. The short path has fewer than
    radius edges. The long path additionally stays off the `avoid`
    edges whenever some route to the secondary can, at the price of
    extra length.
    """
    short, long_, _ = _realize_with_stats(g, spine, node, avoid)
    return short, long_
