"""Staged rainbow coloring of a MOP within 3 * radius colors.

The palette is laid out in fixed bands, writing each edge at most once
(later passes never recolor):

* 6: every green pair edge, and every edge inside layer 1.
* 5, then 7 .. radius+4: short realization paths, indexed by layer (the
  root spoke is 5, the edge entering layer k is k+5). Because short
  paths are BFS-tree paths, the color of a shared edge never depends on
  which path claimed it.
* 4, then radius+5 .. 3*radius: long realization paths. The root spoke
  is 4; each deeper edge takes the first reserve color not yet on its
  own path (first fit). `realize_paths` only returns a long path whose
  edges after the root spoke fit the reserve, so a free color always
  exists.
* 1, 2, 3: fans around the realization vertices of every non-root
  spine node (spokes alternate 1/2), and every leftover edge, fan path
  edges included, takes 3.

Any vertex pair can then be joined through the root: one endpoint rides
a short path (5 plus the low band), the other a long path (4 plus the
high band), a pair edge (6) bridges between a node's two realization
vertices, and fan spokes (1/2, with 3 to sidestep a parity clash) cover
the first hop onto the spine.

That argument is not a proof for every MOP, so the staged coloring has
one exit. When some spine node has no long path that fits the reserve,
the staged construction gives up; otherwise it is checked once, by the
exact checker. When it gives up or fails the check, the coloring is
replaced as a whole by `_layered`, which spends three colors per BFS
layer and is rainbow connected by construction (see its docstring).
The staged coloring is kept whenever it passes: it often saves colors,
and on strips the checker proves it far faster than the layered one.
Every strip `lad(d)` and `lad_plus(d)`, d = 3 .. 30, passes at
2 * radius + 2 colors, where the layered coloring spends 3 * radius.
Of the 800 acceptance graphs (random MOPs, n = 10, 20, 40, 60),
staged_valid holds on 557, and the returned coloring uses fewer colors
than `_layered` on 279 and more on 15 (7,214 colors in all, against
7,531 for `_layered`).

Radius <= 1 graphs are fans; they reuse the hand-tuned fan scheme (1,
2, or 3 colors depending on size) directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EdgeColoring, MopGraph, edge
from .errors import NotMop
from .generators import fan_coloring
from .spine import CutSpine, _layer_paths, build_ccs, primary_secondary, realize_paths
from .verify import is_rainbow_connected


@dataclass(frozen=True)
class ColoringStats:
    """Bookkeeping for one coloring run.

    excess measures distance from the 2*radius + 2 baseline; it can be
    negative and never exceeds radius - 2. staged_valid tells whether
    the staged coloring was returned: it passed its one exact check, or
    the radius is at most 1 and the fan scheme applies. When it is
    False, the layered fallback was returned instead, because the staged
    coloring failed its check or some long path did not fit the reserve.
    """

    radius: int
    colors_used: int
    bound: int
    excess: int
    staged_valid: bool


def _stats(radius: int, coloring: EdgeColoring, staged_valid: bool) -> ColoringStats:
    used = len(coloring.used)
    excess = used - (2 * radius + 2)
    return ColoringStats(radius, used, 3 * radius, excess, staged_valid)


def _repair_monochromatic(g: MopGraph, colors: dict[tuple[int, int], int]) -> None:
    """Ensure every vertex sees at least two distinct incident colors.

    A vertex whose incident edges all carry one color can leave itself
    in only one color, which strands it whenever the other endpoint of
    a query offers the same single color.  Flip one incident edge of
    each such vertex to a nearby low color, preferring the edge whose
    other endpoint already has the most variety (so the flip cannot
    create a new monochromatic vertex there).
    """
    flip = {1: 2, 2: 1, 3: 1}
    for v in g.vertices():
        inc = [edge(v, u) for u in g.neighbors(v)]
        if len(inc) < 2 or len({colors[e] for e in inc}) > 1:
            continue

        def variety(e: tuple[int, int]) -> tuple[int, int]:
            w = e[0] if e[1] == v else e[1]
            seen = {colors[edge(w, u)] for u in g.neighbors(w)}
            return (len(seen), g.degree(w))

        target = max(inc, key=variety)
        colors[target] = flip.get(colors[target], 3)


def _layered(g: MopGraph, spine: CutSpine) -> EdgeColoring:
    """A coloring that is rainbow connected by construction.

    Level k = 1..radius owns three colors: alpha_k, beta_k and gamma_k
    (3 * (radius - k) + 1, + 2, + 3). Every edge inside layer k takes
    gamma_k. Every other edge is a spoke, joining a vertex of layer k to
    a parent in layer k - 1. Along each path of layer k the spokes are
    listed vertex by vertex, each vertex first listing the spoke to the
    parent it shares with the previous vertex, and they alternate
    alpha_k, beta_k along that list.

    Lemma: every pair is joined by a rainbow walk. In a MOP every vertex
    has one or two parents, consecutive vertices of a layer path share
    a parent, and a vertex with one parent has a neighbor in its layer.
    So every vertex of layer k has an exit to layer k - 1 in alpha_k
    and one in beta_k, where an exit is a spoke, or gamma_k followed by
    a neighbor's spoke: two spokes of one vertex are adjacent in the
    list, and so are the only spoke of a vertex and a spoke of its
    neighbor. Two vertices of layer k therefore leave it on disjoint
    colors: one takes a spoke of its own, in alpha_k say, and the other
    its exit in beta_k, so only the second may spend gamma_k. By induction
    on k, from the deeper layer to the root, the two walks down to the
    root share no color, so together they form a rainbow walk, which
    contains a rainbow path. At most 3 * radius colors are used.

    The three facts are checked while coloring; NotMop is raised when
    one fails.
    """
    rad = spine.radius
    depth = {v: k for k, layer in enumerate(spine.layers) for v in layer}
    colors: dict[tuple[int, int], int] = {}
    for k in range(1, rad + 1):
        alpha = 3 * (rad - k) + 1
        for path in _layer_paths(g, spine.layers[k]):
            spokes: list[tuple[int, int]] = []
            before: list[int] = []  # the previous vertex's parents
            for i, v in enumerate(path):
                parents = sorted(u for u in g.neighbors(v) if depth[u] == k - 1)
                if not 1 <= len(parents) <= 2:
                    raise NotMop(f"vertex {v} has {len(parents)} parents")
                if len(parents) == 1 and len(path) == 1:
                    raise NotMop(f"vertex {v} has one parent and no neighbor in its layer")
                if i:
                    if not set(parents) & set(before):
                        raise NotMop(f"layer neighbors {path[i - 1]} and {v} share no parent")
                    colors[edge(path[i - 1], v)] = alpha + 2
                    parents.sort(key=lambda u: u not in before)
                spokes += [edge(v, u) for u in parents]
                before = parents
            for j, e in enumerate(spokes):
                colors[e] = alpha + j % 2
    return EdgeColoring(colors)


def rainbow_coloring(g: MopGraph) -> tuple[EdgeColoring, ColoringStats]:
    """Color all edges so every vertex pair gets a rainbow path.

    Uses at most 3 * radius colors (at most 3 when the radius is 1).
    Deterministic: the same graph always yields the same coloring.
    Above radius 1 the staged coloring is checked once, exactly, and
    returned when it passes. When it fails, or when some spine node has
    no long path that fits the reserve (then no check is made), the
    layered coloring, rainbow connected by construction, is returned.
    """
    spine = build_ccs(g)
    rad = spine.radius
    if rad <= 1:
        hub = min(v for v in g.vertices() if g.degree(v) == g.n - 1)
        coloring = EdgeColoring(fan_coloring(g.fan_neighbors(hub), hub))
        return coloring, _stats(rad, coloring, True)

    v_r = spine.root_vertex
    colors: dict[tuple[int, int], int] = {}
    level_one = set(spine.layers[1])

    # Green pair edges bridge a node's two realization vertices, so a
    # route can hop from the secondary over to the short path ending
    # at the primary; they share color 6 with the layer-1 edges, and
    # the path router never crosses two edges of that shared class.
    for node in spine.nodes:
        if node.kind == "green":
            colors.setdefault(edge(*node.realization), 6)

    # Realization paths, level by level: every short path of a level
    # claims its edges before that level's long paths run, so an edge
    # that a long path shares with a short path of its level keeps its
    # low-band color. A node with no long path that fits ends the
    # staged construction (see `realize_paths`). At radius 2 every
    # realization path is a single root spoke, and fixing spokes by node
    # role would let chains of overlapping pairs paint long runs of
    # layer 1 with one color; the alternating root fan below handles
    # that radius on its own.
    reserve = range(rad + 5, 3 * rad + 1)
    ordered = sorted(spine.nodes[1:], key=lambda nd: (nd.level, nd.realization))
    if rad == 2:
        ordered = []
    for lvl in sorted({nd.level for nd in ordered}):
        batch = [nd for nd in ordered if nd.level == lvl]
        for node in batch:
            short = spine.routes.shorts[node]
            for i in range(len(short) - 1):
                colors.setdefault(edge(short[i], short[i + 1]), 5 if i == 0 else 6 + i)
        for node in batch:
            long_ = realize_paths(g, spine, node)[1]
            if long_ is None:
                coloring = _layered(g, spine)
                return coloring, _stats(rad, coloring, False)
            path_edges = [edge(long_[i], long_[i + 1]) for i in range(len(long_) - 1)]
            on_path = {colors[e] for e in path_edges if e in colors}
            for i, e in enumerate(path_edges):
                if e in colors:
                    continue
                if i == 0:
                    pick = 4
                elif e[0] in level_one and e[1] in level_one:
                    pick = 6
                else:
                    # First fit: the path fits the reserve, so a free
                    # color is always left.
                    pick = min(c for c in reserve if c not in on_path)
                colors[e] = pick
                on_path.add(pick)

    # Root fan: alternating spokes, layer-1 path edges in 6.
    order = g.fan_neighbors(v_r)
    for idx, u in enumerate(order):
        colors.setdefault(edge(v_r, u), 4 if idx % 2 == 0 else 5)
    for i in range(len(order) - 1):
        colors.setdefault(edge(order[i], order[i + 1]), 6)

    # Fans around every non-root spine node. All spokes are colored
    # before any fan path edge, so a fan's path never steals an edge
    # that is a spoke of a later fan (the alternation around each
    # center must survive intact for parity switches to work); the fan
    # path edges take 3 with every other leftover edge below.
    for node in spine.nodes[1:]:
        primary, secondary = primary_secondary(g, node)
        fans = [primary]
        if node.kind == "green":
            private = set(g.neighbors(secondary)) - set(g.neighbors(primary))
            private.discard(primary)
            if private:
                fans.append(secondary)
        for f in fans:
            phase = f % 2
            for idx, u in enumerate(g.fan_neighbors(f)):
                colors.setdefault(edge(f, u), 1 if idx % 2 == phase else 2)

    for e in g.edges:
        colors.setdefault(e, 3)

    _repair_monochromatic(g, colors)
    coloring = EdgeColoring(colors)
    staged_valid = is_rainbow_connected(g, coloring, max_n=g.n, max_colors=3 * rad).ok
    if not staged_valid:
        coloring = _layered(g, spine)
    return coloring, _stats(rad, coloring, staged_valid)
