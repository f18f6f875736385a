"""Staged rainbow coloring of a MOP within 3 * radius colors.

Two colorings valid by design come first, each decided in linear time
and before any cut spine is built. A fan (radius 1: some vertex of
degree n - 1) takes the fan scheme. Then a sufficient condition for
rc = diam: when some ear (a vertex of degree 2) has BFS distance
classes of at most two vertices each, as the strips `lad(d)` and
`lad_plus(d)` have, coloring each edge by the larger distance of its
ends from that ear spends exactly diam colors and is rainbow connected
by construction (`_strip_coloring` proves both). Such a MOP has
exactly two ears, so a MOP with more is turned away after one degree
scan, and its radius is half its diameter rounded up, so no
eccentricity is computed. A MOP of n >= `N0` vertices then gets
`_layered`'s coloring at once, from the central vertex that one linear
pass over the MopGraph's dual tree finds, with no cut spine: a census
found no staged coloring at those sizes that both passes its check and
spends fewer colors (see `N0`). The rest of this note is about the
staged coloring that every other MOP of radius >= 2 gets.

The palette is laid out in fixed bands, writing each edge at most once
(later passes never recolor):

* 6: the spine's tagged edges (`CutSpine.tagged`), every green pair
  edge and every edge inside layer 1, painted before anything else.
* 5, then 7 .. radius+4: short realization paths, indexed by layer (the
  root spoke is 5, the edge entering layer k is k+5). Because short
  paths are BFS-tree paths, the color of a shared edge never depends on
  which path claimed it, and no short path claims an edge inside a
  layer.
* 4, then radius+5 .. 3*radius: long realization paths. The root spoke
  is 4; each deeper edge takes the first color of this reserve band
  not yet on its own path (first fit), and `_staged` gives up when none
  is free. A route with at most 2 * radius - 4 untagged edges after its
  root spoke, the band's size, always finds one: its root spoke holds
  4 or 5, short paths hold the low band and tagged edges 6, so only its
  other untagged edges after the root spoke can hold band colors.
* 1, 2, 3: fans around the realization vertices of every non-root
  spine node (spokes alternate 1/2), and every leftover edge, fan path
  edges included, takes 3.

Any vertex pair can then be joined through the root: one endpoint rides
a short path (5 plus the low band), the other a long path (4 plus the
high band), a pair edge (6) bridges between a node's two realization
vertices, and fan spokes (1/2, with 3 to sidestep a parity clash) cover
the first hop onto the spine.

That argument is not a proof for every MOP. `_staged` builds the
staged coloring, or returns None when some spine node has no long path
or its long path finds no free reserve color; `rainbow_coloring` is the
one place that falls back. It checks a staged coloring once, by
`verify._rainbow_verdict(g, coloring, spine.layers)`, which reads its
hub and levels off the spine's BFS layers and so runs no BFS, and
otherwise returns `_layered`'s coloring of the same layers, which
spends three colors per layer and is rainbow connected by construction
from any root (see its docstring). The verdict is exactly
`is_rainbow_connected`'s: after the layer certificate, one exhaustive
rainbow search from a vertex of the deepest BFS layer below the root
rejects the coloring as soon as it leaves some vertex unreached, since
that pair then has no rainbow path; only a coloring it cannot refute
goes on to the hub and per-source searches.
The staged coloring is kept whenever it passes, because it often saves
colors; the checker proves a layered coloring at once by its layer
certificate, and a staged one mostly by its hub and per-source searches.
Which graphs take which coloring, and at how many colors, is pinned by
the tests rather than tallied here: the frozen digests and
`test_frozen_acceptance_half_corpus` in tests/test_coloring.py, which
also holds `test_strips_meet_the_paper_palette` (the staged coloring of
every strip at 2 * radius + 2 colors), and the acceptance sheet in
tests/test_acceptance.py.

Radius 1 graphs are fans; they reuse the hand-tuned fan scheme (1, 2,
or 3 colors depending on size) directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

from .core import EdgeColoring, MopGraph, breadth_first, edge
from .generators import fan_coloring
from .metrics import central_vertex, layers
from .spine import CutSpine, build_ccs, realize_paths
from .verify import _rainbow_verdict


N0 = 150
"""The least n at which `rainbow_coloring` skips the staged coloring.

A census of `random_mop_graph(n, b + 1000 * n + s)` for
b = 7,000,000 and 9,000,000, s = 0..299, at n = 90, 100, .., 200 and
n = 250, 300, 400 (600 graphs per n; BENCH_staged_gate.json) built
every staged coloring and checked it. A passing one spent fewer colors
than `_layered` on 26 graphs at n = 90, 9 at 100, 3 at 110 and 1 at
140. None of the 5,400 graphs at n = 150 or above had a passing staged
coloring. N0 is the least grid n such that no grid n from it up shows
a passing staged coloring cheaper than `_layered`'s. Below it nothing
changes. From it on, the cut spine, the staged coloring and its check
took about four fifths of a coloring's time at n = 200, and grew
quadratic memory at large n, for a coloring never returned there.
`test_coloring_refutes_random_200_staged_colorings_before_the_hub_rows`
fails when a staged coloring starts winning there; then N0 must be
derived again.
"""


@dataclass(frozen=True)
class ColoringStats:
    """Bookkeeping for one coloring run.

    bound is the guaranteed 3 * radius. excess is the abstract's c, the
    colors used beyond its 2 * radius + 2 baseline: negative when fewer
    are used, and never above radius - 2. staged_valid is True when the
    layered fallback was not needed: the staged coloring passed its one
    exact check, or a coloring valid by design applies (the fan scheme
    at radius <= 1, the diam-color strip coloring). When it is False,
    the layered coloring was returned instead: because n >= `N0`, so no
    staged coloring was built (the census cited there found none that
    passes at those sizes), or because the staged coloring failed its
    check or some long path had no route or no free reserve color.
    """

    radius: int
    colors_used: int
    staged_valid: bool

    @property
    def bound(self) -> int:
        return 3 * self.radius

    @property
    def excess(self) -> int:
        return self.colors_used - (2 * self.radius + 2)


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
        if len({colors[e] for e in inc}) > 1:
            continue

        def variety(e: tuple[int, int]) -> tuple[int, int]:
            w = e[0] if e[1] == v else e[1]
            seen = {colors[edge(w, u)] for u in g.neighbors(w)}
            return (len(seen), g.degree(w))

        target = max(inc, key=variety)
        colors[target] = flip.get(colors[target], 3)


def _layered(g: MopGraph, layers: tuple[tuple[int, ...], ...]) -> EdgeColoring:
    """A coloring that is rainbow connected by construction.

    layers are the BFS layers from one vertex r, as `metrics.layers`
    returns them, so r's eccentricity is len(layers) - 1. Level
    k = 1..ecc(r) owns three colors: alpha_k, beta_k and gamma_k
    (3 * (ecc(r) - k) + 1, + 2, + 3). Every edge inside layer k takes
    gamma_k. Every other edge is a spoke, joining a vertex of layer k to
    a parent in layer k - 1. Each layer induces disjoint paths, walked
    in order of their smaller-labelled end (isolated vertices are paths
    of one). Along each path the spokes are listed vertex by vertex,
    each vertex first listing the spoke to the parent it shares with
    the previous vertex, and they alternate alpha_k, beta_k along that
    list.

    Lemma: for any root r, every pair is joined by a rainbow walk. In a
    MOP every vertex has one or two parents, consecutive vertices of a
    layer path share a parent, and a vertex with one parent has a
    neighbor in its layer. So every vertex of layer k has an exit to
    layer k - 1 in alpha_k and one in beta_k, where an exit is a spoke,
    or gamma_k followed by a neighbor's spoke: two spokes of one vertex
    are adjacent in the list, and so are the only spoke of a vertex and
    a spoke of its neighbor. Two vertices of layer k therefore leave it
    on disjoint colors: one takes a spoke of its own, in alpha_k say,
    and the other its exit in beta_k, so only the second may spend
    gamma_k. By induction on k, from the deeper layer to r, the two
    walks down to r share no color, so together they form a rainbow
    walk, which contains a rainbow path. At most 3 * ecc(r) colors are
    used, 3 * radius from a center.

    The layer facts hold in every MOP, and the MopGraph constructor
    rejects every graph that is not one, so they are not checked here.
    """
    ecc = len(layers) - 1
    depth = [0] * (g.n + 1)
    for k, layer in enumerate(layers):
        for v in layer:
            depth[v] = k
    colors: dict[tuple[int, int], int] = {}
    for k in range(1, ecc + 1):
        alpha = 3 * (ecc - k) + 1
        beta, gamma = alpha + 1, alpha + 2
        # Each vertex's neighbors in its layer and its parents, by label.
        side: dict[int, list[int]] = {}
        up: dict[int, list[int]] = {}
        for v in layers[k]:
            s, p = [], []
            for u in g.neighbors(v):
                if depth[u] == k:
                    s.append(u)
                elif depth[u] < k:
                    p.append(u)
            side[v], up[v] = s, p
        done: set[int] = set()  # far ends of the paths already walked
        for end in layers[k]:
            if end in done or len(side[end]) > 1:
                continue
            prev, v, j = 0, end, 0
            while True:
                parents = up[v]
                if prev:
                    colors[(prev, v) if prev < v else (v, prev)] = gamma
                    # The parent shared with prev first; there are at most two.
                    if parents[0] not in before:
                        parents = parents[::-1]
                for u in parents:
                    colors[(u, v) if u < v else (v, u)] = beta if j else alpha
                    j ^= 1
                before = parents
                s = side[v]
                nxt = s[0] if s and s[0] != prev else (s[1] if len(s) > 1 else 0)
                if not nxt:
                    break
                prev, v = v, nxt
            done.add(v)
    return EdgeColoring(colors)


def _strip_coloring(g: MopGraph) -> EdgeColoring | None:
    """A diam-color coloring, rainbow connected by construction, or None.

    g has no vertex of degree n - 1 (radius >= 2). The function looks
    for an ear p (a vertex of degree 2) whose BFS distance classes each
    hold at most two vertices, trying the ears in label order, and
    gives each edge the larger distance of its two ends from p. The
    strips `lad(d)` and `lad_plus(d)` are such graphs. Classes 1 to
    ecc(p) each have a vertex with a spoke to the class below, so the
    coloring spends ecc(p) colors.

    Lemma: the coloring is rainbow connected exactly when every class
    is one vertex or two adjacent ones, and in a MOP every class of two
    from such an ear is an edge.
    - Sufficient. Take u in class i and v in class j, with i < j. The
      walk from v down its BFS parents reaches class i over edges
      colored j, ..., i + 1; at most one edge inside class i, colored
      i, then reaches u. Two vertices of one class are adjacent.
    - Necessary. A path between two non-adjacent vertices of one class
      leaves the class and comes back, on the side below (two edges
      colored by the class) or above it (two edges colored by the next
      class), since it cannot cross the class on the way.
    - Adjacent. Class 1 is the ear's two neighbors, which share a face.
      A class k with 0 < k < ecc(p) separates p from the last class. A
      MOP is 2-connected, and a pair of non-adjacent vertices never
      separates it (the missing diagonal is crossed by a chord), so
      class k is a chord. The last class lies beyond the chord of the
      class before it, where at most two vertices and the chord's ends
      form a triangle or a quadrilateral, whose outer cycle joins them.

    So ecc(p) = diam: a pair in classes i < j is at most j - i + 1
    apart, and j - i + 1 = ecc(p) + 1 only when i = 0, whose class is p
    alone. Since rc >= diam, such a MOP has rc = diam, and this
    coloring meets it. Class 1 is p's neighborhood, so only ears can
    pass.

    Two ears. Such a MOP has exactly two ears, so a MOP with more is
    turned away after one degree scan, and one with two costs at most
    two BFS runs. A chord's ends have degree >= 3 (each bounds two faces), so
    no ear lies in a class k with 0 < k < ecc(p). Beyond the chord of
    class ecc(p) - 1 lies a triangle, whose third vertex is one ear, or
    a quadrilateral with one diagonal, which leaves one of its two far
    vertices of degree 2 and the other of degree 3. With p, that makes
    two.

    Radius. The radius is ceil(D / 2), with D = ecc(p) = diam, so it
    is read off the color count. A vertex u of class c reaches p in c
    steps, class j >= 1 below it in at most c - j + 1 <= c, its own
    class in 1, and class j above it in at most j - c + 1, by the walk
    down from the far vertex. For odd D, take c = (D + 1) / 2: every
    class is within (D + 1) / 2. For even D, the chord of class D - 1
    has an end w adjacent to the whole last class (the triangle's
    apex, or the quadrilateral's diagonal end). Take u as w's BFS
    ancestor in class D / 2: u reaches w in D / 2 - 1 steps and the
    last class in D / 2, and every other class within D / 2 as before.
    Conversely diam <= 2 * radius.
    """
    ears = [p for p in g.vertices() if g.degree(p) == 2]
    if len(ears) != 2:
        return None
    for p in ears:
        level, order = breadth_first(g.neighbors, g.n, (p,))
        if all(level[a] < level[c] for a, c in zip(order, order[2:])):
            return EdgeColoring({(u, v): max(level[u], level[v]) for u, v in g.edges})
    return None


def _staged(g: MopGraph, spine: CutSpine) -> EdgeColoring | None:
    """The staged coloring at radius >= 2, or None when a long path has no
    route or leaves no free reserve color."""
    rad = spine.radius
    v_r = spine.root_vertex
    # Green pair edges bridge a node's two realization vertices, so a
    # route can hop from the secondary over to the short path ending
    # at the primary; they share color 6 with the layer-1 edges, and
    # the path router never crosses two edges of that shared class.
    colors = dict.fromkeys(spine.tagged, 6)

    # Realization paths, level by level: every short path of a level
    # claims its edges before that level's long paths run, so an edge
    # that a long path shares with a short path of its level keeps its
    # low-band color. At radius 2 every realization path is a single
    # root spoke, and fixing spokes by node role would let chains of
    # overlapping pairs paint long runs of layer 1 with one color; the
    # alternating root fan below handles that radius on its own.
    reserve = range(rad + 5, 3 * rad + 1)
    ordered = spine.nodes[1:] if rad > 2 else ()
    for _, level in groupby(ordered, key=attrgetter("level")):
        batch = list(level)
        for node in batch:
            short = spine.shorts[node]
            for i in range(len(short) - 1):
                colors.setdefault(edge(short[i], short[i + 1]), 5 if i == 0 else 6 + i)
        for node in batch:
            long_ = realize_paths(g, spine, node)[1]
            if long_ is None:
                return None
            path_edges = [edge(long_[i], long_[i + 1]) for i in range(len(long_) - 1)]
            on_path = {colors[e] for e in path_edges if e in colors}
            for i, e in enumerate(path_edges):
                if e in colors:
                    continue
                # First fit: the lowest reserve color not yet on the path.
                pick = 4 if i == 0 else next((c for c in reserve if c not in on_path), None)
                if pick is None:
                    return None
                colors[e] = pick
                on_path.add(pick)

    # Root fan: alternating spokes (its path edges are layer 1's, in 6).
    for idx, u in enumerate(g.fan_neighbors(v_r)):
        colors.setdefault(edge(v_r, u), 4 if idx % 2 == 0 else 5)

    # Fans around every non-root spine node. All spokes are colored
    # before any fan path edge, so a fan's path never steals an edge
    # that is a spoke of a later fan (the alternation around each
    # center must survive intact for parity switches to work); the fan
    # path edges take 3 with every other leftover edge below. A node's
    # secondary is a center too when it has a neighbor off the
    # primary's closed neighborhood. Each center is painted once, in
    # first-visit order: its first visit sets every spoke it has.
    centers: dict[int, None] = {}
    for primary, secondary in spine.ends.values():
        centers[primary] = None
        if not set(g.neighbors(secondary)) <= {primary, *g.neighbors(primary)}:
            centers[secondary] = None
    for f in centers:
        phase = f % 2
        for idx, u in enumerate(g.fan_neighbors(f)):
            colors.setdefault(edge(f, u), 1 if idx % 2 == phase else 2)

    for e in g.edges:
        colors.setdefault(e, 3)

    _repair_monochromatic(g, colors)
    return EdgeColoring(colors)


def rainbow_coloring(g: MopGraph) -> tuple[EdgeColoring, ColoringStats]:
    """Color all edges so every vertex pair gets a rainbow path.

    Uses at most 3 * radius colors (at most 3 when the radius is 1).
    Deterministic: the same graph always yields the same coloring.
    The two colorings valid by design are decided first, from degrees
    and at most two BFS runs, with no cut spine and no eccentricities:
    - a fan (radius 1, some vertex of degree n - 1) takes the fan
      scheme around the least such vertex;
    - a MOP with an ear whose BFS distance classes are each one vertex
      or two adjacent vertices has rc = diam, and gets
      `_strip_coloring`'s diam colors with no check; its radius is
      half the color count, rounded up.
    A MOP with n >= `N0` vertices gets `_layered`'s coloring of the BFS
    layers from `central_vertex(g)` at once, with staged_valid False:
    the root comes from one linear pass over the MopGraph's dual tree,
    with no cut spine, no staged coloring and no check, since the
    census cited at `N0` found no staged coloring there that passes. It
    is the coloring the staged path falls back to, from the same root.
    Every other MOP gets the cut spine. Its staged coloring is checked
    once, exactly, and returned when it passes. The check
    (`verify._rainbow_verdict`) first tries to refute it with one
    rainbow search from the deepest layer below the root; a vertex that
    search cannot reach has no rainbow path to its start, so the
    verdict is always `is_rainbow_connected`'s. When the check fails,
    or when `_staged` gives up (then no check is made), `_layered`'s
    coloring of the spine root's BFS layers (`spine.layers`), rainbow
    connected by construction, is returned.
    """
    hub = next((v for v in g.vertices() if g.degree(v) == g.n - 1), None)
    if hub is not None:
        coloring = EdgeColoring(fan_coloring(g.fan_neighbors(hub), hub))
        return coloring, ColoringStats(1, len(coloring.used), True)

    coloring = _strip_coloring(g)
    if coloring is not None:
        diam = len(coloring.used)
        return coloring, ColoringStats((diam + 1) // 2, diam, True)
    if g.n >= N0:
        lay = layers(g, central_vertex(g))
    else:
        spine = build_ccs(g)
        lay = spine.layers
        coloring = _staged(g, spine)
        if coloring is not None and _rainbow_verdict(g, coloring, lay):
            return coloring, ColoringStats(spine.radius, len(coloring.used), True)
    coloring = _layered(g, lay)
    return coloring, ColoringStats(len(lay) - 1, len(coloring.used), False)
