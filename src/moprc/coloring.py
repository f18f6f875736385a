"""Staged rainbow coloring of a MOP within 3 * radius colors.

The palette is laid out in fixed bands, writing each edge at most once
(later passes never recolor):

* 6: every green pair edge, and every edge inside layer 1.
* 5, then 7 .. radius+4: short realization paths, indexed by layer (the
  root spoke is 5, the edge entering layer k is k+5). Because short
  paths are BFS-tree paths, the color of a shared edge never depends on
  which path claimed it.
* 4, then radius+5 .. 3*radius: long realization paths. The root spoke
  is 4; each deeper edge takes the smallest reserve color not yet on
  its own path.
* 1, 2, 3: fans around the realization vertices of every non-root
  spine node (spokes alternate 1/2, fan path edges get 3), and finally
  3 for anything left over.

Any vertex pair can then be joined through the root: one endpoint rides
a short path (5 plus the low band), the other a long path (4 plus the
high band), a pair edge (6) bridges between a node's two realization
vertices, and fan spokes (1/2, with 3 to sidestep a parity clash) cover
the first hop onto the spine.

Radius <= 1 graphs are fans; they reuse the hand-tuned fan scheme (1,
2, or 3 colors depending on size) directly.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .core import EdgeColoring, MopGraph, edge
from .errors import PaletteExhausted, RepairExhausted
from .generators import fan_coloring
from .metrics import bfs
from .spine import SpineNode, build_ccs, primary_secondary, realize_paths
from .verify import is_rainbow_connected


@dataclass(frozen=True)
class ColoringStats:
    """Bookkeeping for one coloring run.

    excess measures distance from the 2*radius + 2 baseline; it can be
    negative and never exceeds radius - 2. repair_rounds counts the
    failing pairs the verifier-driven repair patched (0 when the staged
    coloring was already rainbow connected).
    """

    radius: int
    colors_used: int
    bound: int
    excess: int
    repair_rounds: int = 0


def _stats(
    radius: int, coloring: EdgeColoring, repair_rounds: int = 0
) -> ColoringStats:
    used = len(coloring.used)
    excess = used - (2 * radius + 2)
    return ColoringStats(radius, used, 3 * radius, excess, repair_rounds)


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
    for _ in range(2):
        changed = False
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
            changed = True
        if not changed:
            return


_PATH_BUDGET = 6000
_REPAIR_ROUNDS = 80


def _connect_pair(
    g: MopGraph,
    colors: dict[tuple[int, int], int],
    u: int,
    v: int,
    rad: int,
    skip: int = 0,
) -> bool:
    """Recolor a few edges so some u..v path becomes rainbow.

    Walks the simple u..v paths of at most min(3 * rad, n - 1) edges
    depth first, neighbors in ascending order and pruned by the exact
    remaining distance to v, so paths arrive in lexicographic order;
    the walk stops at the _PATH_BUDGET-th path, so dense neighborhoods
    stay cheap. Among the paths with a repeated color it picks the
    (skip + 1)-th by (conflicts, length, path), where conflicts counts
    the edges minus the distinct colors. `skip` lets a pair that failed
    again after an earlier fix get a genuinely different one. On the
    pick, each duplicated color group donates one edge, which takes a
    color the path does not carry yet. Any pick can be fixed: its at
    most 3 * rad edges need as many fresh colors as they have
    conflicts, and the 3 * rad palette always leaves that many spare.
    Returns False when fewer than skip + 1 paths conflict.
    """
    max_len = min(3 * rad, g.n - 1)
    dist_v = bfs(g, v).dist
    adj = [()] + [
        [(w, colors[edge(x, w)], dist_v[w]) for w in g.neighbors(x)]
        for x in g.vertices()
    ]
    # count[c]: edges of color c on the current path; dup: its edges
    # whose color repeats an earlier one, i.e. its conflicts. cols[i]
    # is the color of the edge entering path[i] (0 for u).
    count = [0] * (max(colors.values()) + 1)
    dup = 0
    path, cols = [u], [0]
    on_path = [False] * (g.n + 1)
    on_path[u] = True
    room = max_len - 1  # max_len - len(path): w fits when dist_v[w] <= room
    stack = [iter(adj[u])]
    found = 0
    best: list[tuple[int, int, tuple[int, ...]]] = []
    while stack:
        for w, c, d in stack[-1]:
            if d > room or on_path[w]:
                continue
            if not d:  # w == v
                found += 1
                conflicts = dup + (count[c] > 0)
                # Later paths are lexicographically larger, so one that
                # only ties the shortlist's worst (conflicts, length)
                # cannot displace it.
                if conflicts and (
                    len(best) <= skip or (conflicts, len(path) + 1) < best[-1][:2]
                ):
                    insort(best, (conflicts, len(path) + 1, (*path, v)))
                    del best[skip + 1 :]
                if found == _PATH_BUDGET:
                    stack.clear()
                    break
                continue
            if count[c]:
                dup += 1
            count[c] += 1
            path.append(w)
            cols.append(c)
            on_path[w] = True
            room -= 1
            stack.append(iter(adj[w]))
            break
        else:
            stack.pop()
            on_path[path.pop()] = False
            c = cols.pop()
            count[c] -= 1
            if count[c]:
                dup -= 1
            room += 1
    if len(best) <= skip:
        return False
    pick = best[skip][2]
    edges = [edge(pick[i], pick[i + 1]) for i in range(len(pick) - 1)]
    present = {colors[e] for e in edges}
    # High colors first: the reserve sits on few edges globally, so
    # moving a flipped edge up there risks the least collateral.
    spare = iter(sorted(set(range(1, 3 * rad + 1)) - present, reverse=True))
    groups: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        groups.setdefault(colors[e], []).append(e)
    # A group shares one color, so only the edge order decides which
    # edge keeps it: the largest does.
    for es in groups.values():
        for e in sorted(es)[:-1]:
            colors[e] = next(spare)
    return True


def _repair_unconnected(
    g: MopGraph, colors: dict[tuple[int, int], int], rad: int
) -> int:
    """Verifier-driven repair: recolor until every pair connects.

    Each round asks the exact checker for a failing pair and patches
    one path for it. A pair that comes back gets the next candidate fix
    instead of the one that failed to stick, so two pairs trading
    places under the same patch cannot loop forever. The checks run
    with caps of the graph's own size and the 3 * rad palette, never
    the public defaults. All rounds share one proofs dict: a patch
    recolors one to three edges, so most rainbow paths the checker
    stored in earlier rounds still hold, and it searches again only
    the pairs whose stored path broke or that have none. Returns the
    number of pairs patched, only once the coloring verifies; raises
    RepairExhausted when a recurring pair runs out of fresh candidates
    or the round budget runs out.
    """
    attempts: dict[tuple[int, int], int] = {}
    proofs: dict[tuple[int, int], tuple[int, ...]] = {}
    for rounds in range(_REPAIR_ROUNDS + 1):
        res = is_rainbow_connected(
            g, EdgeColoring(colors), max_n=g.n, max_colors=3 * rad, proofs=proofs
        )
        if res.ok:
            return rounds
        pair = res.counterexample
        if rounds == _REPAIR_ROUNDS:
            raise RepairExhausted(
                f"pair {pair} still unconnected after {rounds} repair rounds"
            )
        tried = attempts.get(pair, 0)
        attempts[pair] = tried + 1
        if not _connect_pair(g, colors, *pair, rad, skip=tried):
            raise RepairExhausted(f"no candidate recoloring connects pair {pair}")


def rainbow_coloring(g: MopGraph) -> tuple[EdgeColoring, ColoringStats]:
    """Color all edges so every vertex pair gets a rainbow path.

    Uses at most 3 * radius colors (at most 3 when the radius is 1).
    Deterministic: the same graph always yields the same coloring.
    Above radius 1 the coloring is returned only after it passes the
    exact checker; otherwise RepairExhausted is raised.
    """
    spine = build_ccs(g)
    rad = spine.radius
    if rad <= 1:
        hub = min(v for v in g.vertices() if g.degree(v) == g.n - 1)
        coloring = EdgeColoring(fan_coloring(g.fan_neighbors(hub), hub))
        return coloring, _stats(rad, coloring)

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
    # claims its edges before that level's long paths run, and long
    # paths are re-routed around everything the low band has claimed so
    # far, so the two bands stay disjoint even when realization
    # vertices chain across nodes (the reserve is wide enough for the
    # detours).  At radius 2 every realization path is a single root
    # spoke, and fixing spokes by node role would let chains of
    # overlapping pairs paint long runs of layer 1 with one color; the
    # alternating root fan below handles that radius on its own.
    reserve = list(range(rad + 5, 3 * rad + 1))
    usage = {c: 0 for c in reserve}
    ordered = sorted(spine.nodes[1:], key=lambda nd: (nd.level, nd.realization))
    longs: dict[SpineNode, tuple[int, ...]] = {}
    if rad == 2:
        ordered = []
    low_claimed: set[tuple[int, int]] = set()
    for lvl in sorted({nd.level for nd in ordered}):
        batch = [nd for nd in ordered if nd.level == lvl]
        for node in batch:
            short = spine.routes.shorts[node]
            for i in range(len(short) - 1):
                pick = 5 if i == 0 else 6 + i
                e = edge(short[i], short[i + 1])
                colors.setdefault(e, pick)
                if colors[e] == 5 or colors[e] > 6:
                    low_claimed.add(e)
        for node in batch:
            long_ = realize_paths(g, spine, node, frozenset(low_claimed))[1]
            longs[node] = long_
            on_path = set()
            for i in range(len(long_) - 1):
                e = edge(long_[i], long_[i + 1])
                if e in colors:
                    on_path.add(colors[e])
            for i in range(len(long_) - 1):
                e = edge(long_[i], long_[i + 1])
                if e in colors:
                    continue
                if i == 0:
                    pick = 4
                elif long_[i] in level_one and long_[i + 1] in level_one:
                    pick = 6
                else:
                    # Spread reserve colors evenly so different long
                    # paths rarely lean on the same one. When the
                    # reserve is spent, fall back on the layer-1
                    # color: short paths never carry it, so one such
                    # edge per path stays safe.
                    free = [c for c in reserve if c not in on_path]
                    if free:
                        pick = min(free, key=lambda c: (usage[c], c))
                        usage[pick] += 1
                    elif 6 not in on_path:
                        pick = 6
                    else:
                        raise PaletteExhausted(
                            f"no reserve color left for edge {e} on path {long_}"
                        )
                colors[e] = pick
                on_path.add(pick)
                if colors[e] == 5 or colors[e] > 6:
                    low_claimed.add(e)

    # Root fan: alternating spokes, layer-1 path edges in 6.
    order = g.fan_neighbors(v_r)
    for idx, u in enumerate(order):
        colors.setdefault(edge(v_r, u), 4 if idx % 2 == 0 else 5)
    for i in range(len(order) - 1):
        colors.setdefault(edge(order[i], order[i + 1]), 6)

    # Fans around every non-root spine node. All spokes are colored
    # before any fan path edge, so a fan's path never steals an edge
    # that is a spoke of a later fan (the alternation around each
    # center must survive intact for parity switches to work).
    centers: list[tuple[int, SpineNode]] = []
    seen_centers: set[int] = set()
    for node in spine.nodes[1:]:
        primary, secondary = primary_secondary(g, node)
        fans = [primary]
        if node.kind == "green":
            private = set(g.neighbors(secondary)) - set(g.neighbors(primary))
            private.discard(primary)
            if private:
                fans.append(secondary)
        for f in fans:
            if f not in seen_centers:
                seen_centers.add(f)
                centers.append((f, node))
    for f, _ in centers:
        fan_order = g.fan_neighbors(f)
        phase = f % 2
        for idx, u in enumerate(fan_order):
            colors.setdefault(edge(f, u), 1 if idx % 2 == phase else 2)
    # Fan path edges take 3; edges reaching into the deepest layer
    # (never touched by any realization path, which all stop a layer
    # higher) alternate 3 with reserve colors, so two consecutive fan
    # path hops stay rainbow down there. Each fan skips the reserve
    # colors its own node's long path uses: a route leaving this fan
    # most likely rides exactly that long path.
    depth = {v: k for k, layer in enumerate(spine.layers) for v in layer}
    deepest = len(spine.layers) - 1
    for f, node in centers:
        long_ = longs.get(node, ())
        burnt = {
            colors.get(edge(long_[i], long_[i + 1]))
            for i in range(len(long_) - 1)
        }
        fresh = [c for c in reserve if c not in burnt]
        fan_order = g.fan_neighbors(f)
        swing = 0
        for i in range(len(fan_order) - 1):
            u, w = fan_order[i], fan_order[i + 1]
            pick = 3
            if (
                fresh
                and max(depth[u], depth[w]) == deepest
                and min(depth[u], depth[w]) >= deepest - 1
            ):
                if swing % 2:
                    pick = fresh[(swing // 2) % len(fresh)]
                swing += 1
            colors.setdefault(edge(u, w), pick)

    for e in g.edges:
        colors.setdefault(e, 3)

    _repair_monochromatic(g, colors)
    repair_rounds = _repair_unconnected(g, colors, rad)
    coloring = EdgeColoring(colors)
    return coloring, _stats(rad, coloring, repair_rounds)
