"""Exact verification oracles for rainbow connectivity.

Everything here is independent of the constructive algorithms: these
routines work on arbitrary graphs and edge colorings, use plain
state-space search, and are meant as ground truth for tests, for the
CLI `verify` / `rc` commands and for the one check of the coloring
(`_rainbow_verdict`).
They never import the spine or coloring code. The exact solvers never
reuse a coloring produced elsewhere in the package; certificates come
out of their own search.

A path is rainbow when its edges carry pairwise distinct colors. A
coloring is rainbow connected when every vertex pair is joined by a
rainbow path, and strongly rainbow connected when every pair is joined
by a rainbow shortest path.

Checking a given coloring is NP-hard in general (Chakraborty, Fischer,
Matsliah and Yuster, 2011), and NP-complete on maximal outerplanar
graphs (Lauri), so `is_rainbow_connected` works in three phases. The
hub is `metrics.central_vertex`: one linear pass over the dual tree of
a `MopGraph`, and ball growth on any other graph. The layer
certificate reads the BFS layers from one central hub vertex, the
levels of one run of `core.breadth_first` (the package's one plain
breadth-first search, which every distance table here comes from), and
proves every pair at once when each layer owns its colors and gives its
vertices exits towards the hub that avoid each other; layered colorings
pass it in linear time, in one pass over the color map on int masks.
Only when it fails are the sorted edges and the per-vertex step tables
of the searches built. Then a single search out of the hub proves most
pairs (the hub certificate); only the pairs it leaves open go to the
exhaustive per-source search, which alone decides the verdict. The
coloring's check, `_rainbow_verdict(g, coloring, layers)`, reads its
hub and levels off the BFS layers the cut spine already holds, so it
runs no BFS, and adds one exhaustive search between the layer
certificate and the hub: a vertex it cannot reach refutes the coloring
at once, and the verdict stays the same. The exact search reads the
diameter off the per-vertex BFS table it builds anyway, and from the
same table each pair's first witness, a shortest path, and each edge's
shortest-path load, the number of pairs with the edge on some shortest
path. It colors the edges by load, highest first, so the edges most
pairs need are colored first and failures show near the root. It
forward checks each pair against a list of its simple paths of at most
k edges (`_short_paths`), where a witness breaks on one int AND, and
explains each failure by one same-colored pair of edges per path, the
conflict its backjumping reads.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from .core import EdgeColoring, Graph, breadth_first, edge
from .errors import DomainError, NotACut, ScaleLimit
from .metrics import central_vertex

_DEFAULT_MAX_N = 200
_DEFAULT_MAX_COLORS = 32
# Masks the hub search keeps per vertex. A full antichain can grow
# exponentially with the palette; a truncated one only leaves more
# pairs to the exhaustive search, so the verdict stays exact. Each
# vertex gets a lane of this many bits. The lanes are built 8 slots at a
# time, so the cap is a multiple of 8, and `_open_pairs` folds a lane
# by halves, so it is also a power of two: 8, 16, 32, 64, ...
_HUB_MASK_CAP = 32
# (shift, mask) of the three delta swaps that transpose the 8x8 bit
# matrix in each 8-byte block (Hacker's Delight, transpose8).
_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a rainbow-connectivity check.

    counterexample is the lexicographically first pair with no
    qualifying rainbow path, or None when the property holds.
    pairs_certified counts the pairs among pairs_checked that a
    certificate proved: all of them when the layer certificate holds,
    else those the hub certificate proved. The rest were searched
    exhaustively.
    """

    ok: bool
    counterexample: tuple[int, int] | None
    pairs_checked: int
    pairs_certified: int = 0


def _steps(g: Graph, edges, labels) -> list[tuple[tuple[int, int], ...]]:
    """Per vertex, its (neighbor, label) steps, in the order of edges.

    Edge edges[i] carries labels[i]: its index for the walk kernel, its
    color bit for the mask kernel. Row 0 stays empty. The checks and
    `rainbow_witness` pass the edges sorted, where every edge (a, x)
    with a < x comes before every edge (x, b), so each row fills in
    ascending neighbor order. `_exact` passes them in its search order,
    by shortest-path load (`_edge_order`), and its rows follow that
    order.
    """
    rows: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for (a, b), label in zip(edges, labels):
        rows[a].append((b, label))
        rows[b].append((a, label))
    return [tuple(row) for row in rows]


def _levels(g: Graph, s: int) -> list[int]:
    """Per vertex, its graph distance from s; sys.maxsize if s cannot reach it."""
    return breadth_first(g.neighbors, g.n, (s,))[0]


def _shortest_steps(g: Graph, steps, level: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """The steps that lead one BFS level further from u, given
    level = `_levels(g, u)`.

    Rows may hold any steps whose first entry is the neighbor. A walk
    from u over the kept steps is a shortest path. Vertices u cannot
    reach keep no steps.
    """
    return [()] + [
        tuple(st for st in steps[x] if level[st[0]] == level[x] + 1) for x in g.vertices()
    ]


def _prepare(g: Graph, coloring: EdgeColoring, max_n: int, max_colors: int) -> dict[int, int]:
    """Check totality and the caps, then map each color to its bit."""
    coloring.check_total(g)
    if g.n > max_n:
        raise ScaleLimit(f"n={g.n} exceeds cap {max_n}; raise max_n to override")
    distinct = sorted(coloring.used)
    if len(distinct) > max_colors:
        raise ScaleLimit(
            f"{len(distinct)} colors exceed cap {max_colors}; raise max_colors to override"
        )
    return {c: 1 << i for i, c in enumerate(distinct)}


def _edge_bits(g: Graph, coloring: EdgeColoring, bit: dict[int, int]):
    """The sorted edges and each one's color bit, for the searches."""
    edges = sorted(g.edges)
    return edges, [bit[coloring.colors[e]] for e in edges]


def _masks(
    adj, source: int, max_len: int, targets=(), cap: int = sys.maxsize
) -> list[list[int]]:
    """Per vertex, minimal color masks of rainbow walks from source.

    adj[x] lists the (neighbor, color bit) steps out of x. States are
    (vertex, color mask); per-vertex mask antichains prune dominated
    states (a superset mask reached no sooner is useless). Walks have
    at most max_len edges. The search stops as soon as every vertex of
    targets holds a mask, and keeps at most cap masks per vertex. The
    cap is tested only when a mask is kept: the dominance test then
    reads a full vertex's list as [0], which dominates every mask.
    """
    best: list[list[int]] = [[] for _ in adj]
    best[source].append(0)
    dom = best[:]  # the lists the dominance test reads
    remaining = set(targets)
    remaining.discard(source)
    frontier: list[tuple[int, int]] = [(source, 0)]
    for _ in range(max_len):
        nxt: list[tuple[int, int]] = []
        for v, mask in frontier:
            for w, b in adj[v]:
                if mask & b:
                    continue
                nm = mask | b
                bw = dom[w]
                for old in bw:
                    if old & nm == old:
                        break
                else:
                    bw.append(nm)
                    nxt.append((w, nm))
                    if len(bw) == cap:
                        dom[w] = [0]
                    if w in remaining:
                        remaining.discard(w)
                        if not remaining:
                            return best
        if not nxt:
            break
        frontier = nxt
    return best


def _rainbow_walk(adj_idx, bits, u: int, v: int, k: int, far) -> list[int] | None:
    """Edge indices of a u..v walk that a partial coloring may make
    rainbow, listed from v back to u, or None.

    adj_idx[x] lists the (neighbor, edge index) steps the walk may take
    from x. bits[i] is the color bit of edge i, or 0 while it is
    unassigned. Unassigned edges act as wildcards (a fresh color each);
    assigned edges consume their color bit. The walk has at most k
    edges and its assigned colors are pairwise distinct; it is the
    first one the search finds. None means that no completion of the
    partial coloring can join v to u. With every edge assigned, the
    walk is a rainbow path: a state that revisits a vertex is dominated.

    far is `_levels(g, v)`: a step to x is dropped when far[x] exceeds the
    edges left after it. The states at x come in order of depth, so once
    one is dropped every later one is too. No kept state is then
    dominated by a dropped one, and the walk found is the one the search
    without the pruning finds.
    """
    best: list[list[int]] = [[] for _ in adj_idx]
    best[u].append(0)
    frontier: list[tuple[int, int, tuple | None]] = [(u, 0, None)]
    for left in range(k - 1, -1, -1):
        nxt = []
        for x, mask, trail in frontier:
            for w, ei in adj_idx[x]:
                if far[w] > left:
                    continue
                b = bits[ei]
                if mask & b:
                    continue
                nm = mask | b
                bw = best[w]
                for old in bw:
                    if old & nm == old:
                        break
                else:
                    if w == v:
                        walk = [ei]
                        while trail is not None:
                            ei_back, trail = trail
                            walk.append(ei_back)
                        return walk
                    bw.append(nm)
                    nxt.append((w, nm, (ei, trail)))
        if not nxt:
            break
        frontier = nxt
    return None


def _short_paths(adj_idx, u: int, v: int, k: int, far) -> list[tuple[int, tuple[int, ...]]]:
    """Every simple u..v path of at most k edges over the steps adj_idx,
    shortest first, as (edge mask, edge indices in ascending order).

    adj_idx and far are as for `_rainbow_walk`: a step to x is dropped
    when far[x] exceeds the edges left after it, which no such path
    takes. Paths of one length come in the order the rows list their
    steps.
    """
    paths = []
    frontier = [(u, 1 << u, 0, ())]
    for left in range(k - 1, -1, -1):
        nxt = []
        for x, seen, mask, idxs in frontier:
            for w, ei in adj_idx[x]:
                if far[w] > left or seen >> w & 1:
                    continue
                if w == v:
                    paths.append((mask | 1 << ei, tuple(sorted(idxs + (ei,)))))
                else:
                    nxt.append((w, seen | 1 << w, mask | 1 << ei, idxs + (ei,)))
        frontier = nxt
    return paths


def _scan(paths, bits):
    """The first of the paths whose assigned colors are pairwise
    distinct, or, when none is, the failure's explanation: an edge mask
    holding each path's first repeat, the least edge index whose color
    a lesser one of the path holds, and that lesser one. bits is as for
    `_rainbow_walk`."""
    why = 0
    for path in paths:
        seen = 0
        idxs = path[1]
        for ei in idxs:
            b = bits[ei]
            if seen & b:
                for first in idxs:
                    if bits[first] == b:
                        break
                why |= 1 << first | 1 << ei
                break
            seen |= b
        else:
            return path
    return why


def _scan_unless_failed(failed: dict[int, int], key: int, paths, bits):
    """`_scan`, or the explanation stored under key in failed.

    key packs the colors of the paths' edges, and failed maps the keys
    of the pair's earlier scans that found no path to their
    explanations.
    """
    why = failed.get(key)
    return _scan(paths, bits) if why is None else why


def _walk_path(edges_sorted, walk: list[int], u: int) -> tuple[int, ...]:
    """The vertices of a walk from u, given its edge indices from the far end."""
    path = [u]
    for ei in reversed(walk):
        a, b = edges_sorted[ei]
        path.append(b if a == path[-1] else a)
    return tuple(path)


def _open_pairs(masks: list[list[int]], n: int, k: int):
    """Yield (u, the v > u the hub certificate leaves open), u = 1..n-1.

    u proves v when some mask of u is disjoint from some mask of v.
    All pairs of a row are tested at once on bitsets: slot i of vertex
    v is bit v * W + i, with W = _HUB_MASK_CAP. clash[b] marks the
    slots whose mask holds color bit b, and pad every unused slot. For
    a mask a of u, pad ORed with clash[b] over the bits b of a marks the
    slots that do not prove a pair with a; v stays open exactly when,
    ANDed over all masks of u, its lane is still full.

    The clash lanes come from one bit-matrix transpose. For each chunk
    of 8 colors, byte v * W + i of a buffer holds that chunk's bits of
    slot i of v. Each 8-byte block (8 slots of one vertex) is an 8x8
    bit matrix, transposed in place by the three delta swaps of Hacker's
    Delight's transpose8; afterwards every 8th byte of the chunk, from
    byte j, is the clash lane of the chunk's color j.

    Row u starts from the lanes of v > u only and ANDs in every mask of
    u, then folds each lane once to read off the pairs left open.
    """
    w = _HUB_MASK_CAP
    full = (1 << w) - 1
    size = w * (n + 1)  # slots, and bytes per chunk
    width = (k + 7) // 8  # chunks, and bytes per mask
    slots = b"".join(
        b"".join(m.to_bytes(width, "little") for m in ms) + bytes(width * (w - len(ms)))
        for ms in masks
    )
    # Chunk by chunk, one byte per slot: byte c of every slot.
    grid = int.from_bytes(b"".join(slots[c::width] for c in range(width)), "little")
    block_bit = ((1 << 8 * width * size) - 1) // ((1 << 64) - 1)  # bit 0 of every block
    for shift, swap in _TRANSPOSE8:
        t = (grid ^ grid >> shift) & swap * block_bit
        grid ^= t ^ t << shift
    lanes = grid.to_bytes(width * size, "little")
    pad = int.from_bytes(
        b"".join((full >> len(ms) << len(ms)).to_bytes(w // 8, "little") for ms in masks),
        "little",
    )
    clash = {
        1 << b: int.from_bytes(lanes[b // 8 * size + b % 8 : (b // 8 + 1) * size : 8], "little")
        for b in range(k)
    }
    every = (1 << (w * (n + 1))) - 1
    lane_bit = every // full  # bit 0 of every lane

    for u in range(1, n):
        low_lanes = w * (u + 1)
        shut = every >> low_lanes << low_lanes
        for a in masks[u]:
            blocked = pad
            while a:
                low = a & -a
                blocked |= clash[low]
                a ^= low
            shut &= blocked
        # Fold each lane onto its bit 0, which then tells whether every
        # slot of the lane is shut.
        shift = w // 2
        while shift:
            shut &= shut >> shift
            shift //= 2
        rest = (shut & lane_bit) >> low_lanes
        left = []
        while rest:
            low = rest & -rest
            left.append(u + 1 + (low.bit_length() - 1) // w)
            rest ^= low
        yield u, left


def _layer_certificate(colors, bit: dict[int, int], level: list[int]) -> bool:
    """Whether the BFS layers from the hub prove every pair at once.

    colors maps each edge of a connected graph to its color, bit maps
    each color to its bit, and level is `_levels(g, hub)`. Layer k >= 1
    owns the colors of its inner edges and of its spokes to layer k - 1.
    An exit of a vertex of layer k is a spoke, or an inner edge followed
    by the neighbor's spoke in another color. Three facts prove every
    pair: no two layers share a color, every vertex below the hub has an
    exit (its BFS parent gives it a spoke, so the hub must reach it),
    and any two vertices of one layer have exits with disjoint colors.
    For a pair u, v with v no deeper than u, u walks down alone, one
    layer per exit, to v's layer; then both walk down on exits with
    disjoint colors until the walks meet, at the hub at the latest. Each
    layer's exits spend its own colors only, so the walks join into a
    rainbow walk, which contains a rainbow path.

    One pass over the edges, each once, builds every layer's palette
    mask, every vertex's spoke mask and its inner steps; a running OR
    finds a color two layers share. Each vertex's minimal exit masks,
    read off the masks bit by bit, form its group key. Two groups of a
    layer pass when some mask of one is disjoint from some mask of the
    other, and a group of two or more vertices is also tested against
    itself. A coloring whose layers hold a few groups each, as
    `_layered`'s do, costs O(m).
    """
    depth = max(level[1:])
    if depth == sys.maxsize:
        return False
    palette = [0] * (depth + 1)  # per layer, the color bits it owns
    down = [0] * len(level)  # per vertex, its spoke colors to the layer above
    inner: list[list[tuple[int, int]]] = [[] for _ in level]  # (neighbor, color bit)
    for (x, y), c in colors.items():
        c = bit[c]
        k = level[x]
        if level[y] == k:
            inner[x].append((y, c))
            inner[y].append((x, c))
        else:
            if level[y] > k:
                x, k = y, level[y]
            down[x] |= c
        palette[k] |= c
    owned = 0
    for p in palette:
        if owned & p:
            return False
        owned |= p
    groups: list[dict[frozenset[int], int]] = [{} for _ in palette]
    for x in range(1, len(level)):
        spokes = rest = down[x]
        exits = []
        while rest:
            low = rest & -rest
            exits.append(low)
            rest ^= low
        # A two-step exit that holds one of x's spoke colors is not minimal.
        for y, c in inner[x]:
            if not c & spokes:
                rest = down[y] & ~(spokes | c)
                while rest:
                    low = rest & -rest
                    exits.append(c | low)
                    rest ^= low
        key = frozenset(exits)
        layer = groups[level[x]]
        layer[key] = layer.get(key, 0) + 1
    for layer in groups:
        keys = list(layer)
        for i, a in enumerate(keys):
            for b in keys[i if layer[a] > 1 else i + 1 :]:
                if all(x & y for x in a for y in b):
                    return False
    return True


def is_rainbow_connected(
    g: Graph,
    coloring: EdgeColoring,
    *,
    max_n: int = _DEFAULT_MAX_N,
    max_colors: int = _DEFAULT_MAX_COLORS,
) -> VerifyResult:
    """Exactly check that every pair has a rainbow path.

    The coloring must color exactly the edges of g (else DomainError),
    then n and the number of colors must be within max_n and max_colors
    (else ScaleLimit, the n cap first). Only then is the hub found.

    Phase 0, the layer certificate: when the BFS layers from the hub
    (the vertex of least eccentricity, then degree, then label) own
    disjoint palettes, and any two vertices of a layer have exits
    towards the hub in disjoint colors (`_layer_certificate`), every
    pair is proven at once. It reads the color map directly, in one
    pass, with the hub's levels from one run of `core.breadth_first`;
    the coloring's layered fallback (`coloring._layered`) always
    passes it. When it fails, the step tables are built and phases 1
    and 2 decide as if it had not run.

    Phase 1, the hub certificate: one rainbow search from the hub
    keeps, per vertex, minimal color masks of rainbow walks from it. A
    pair (u, v) is proven when some mask of u is disjoint from some mask
    of v: the walk u -> hub -> v then repeats no color, and every walk
    contains a u..v path on a subset of its edges, which is rainbow.
    Each row u tests its pairs (u, v > u) together, against every mask
    of u.

    Phase 2, the fallback: for each u in ascending order, the pairs
    (u, v) left unproven go to the exhaustive search from u. A proven
    pair never fails, so the first counterexample and pairs_checked
    are those of a plain search over all pairs in lexicographic order.
    """
    bit = _prepare(g, coloring, max_n, max_colors)
    # The hub is found after the caps are checked, so an input over a
    # cap is refused before any eccentricity is computed.
    hub = central_vertex(g)
    if _layer_certificate(coloring.colors, bit, _levels(g, hub)):
        pairs = g.n * (g.n - 1) // 2
        return VerifyResult(True, None, pairs, pairs)
    return _searched(g, _steps(g, *_edge_bits(g, coloring, bit)), len(bit), hub)


def _searched(g: Graph, adj, k: int, hub: int) -> VerifyResult:
    """Phases 1 and 2 of `is_rainbow_connected`, from the hub."""
    n = g.n
    max_len = min(n - 1, k)
    masks = _masks(adj, hub, max_len, cap=_HUB_MASK_CAP)
    pairs = certified = 0
    for u, left in _open_pairs(masks, n, k):
        pairs += n - u
        certified += n - u - len(left)
        if not left:
            continue
        best = _masks(adj, u, max_len, targets=left)
        missed = [v for v in left if not best[v]]
        if missed:
            return VerifyResult(False, (u, missed[0]), pairs, certified)
    return VerifyResult(True, None, pairs, certified)


def _rainbow_verdict(g: Graph, coloring: EdgeColoring, layers) -> bool:
    """`is_rainbow_connected(g, coloring, max_n=g.n, max_colors=k).ok` for
    the coloring's own color count k, with one refutation search before
    phases 1 and 2.

    layers are the BFS layers of a connected g from one hub vertex, as
    `metrics.layers` returns them; `rainbow_coloring` passes the cut
    spine's. The hub is layers[0][0] and the levels are read off the
    layers, so the check runs no BFS. After the layer certificate fails,
    one exhaustive search runs from the probe layers[-1][0], the
    least-label vertex of the deepest layer: `_masks` with no cap,
    stopping once every vertex holds a mask. A vertex left with no mask
    has no rainbow walk from the probe, of any length up to
    min(n - 1, k), so no rainbow path, and `is_rainbow_connected`
    rejects the coloring too. When every vertex holds one, phases 1 and
    2 decide as they do there. So the verdict is the same either way,
    from any hub; a refuted coloring costs one search. How
    many staged colorings it refutes is pinned, not tallied here:
    `(3576, 3329, 72)` in `test_verdict_matches_the_checker_on_staged_colorings`
    (colorings checked, passed, refuted by the probe alone).
    """
    bit = _prepare(g, coloring, g.n, len(coloring.used))
    level = [sys.maxsize] * (g.n + 1)
    for d, layer in enumerate(layers):
        for v in layer:
            level[v] = d
    if _layer_certificate(coloring.colors, bit, level):
        return True
    adj, k = _steps(g, *_edge_bits(g, coloring, bit)), len(bit)
    reach = _masks(adj, layers[-1][0], min(g.n - 1, k), targets=g.vertices())
    if not all(reach[1:]):
        return False
    return _searched(g, adj, k, layers[0][0]).ok


def is_strong_rainbow_connected(
    g: Graph,
    coloring: EdgeColoring,
    *,
    max_n: int = _DEFAULT_MAX_N,
    max_colors: int = _DEFAULT_MAX_COLORS,
) -> VerifyResult:
    """Exhaustively check that every pair has a rainbow shortest path."""
    adj = _steps(g, *_edge_bits(g, coloring, _prepare(g, coloring, max_n, max_colors)))
    pairs = 0
    for u in range(1, g.n):
        targets = range(u + 1, g.n + 1)
        pairs += g.n - u
        best = _masks(_shortest_steps(g, adj, _levels(g, u)), u, g.n - 1, targets=targets)
        missed = [v for v in targets if not best[v]]
        if missed:
            return VerifyResult(False, (u, missed[0]), pairs)
    return VerifyResult(True, None, pairs)


def rainbow_witness(
    g: Graph,
    coloring: EdgeColoring,
    u: int,
    v: int,
    *,
    strong: bool = False,
    max_n: int = _DEFAULT_MAX_N,
    max_colors: int = _DEFAULT_MAX_COLORS,
) -> tuple[int, ...] | None:
    """An actual rainbow path u..v (shortest when strong), or None."""
    if not (1 <= u <= g.n and 1 <= v <= g.n) or u == v:
        raise DomainError(f"need two distinct vertices in 1..{g.n}")
    bit = _prepare(g, coloring, max_n, max_colors)
    edges, bits = _edge_bits(g, coloring, bit)
    steps = _steps(g, edges, range(len(edges)))
    if strong:
        steps = _shortest_steps(g, steps, _levels(g, u))
    walk = _rainbow_walk(steps, bits, u, v, min(g.n - 1, len(bit)), _levels(g, v))
    return None if walk is None else _walk_path(edges, walk, u)


@dataclass(frozen=True)
class ExactResult:
    """Minimum number of colors plus a certificate coloring.

    infeasible_below (value - 1): every smaller palette size is
    impossible, by the diameter lower bound together with the exhausted
    sizes listed in ruled_out (the sizes the search actually tried and
    refuted). nodes: the search-tree nodes visited for each palette size
    tried, in the order ruled_out + (value,); backjumping skips the
    subtrees a failure's conflict (one same-colored pair of edges on
    each short path of a pair) shows hold no valid leaf, so a node
    count depends on the explanations and the jumps as well as on the
    prunes. The edges are colored in order of shortest-path load, so
    node counts and the certificate, the first valid coloring in that
    order, change with the order; value and ruled_out do not. seconds:
    the wall time of each of those sizes, in the same order; it takes
    no part in equality.
    """

    value: int
    certificate: EdgeColoring
    ruled_out: tuple[int, ...]
    nodes: tuple[int, ...]
    seconds: tuple[float, ...] = field(compare=False)

    @property
    def infeasible_below(self) -> int:
        return self.value - 1


def _check_deadline(deadline) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise ScaleLimit("exact search timed out")


def _search_k(
    edges, steps, far, pairs, firsts, k: int, deadline
) -> tuple[EdgeColoring | None, int]:
    """Find any valid k-coloring, or prove there is none.

    edges, steps (per source vertex, the (neighbor, edge index) steps
    its paths may take, edge i being edges[i]), far (`_levels` per
    vertex), pairs and firsts (each pair's first witness) are built once
    per graph by `_exact`; only the path lists below depend on k.

    DFS that colors edges[0], edges[1], ... in turn, with the
    restricted-growth rule: color i may be used only if some earlier
    edge used color i-1, which kills color-permutation symmetry.
    `_exact` orders the edges by shortest-path load, highest first
    (`_edge_order`). This is fail first: the edges most pairs need are
    colored first, so witnesses break and conflicts show near the root.
    Nothing below depends on which fixed order it is. Edge indices are
    positions in it, "earlier" and "< i" mean before edge i in it, the
    forward check reads only the partial coloring, and the
    restricted-growth swap below uses only that the edges before i use
    no color above t - 1. So completeness and the backjumping proof
    hold in any order, and value and ruled_out are those of any other
    order; the certificate and the node counts are this order's.

    Forward checking against the wildcard relaxation of `_rainbow_walk`,
    unassigned edges acting as fresh colors: a pair (u, v) passes while
    some u..v path of at most k edges over the rows steps[u] has
    pairwise distinct assigned colors. Its simple such paths are listed
    by `_short_paths`, and the relaxation holds exactly when one of
    them passes. A path is a walk. A walk of at most k edges whose
    assigned colors are distinct contains a simple u..v path on a
    subset of its edges (cut out each closed sub-walk), no longer, over
    the same rows; it takes no assigned edge twice, since that would
    repeat a color, so the path's assigned colors are distinct too.

    Every pair holds a witness, one passing path, as (edge mask, edge
    indices). The first ones are firsts, from `_tree_path`: shortest
    paths, each step one level closer to u, so each is listed, since k
    is at least the diameter and, for exact_src, steps[u] holds every
    step one level further from u. With every edge a wildcard they
    pass at any k, so one list serves every palette size. users[i]
    lists the pairs whose witness uses edge i. Giving edge i color c
    breaks exactly the witnesses that use i and an earlier edge of
    color c: one AND of the witness's mask with holding[c], the edges
    before i in color c. A pair whose witness breaks scans its list
    (`_scan`) for the first passing path, and the node is pruned when
    there is none. So a node is pruned exactly when the relaxation
    fails for some pair, whichever pair is checked first, and at a
    leaf every pair holds a rainbow path. Clearing an edge on backtrack
    only turns it back into a wildcard, which breaks no witness, so
    nothing is undone.

    A pair's list grows by length as scans need it: at its first break
    it holds the shortest paths, and it is rebuilt one edge longer each
    time all its paths fail, up to k. Under any bound the paths of at
    most j edges come in the same order, since a step the lower bound
    drops leads to no path of at most j edges. So a scan finds the path
    a scan of the full list finds, and the list is full before the
    pair's first failure.

    A failed scan explains itself by each listed path's first repeat,
    two of its edges in one color. No coloring that agrees with the
    current one on these edges is valid. Each listed path repeats a
    color in it, and every rainbow u..v path of a k-coloring is listed:
    it is simple, it has at most k edges because it has at most k
    colors, and for exact_src, where steps[u] holds the shortest-path
    steps, a rainbow shortest path takes only those. The explanation
    holds i, since the broken witness is listed and its edges other
    than i had distinct colors, so its repeat includes i; its other
    edges are assigned, so they are < i. An edge (a, b) on a u..v path
    of at most k edges has d(u, a) + d(b, v) < k either way round. So
    the explanation is a subset of i and the edges < i of the pair's
    distance region, the edges with that property, which is the
    explanation a walk search that reads the whole region gives: a
    failure at the same pair jumps at least as far.

    The scan reads only the colors of the pair's region, the union of
    its path masks. state packs the partial coloring, edge i's color (0
    for a wildcard) in field i; a failed scan stores its explanation
    under state masked to the region, and a later state with the same
    masked value gets it back without a scan. It is the scan's own
    answer, so pruning, witnesses and explanations are those of the
    search without the memo. Its edges carry the colors they had, so
    it still holds i: without i it would have broken the witness
    before i was colored.

    Conflict-directed backjumping (Prosser 1993): a node at edge i
    that finds no valid leaf returns a conflict, a bitmask over edges
    < i, such that no k-coloring at all (restricted-growth or not) that
    agrees with the current one on the conflict's edges is valid. The
    rules:

    - color c of i fails the forward check at some pair: its
      explanation is the failed scan's, as above;
    - a child returns a conflict without i: it holds whatever color i
      takes, so the node returns it at once and skips i's other colors.
      Each ancestor whose edge it lacks does the same, so the search
      resumes at the deepest edge in it;
    - else, after every color of i fails, the node returns the union of
      the colors' explanations and the children's conflicts, minus i.
      A valid coloring that agrees on the union and gives i a tried
      color agrees with that color's explanation or conflict.

    The restricted-growth rule may cut i's domain short, to the colors
    1..t with t = max_used + 1 < k, and the conflict needs no edge for
    that. A valid coloring that agrees on the union and gives i an
    untried color c > t stays valid when colors c and t swap. The
    current coloring uses no color above t - 1 on edges < i, so the
    swap leaves the union's edges as they are and gives i the tried
    color t, which is ruled out as above.

    No subtree the conflicts skip holds a valid leaf, since each of its
    leaves agrees with the current coloring on the conflict. Pruning
    depends only on the partial coloring, not on the witnesses, so
    the first valid leaf in DFS order, and the certificate, are those
    of the chronological search, and the nodes visited are a subset of
    its nodes.
    Returns the coloring (or None) and the number of DFS nodes.
    """
    _check_deadline(deadline)
    m = len(edges)
    bits = [0] * m
    witnesses = list(firsts)
    users: list[set[int]] = [set() for _ in range(m)]
    for p, (_, idxs) in enumerate(witnesses):
        for ei in idxs:
            users[ei].add(p)
    holding = [0] * (k + 1)
    width = k.bit_length()
    full = (1 << width) - 1
    state = 0
    # Per pair: the paths listed so far, the length they reach, the
    # region's fields of state from its first failure on (0 before), and
    # the failed scans by region key.
    paths: list = [()] * len(pairs)
    lengths = [far[u][v] - 1 for u, v in pairs]
    fields = [0] * len(pairs)
    failed: list[dict[int, int]] = [{} for _ in pairs]
    ticks = 0

    def conflict(idx: int, same: int) -> int | None:
        """None when every pair keeps a witness once edge idx joins the
        edges same of its color, else a failed scan's explanation."""
        for p in list(users[idx]):
            old = witnesses[p]
            if not old[0] & same:
                continue
            listed = paths[p]
            if fields[p]:
                key = state & fields[p]
                found = _scan_unless_failed(failed[p], key, listed, bits)
            else:
                # Until the pair's first failure, the list lengthens only
                # while its paths all fail.
                found = _scan(listed, bits)
                u, v = pairs[p]
                while isinstance(found, int) and lengths[p] < k:
                    lengths[p] += 1
                    longer = paths[p] = _short_paths(steps[u], u, v, lengths[p], far[v])
                    more = _scan(longer[len(listed) :], bits)
                    found = found | more if isinstance(more, int) else more
                    listed = longer
                if isinstance(found, int):
                    region = 0
                    for mask, _ in listed:
                        region |= mask
                    fields[p] = sum(full << i * width for i in range(m) if region >> i & 1)
                    key = state & fields[p]
            if isinstance(found, int):
                failed[p][key] = found
                return found
            for ei in old[1]:
                users[ei].discard(p)
            for ei in found[1]:
                users[ei].add(p)
            witnesses[p] = found
        return None

    def dfs(idx: int, max_used: int) -> int | None:
        """None at a valid leaf (the coloring stays in bits), else the
        conflict of this node."""
        nonlocal ticks, state
        ticks += 1
        if ticks % 256 == 0:
            _check_deadline(deadline)
        if idx == m:
            return None
        shift = idx * width
        here = 1 << idx
        union = 0
        for c in range(1, min(max_used + 1, k) + 1):
            bits[idx] = 1 << c
            state ^= c << shift
            failure = conflict(idx, holding[c])
            if failure is None:
                holding[c] |= here
                failure = dfs(idx + 1, max(max_used, c))
                if failure is None:
                    return None
                holding[c] ^= here
            bits[idx] = 0
            state ^= c << shift
            if not failure & here:
                return failure
            union |= failure
        return union & ~here

    if dfs(0, 0) is None:
        colors = {e: bits[i].bit_length() - 1 for i, e in enumerate(edges)}
        return EdgeColoring(colors), ticks
    return None, ticks


def _edge_loads(g: Graph, far) -> dict[tuple[int, int], int]:
    """Per edge of a connected g, its shortest-path load: the vertex
    pairs {u, v} that have it on some shortest u..v path. far is
    `_levels` per vertex.

    Per source u, below[x] is the bitset of the vertices v with x on a
    shortest u..v path, built from the deepest level up. An edge (x, y)
    with y one level deeper lies on a shortest u..v path exactly when v
    is in below[y], and each pair is counted from its lesser end, so
    only v > u count. O(n m) in all, on the table the search builds
    anyway.
    """
    load = dict.fromkeys(g.edges, 0)
    for u in g.vertices():
        level = far[u]
        below = [0] * (g.n + 1)
        for x in sorted(g.vertices(), key=level.__getitem__, reverse=True):
            reach = 1 << x
            for y in g.neighbors(x):
                if level[y] == level[x] + 1:
                    reach |= below[y]
                    load[edge(x, y)] += (below[y] >> u + 1).bit_count()
            below[x] = reach
    return load


def _edge_order(g: Graph, far) -> list[tuple[int, int]]:
    """The order `_search_k` colors the edges in: by `_edge_loads`,
    highest first, ties by label."""
    load = _edge_loads(g, far)
    return sorted(load, key=lambda e: (-load[e], e))


def _tree_path(adj_idx, level: list[int], v: int) -> tuple[int, list[int]]:
    """A shortest path to v from the source of level (`_levels` of it),
    as (edge mask, edge indices from v back): each step goes to the
    first neighbor of adj_idx's row one level closer."""
    mask, idxs = 0, []
    while level[v]:
        closer = level[v] - 1
        for w, ei in adj_idx[v]:
            if level[w] == closer:
                break
        v = w
        mask |= 1 << ei
        idxs.append(ei)
    return mask, idxs


def _exact(g: Graph, strong: bool, max_edges: int, max_n: int, timeout_s) -> ExactResult:
    if g.n < 2:
        raise DomainError("need at least two vertices")
    if g.n > max_n or g.m > max_edges:
        raise ScaleLimit(
            f"exact search capped at n<={max_n}, m<={max_edges}; got n={g.n}, m={g.m}"
        )
    far = [[]] + [_levels(g, v) for v in g.vertices()]
    diameter = max(max(row[1:]) for row in far[1:])
    if diameter == sys.maxsize:
        raise DomainError("graph is not connected")
    deadline = time.monotonic() + timeout_s if timeout_s is not None else None
    edges = _edge_order(g, far)
    # The steps a walk from each source may take: every edge, or for the
    # strong check only the shortest-path steps.
    adj_idx = _steps(g, edges, range(g.m))
    steps = [adj_idx] * (g.n + 1)
    if strong:
        for u in g.vertices():
            steps[u] = _shortest_steps(g, adj_idx, far[u])
    pairs = [(u, v) for u in range(1, g.n) for v in range(u + 1, g.n + 1)]
    firsts = [_tree_path(adj_idx, far[u], v) for u, v in pairs]
    ruled: list[int] = []
    nodes: list[int] = []
    seconds: list[float] = []
    for k in range(diameter, g.m + 1):
        t0 = time.perf_counter()
        cert, visited = _search_k(edges, steps, far, pairs, firsts, k, deadline)
        seconds.append(time.perf_counter() - t0)
        nodes.append(visited)
        if cert is not None:
            return ExactResult(k, cert, tuple(ruled), tuple(nodes), tuple(seconds))
        ruled.append(k)
    raise AssertionError("all-distinct coloring must be feasible")


def exact_rc(
    g: Graph,
    *,
    max_edges: int = 25,
    max_n: int = 40,
    timeout_s: float | None = None,
) -> ExactResult:
    """Minimum colors for rainbow connectivity, by exhaustive search.

    Palette sizes are tried in ascending order from the diameter (no
    coloring below the diameter can work, since some pair needs that
    many edges on any joining path). Single-threaded and deliberately
    independent of the constructive coloring algorithms.
    """
    return _exact(g, False, max_edges, max_n, timeout_s)


def exact_src(
    g: Graph,
    *,
    max_edges: int = 25,
    max_n: int = 40,
    timeout_s: float | None = None,
) -> ExactResult:
    """Minimum colors for strong rainbow connectivity, exhaustively."""
    return _exact(g, True, max_edges, max_n, timeout_s)


def _components_without(g: Graph, removed: frozenset[tuple[int, int]]) -> dict[int, int]:
    """Component label per vertex after deleting the given edges."""

    def kept(v: int) -> list[int]:
        return [u for u in g.neighbors(v) if edge(u, v) not in removed]

    comp: dict[int, int] = {}
    label = 0
    for s in g.vertices():
        if s in comp:
            continue
        label += 1
        comp.update(dict.fromkeys(breadth_first(kept, g.n, (s,))[1], label))
    return comp


def enumerate_small_edge_cuts(
    g: Graph, *, max_size: int = 3, max_n: int = 60
) -> tuple[frozenset[tuple[int, int]], ...]:
    """All minimal edge cuts with at most max_size edges.

    Brute force over edge subsets in increasing size; a candidate that
    contains an already-found cut is not minimal and is dropped.
    """
    if g.n > max_n:
        raise ScaleLimit(f"n={g.n} exceeds cap {max_n}")
    if max_size < 1:
        raise DomainError("max_size must be at least 1")
    from itertools import combinations

    found: list[frozenset[tuple[int, int]]] = []
    all_edges = sorted(g.edges)
    for size in range(1, max_size + 1):
        for combo in combinations(all_edges, size):
            cand = frozenset(combo)
            if any(prev < cand for prev in found):
                continue
            comp = _components_without(g, cand)
            if len(set(comp.values())) > 1:
                found.append(cand)
    return tuple(sorted(found, key=sorted))


def disjoint_cut_property(
    g: Graph,
    coloring: EdgeColoring,
    s1: frozenset[tuple[int, int]],
    s2: frozenset[tuple[int, int]],
) -> bool:
    """Check the two-cut color condition for a rainbow-connected coloring.

    For disjoint edge cuts s1, s2 that both separate some common vertex
    pair, any joining path crosses both cuts, so a rainbow-connected
    coloring must put at least two colors on s1 union s2. Returns True
    when the condition holds (vacuously if no pair is split by both).
    Raises NotACut when either set fails to disconnect the graph.
    """
    coloring.check_total(g)
    s1 = frozenset(edge(u, v) for u, v in s1)
    s2 = frozenset(edge(u, v) for u, v in s2)
    for s in (s1, s2):
        bad = s - g.edges
        if bad:
            raise DomainError(f"not edges of the graph: {sorted(bad)}")
    if s1 & s2:
        raise DomainError("cuts must be edge-disjoint")
    comps = []
    for s in (s1, s2):
        comp = _components_without(g, s)
        if len(set(comp.values())) < 2:
            raise NotACut(f"removing {sorted(s)} leaves the graph connected")
        comps.append(comp)
    c1, c2 = comps
    crossing = any(
        c1[u] != c1[v] and c2[u] != c2[v]
        for u in g.vertices()
        for v in range(u + 1, g.n + 1)
    )
    if not crossing:
        return True
    seen = {coloring.colors[e] for e in (s1 | s2)}
    return len(seen) >= 2
