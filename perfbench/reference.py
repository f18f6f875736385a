"""Reference checks for the benchmark, independent of `moprc.verify`.

Everything here reads a graph only through `n`, `edges` and
`neighbors()`, and a coloring only through its `colors` mapping, so a
change to the package's own verifier or metrics can never be the only
judge of its output.
"""

from __future__ import annotations

from collections import deque


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def diameter_radius(g) -> tuple[int, int]:
    """Diameter and radius by one breadth-first search per vertex."""
    eccs = []
    for s in range(1, g.n + 1):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        if len(dist) != g.n:
            raise ValueError("graph is not connected")
        eccs.append(max(dist.values()))
    return max(eccs), min(eccs)


def coloring_problem(g, colors) -> str | None:
    """Why `colors` is not a rainbow-connecting coloring of g, or None.

    Searches states (vertex, set of colors used so far) from every
    source. A state is dropped when the same vertex was already reached
    with a subset of its colors: any walk continuing from it continues
    from the smaller set too. A rainbow walk contains a rainbow path on
    a subset of its edges, so reaching a vertex by any rainbow walk
    proves the pair. The search runs until no new state appears, with no
    bound on walk length.
    """
    if set(colors) != set(g.edges):
        return "coloring does not cover exactly the edges of the graph"
    bit: dict[int, int] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for v in range(1, g.n + 1):
        for u in g.neighbors(v):
            c = colors[_key(u, v)]
            if c not in bit:
                bit[c] = 1 << len(bit)
            adj[v].append((u, bit[c]))
    for s in range(1, g.n):
        unreached = set(range(s + 1, g.n + 1))
        antichain: list[list[int]] = [[] for _ in range(g.n + 1)]
        antichain[s].append(0)
        # Breadth first: short walks come first and carry few colors, so
        # few of the states kept are later dominated.
        layer = [(s, 0)]
        while layer and unreached:
            grown_layer = []
            for v, mask in layer:
                for u, b in adj[v]:
                    if mask & b:
                        continue
                    grown = mask | b
                    known = antichain[u]
                    for old in known:
                        if old & grown == old:
                            break
                    else:
                        known.append(grown)
                        unreached.discard(u)
                        grown_layer.append((u, grown))
            layer = grown_layer
        if unreached:
            return f"no rainbow path between {s} and {min(unreached)}"
    return None
