"""Shared test helpers: independent brute-force oracles.

Everything here is deliberately written from scratch against the plain
Graph interface (neighbor lists only), so the library's own search
code is never trusted to check itself.
"""

from __future__ import annotations

from itertools import product

from moprc import CanonicalMop, Graph


def all_simple_paths(g: Graph, u: int, v: int, max_len: int | None = None):
    """Every simple path u..v as a vertex tuple, by plain DFS."""
    cap = max_len if max_len is not None else g.n - 1
    stack = [(u,)]
    while stack:
        path = stack.pop()
        x = path[-1]
        if x == v:
            yield path
            continue
        if len(path) - 1 >= cap:
            continue
        for w in g.neighbors(x):
            if w not in path:
                stack.append(path + (w,))


def independent_rainbow_ok(g: Graph, colors: dict[tuple[int, int], int]) -> tuple[int, int] | None:
    """First pair with no all-distinct-colors path, or None.

    Exhaustive simple-path enumeration; usable up to n around 10.
    """

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    for u in range(1, g.n):
        for v in range(u + 1, g.n + 1):
            good = False
            for path in all_simple_paths(g, u, v):
                cs = [colors[key(path[i], path[i + 1])] for i in range(len(path) - 1)]
                if len(cs) == len(set(cs)):
                    good = True
                    break
            if not good:
                return (u, v)
    return None


def brute_hamiltonian_cycles(g: Graph) -> set[frozenset[tuple[int, int]]]:
    """All Hamiltonian cycles of g as canonical edge sets.

    Each cycle appears once (rotations and reflections collapse to the
    same edge set). Exponential; for n <= 9 test graphs only.
    """

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    found: set[frozenset[tuple[int, int]]] = set()
    start = 1
    stack = [(start,)]
    while stack:
        path = stack.pop()
        x = path[-1]
        if len(path) == g.n:
            if g.has_edge(x, start):
                found.add(
                    frozenset(
                        {key(path[i], path[i + 1]) for i in range(g.n - 1)}
                        | {key(x, start)}
                    )
                )
            continue
        for w in g.neighbors(x):
            if w not in path:
                stack.append(path + (w,))
    return found


def is_vertex_pair_cut(g: Graph, a: int, b: int) -> bool:
    """Does deleting vertices a and b disconnect g? Plain BFS check."""
    keep = [v for v in g.vertices() if v not in (a, b)]
    if len(keep) <= 1:
        return False
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u in (a, b) or u in seen:
                continue
            seen.add(u)
            stack.append(u)
    return len(seen) != len(keep)


def unlabeled_trees(max_edges: int):
    """One representative per isomorphism class of trees, 1..max_edges edges.

    Labeled trees are enumerated from sequences (each tree on k+1
    vertices corresponds to a parent sequence) and deduplicated by a
    canonical rooted encoding at the tree's center.
    """

    def canon(nv: int, edges: list[tuple[int, int]]) -> str:
        adj: dict[int, list[int]] = {v: [] for v in range(1, nv + 1)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        deg = {v: len(adj[v]) for v in adj}
        removed: set[int] = set()
        layer = [v for v in adj if deg[v] <= 1]
        rem = nv
        while rem > 2:
            nxt = []
            for v in layer:
                removed.add(v)
                rem -= 1
                for u in adj[v]:
                    if u not in removed:
                        deg[u] -= 1
                        if deg[u] == 1:
                            nxt.append(u)
            layer = nxt
        centers = [v for v in adj if v not in removed]

        def enc(v: int, p: int | None) -> str:
            subs = sorted(enc(u, v) for u in adj[v] if u != p)
            return "(" + "".join(subs) + ")"

        return min(enc(c, None) for c in centers)

    seen: dict[str, tuple[int, list[tuple[int, int]]]] = {}
    seen[canon(2, [(1, 2)])] = (2, [(1, 2)])
    for nv in range(3, max_edges + 2):
        # vertex i+2 attaches to any earlier vertex: covers all trees.
        for parents in product(*(range(1, i + 2) for i in range(nv - 1))):
            edges = [(p, i + 2) for i, p in enumerate(parents)]
            k = canon(nv, edges)
            if k not in seen:
                seen[k] = (nv, edges)
    return list(seen.values())


def construction_orders(n: int):
    """Every construction order on n vertices: vertex i in turn goes on
    each exterior edge of the graph built so far."""

    def grow(i, low, high, succ):
        if i > n:
            yield CanonicalMop(n, dict(low), dict(high))
            return
        for a, b in list(succ.items()):
            low[i], high[i] = min(a, b), max(a, b)
            yield from grow(i + 1, low, high, {**succ, a: i, i: b})

    yield from grow(4, {3: 1}, {3: 2}, {1: 2, 2: 3, 3: 1})
