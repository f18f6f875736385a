"""Color a random MOP, verify it exactly, and show a witness path.

The constructive coloring guarantees at most 3 * radius colors; the
verifier proves every vertex pair has an all-distinct-colors path,
by a certificate where one applies (the layered fallback's BFS layers,
or one search from a hub vertex) and by exhaustive search for the rest;
the witness call exhibits one such path. On a small graph the
exact search then shows how close the construction lands to the true
optimum.

Run:  python3 demos/04_color_and_verify.py
"""

from moprc import (
    bfs,
    ecc_diam_rad_center,
    exact_rc,
    is_rainbow_connected,
    rainbow_coloring,
    rainbow_witness,
    random_mop_graph,
)

g = random_mop_graph(40, 2024)
coloring, stats = rainbow_coloring(g)
summary = ecc_diam_rad_center(g)

print(f"graph: {g!r}, diameter {summary.diameter}, radius {summary.radius}")
print(f"colors used: {stats.colors_used} (guaranteed bound {stats.bound})")

result = is_rainbow_connected(g, coloring)
print(f"exact check over {result.pairs_checked} pairs: ok={result.ok}")
print(
    f"  {result.pairs_certified} certified, "
    f"{result.pairs_checked - result.pairs_certified} searched exhaustively"
)

# Pick the two most distant vertices and show an actual rainbow path.
far_u = max(g.vertices(), key=lambda v: summary.ecc[v])
dist = bfs(g, far_u).dist
far_v = max(dist, key=dist.get)
path = rainbow_witness(g, coloring, far_u, far_v)
print(f"witness for the distant pair ({far_u}, {far_v}), distance {dist[far_v]}:")
print(f"  path  {path}")
print(f"  colors {[coloring.color(path[i], path[i + 1]) for i in range(len(path) - 1)]}")

# On a small instance, compare against the exact optimum.
small = random_mop_graph(12, 5)
small_coloring, small_stats = rainbow_coloring(small)
exact = exact_rc(small)
print()
print(
    f"small instance {small!r}: constructed {small_stats.colors_used}, "
    f"exact optimum {exact.value} (palettes of {exact.infeasible_below} "
    f"or fewer colors are impossible)"
)
