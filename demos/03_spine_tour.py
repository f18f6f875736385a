"""Walk the central cut spine of a mid-size random MOP.

The spine is a rooted tree over the graph's distance layers: the root
is a most-central vertex, and every other node is green, a chord
inside one distance layer whose endpoints form a 2-vertex cut and both
reach the next layer out. Each green node hangs off a node one layer
closer to the root that is adjacent to both its endpoints. Each node
"realizes" back into the graph as two edge-disjoint paths from the
root, which is what the staged coloring later exploits. A node may
have no long path within 2 * radius - 2 edges; the coloring then takes
its layered form instead.

Run:  python3 demos/03_spine_tour.py
"""

from moprc import build_ccs, random_mop_graph, realize_paths, spine_to_dot

g = random_mop_graph(24, 7)
spine = build_ccs(g)

print(f"graph: {g!r}, radius {spine.radius}, root vertex {spine.root_vertex}")
print("distance layers from the root:")
for depth, band in enumerate(spine.layers):
    print(f"  {depth}: {band}")

print("spine tree:")


def show(node, depth):
    inner = ",".join(str(v) for v in node.realization)
    print("  " * (depth + 1) + f"{node.kind}({inner}) at level {node.level}")
    for child in spine.children(node):
        show(child, depth + 1)


show(spine.root, 0)

print("leaf realizations (short / long root paths, edge-disjoint):")
for leaf in spine.leaves():
    short, long_ = realize_paths(g, spine, leaf)
    print(f"  {leaf.kind}{leaf.realization}: {short} / {long_ or 'no long path fits'}")

print()
print("DOT rendering (pipe into `dot -Tpng` if graphviz is installed):")
print(spine_to_dot(spine))
