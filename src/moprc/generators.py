"""Constructors for MOP families and seed-reproducible random MOPs.

The named families come with hand-designed edge colorings whose
distinct-color counts are tight for rainbow connectivity, so each
instance doubles as an upper-bound certificate:

* `fan(n)`: a path on n vertices plus a hub adjacent to all of them.
* `lad(d)`: a zigzag strip of 2d-2 triangles on 2d vertices; the MOP
  of maximum diameter (exactly d) for its vertex count.
* `lad_plus(d)`: lad(d) with one extra ear on the far end, giving a
  second diametral pair.

`random_mop` grows a MOP by repeatedly gluing a triangle onto a
uniformly chosen exterior edge, with a vendored fixed PRNG so a seed
reproduces the same graph on any platform or Python version.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ._rng import SplitMix64
from .core import CanonicalMop, EdgeColoring, MopGraph, edge, from_canonical
from .errors import DomainError


@dataclass(frozen=True)
class FamilyInstance:
    """A family graph together with its designed coloring.

    claimed_rc (and claimed_src where the design guarantees shortest
    rainbow paths, else None) state the family's known connection
    numbers; the coloring itself is the matching upper-bound witness.
    """

    graph: MopGraph
    coloring: EdgeColoring
    family_tag: str
    claimed_rc: int
    claimed_src: int | None

    @property
    def colors_used(self) -> int:
        return len(self.coloring.used)


def fan_coloring(path: tuple[int, ...], hub: int) -> dict[tuple[int, int], int]:
    """Color a fan given its path order and hub label.

    Uses 1 color for a single triangle, 2 colors while the path has at
    most 6 vertices (split the spokes half-and-half, alternate along
    the path), and 3 colors beyond that (spokes by path parity, every
    path edge in the third color). Each count is also the fan's
    rainbow connection number.
    """
    m = len(path)
    if m < 2:
        raise DomainError("fan path needs at least 2 vertices")
    colors: dict[tuple[int, int], int] = {}
    if m == 2:
        spoke = {1: 1, 2: 1}
        path_color = [1]
    elif m <= 6:
        half = ceil(m / 2)
        spoke = {j: 1 if j <= half else 2 for j in range(1, m + 1)}
        path_color = [1 if i % 2 == 1 else 2 for i in range(1, m)]
    else:
        spoke = {j: 1 if j % 2 == 1 else 2 for j in range(1, m + 1)}
        path_color = [3] * (m - 1)
    for j, v in enumerate(path, start=1):
        colors[edge(v, hub)] = spoke[j]
    for i in range(m - 1):
        colors[edge(path[i], path[i + 1])] = path_color[i]
    return colors


def fan(n: int) -> FamilyInstance:
    """Fan on n path vertices 1..n plus hub n+1.

    The rainbow connection number is 1 for the single triangle, 2 up
    to a 6-vertex path, and 3 from 7 path vertices on; the attached
    coloring uses exactly that many colors.
    """
    if n < 2:
        raise DomainError(f"fan needs a path of at least 2 vertices, got {n}")
    hub = n + 1
    edges = [(i, i + 1) for i in range(1, n)]
    edges += [(i, hub) for i in range(1, hub)]
    g = MopGraph(hub, edges, tuple(range(1, hub + 1)))
    rc = 1 if n == 2 else (2 if n <= 6 else 3)
    return FamilyInstance(
        g, EdgeColoring(fan_coloring(tuple(range(1, hub)), hub)), "fan", rc, None
    )


def _lad_canonical(d: int) -> CanonicalMop:
    low = {j: j - 2 for j in range(4, 2 * d + 1)}
    high = {j: j - 1 for j in range(4, 2 * d + 1)}
    low[3], high[3] = 1, 2
    return CanonicalMop(2 * d, low, high)


def _lad_colors(d: int) -> dict[tuple[int, int], int]:
    colors = {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    for j in range(4, 2 * d + 1):
        colors[(j - 2, j)] = j // 2
        colors[(j - 1, j)] = j // 2
    return colors


def lad(d: int) -> FamilyInstance:
    """Zigzag strip on 2d vertices: vertex j sits on the ear (j-2, j-1).

    Vertices 2k and 2k+1 lie at distance k from vertex 1, so the
    diameter is exactly d. The coloring gives the base triangle color 1
    and the two edges brought in by vertex j color j // 2; its d
    distinct colors rainbow-connect the graph along shortest paths.
    """
    if d < 2:
        raise DomainError(f"lad needs d >= 2, got {d}")
    g = from_canonical(_lad_canonical(d))
    return FamilyInstance(g, EdgeColoring(_lad_colors(d)), "lad", d, d)


def lad_plus(d: int) -> FamilyInstance:
    """lad(d) with one more ear on (2d-1, 2d), making 2d+1 vertices.

    The extra vertex creates a second pair at distance d while the
    designed coloring still needs only d colors: both new edges reuse
    color d.
    """
    if d < 2:
        raise DomainError(f"lad_plus needs d >= 2, got {d}")
    base = _lad_canonical(d)
    n = 2 * d + 1
    low = dict(base.low)
    high = dict(base.high)
    low[n], high[n] = n - 2, n - 1
    g = from_canonical(CanonicalMop(n, low, high))
    colors = _lad_colors(d)
    colors[(n - 2, n)] = d
    colors[(n - 1, n)] = d
    return FamilyInstance(g, EdgeColoring(colors), "lad_plus", d, d)


def random_mop(n: int, seed: int) -> CanonicalMop:
    """Grow a random MOP: each new vertex picks a uniform exterior edge.

    The PRNG is a fixed SplitMix64 stream consumed one bounded draw per
    added vertex, so (n, seed) pins the construction bit for bit.
    """
    if n < 3:
        raise DomainError(f"a MOP needs n >= 3, got n={n}")
    rng = SplitMix64(seed)
    exterior: list[tuple[int, int]] = [(1, 2), (1, 3), (2, 3)]
    low: dict[int, int] = {3: 1}
    high: dict[int, int] = {3: 2}
    for i in range(4, n + 1):
        r = rng.below(len(exterior))
        lo, hi = exterior[r]
        low[i], high[i] = lo, hi
        exterior[r] = (lo, i)
        exterior.append((hi, i))
    return CanonicalMop(n, low, high)


def random_mop_graph(n: int, seed: int) -> MopGraph:
    """Convenience wrapper: materialize random_mop(n, seed)."""
    return from_canonical(random_mop(n, seed))
