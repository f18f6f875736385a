"""A small in-process benchmark: constructed colors vs bound vs optimum.

The staged coloring promises at most 3 * radius colors. The table
below shows how much of that budget real instances use, and, where the
exact search is cheap enough, how far the construction sits from the
true rainbow connection number. The same table is available from the
command line as `moprc bench`.

Run:  python3 demos/05_mini_bench.py
"""

import time

from moprc import (
    ScaleLimit,
    ecc_diam_rad_center,
    exact_rc,
    from_canonical,
    lad,
    rainbow_coloring,
    random_mop,
)

HEADER = f"{'graph':<14} {'n':>3} {'diam':>4} {'rad':>3} {'used':>4} {'bound':>5} {'exact':>5} {'ms':>6}"


def row(name, g):
    summary = ecc_diam_rad_center(g)
    t0 = time.perf_counter()
    _, stats = rainbow_coloring(g)
    ms = (time.perf_counter() - t0) * 1000
    try:
        exact = str(exact_rc(g, timeout_s=10.0).value) if g.m <= 22 else "-"
    except ScaleLimit:
        exact = "-"
    print(
        f"{name:<14} {g.n:>3} {summary.diameter:>4} {summary.radius:>3} "
        f"{stats.colors_used:>4} {stats.bound:>5} {exact:>5} {ms:>6.1f}"
    )


print(HEADER)
for d in range(2, 7):
    row(f"lad({d})", lad(d).graph)
for n in (10, 20, 40, 80):
    for t in range(2):
        seed = 100 * n + t
        row(f"random({n},{t})", from_canonical(random_mop(n, seed)))

print()
print("used <= bound always holds; on strips the construction meets the")
print("exact value (rc = diam), and random instances sit well under the bound.")
