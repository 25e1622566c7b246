#!/usr/bin/env python3
"""Timing experiment for the bipartite distance-hereditary fast path.

Times qn_bdh_fast on random BDH graphs of growing size and fits the
log-log slope, which should stay a small constant (polynomial growth).
The general recursion is timed alongside on the sizes where it is
feasible, to show the gap the fast path closes.

Usage: python scripts/fastpath_scaling.py [--sizes 50,100,200,400] [--seed 7]
"""

import argparse
import math
import random
import time

from graphpoly.dh import qn_bdh_fast
from graphpoly.interlace import qn_recursive
from graphpoly.randgen import random_bdh_graph, random_connected_graph


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="50,100,200,400")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    rng = random.Random(args.seed)

    rows = []
    for n in sizes:
        best = math.inf
        for _ in range(args.repeats):
            g = random_bdh_graph(n, rng)
            t0 = time.perf_counter()
            poly = qn_bdh_fast(g)
            best = min(best, time.perf_counter() - t0)
        rows.append((n, best, poly.degree("x")))
        print(f"n={n:5d}  fast path {best * 1000:9.1f} ms   deg q_N = {rows[-1][2]}")

    print()
    for (n1, t1, _), (n2, t2, _) in zip(rows, rows[1:]):
        slope = math.log(max(t2, 1e-4) / max(t1, 1e-4)) / math.log(n2 / n1)
        print(f"log-log slope {n1} -> {n2}: {slope:.2f}")

    print()
    print("general recursion for contrast (exponential; dense random graphs):")
    for n in (18, 20, 22, 24):
        g = random_connected_graph(n, rng, p=0.5)
        t0 = time.perf_counter()
        qn_recursive(g)
        print(f"n={n:5d}  recursion {(time.perf_counter() - t0) * 1000:9.1f} ms")


if __name__ == "__main__":
    main()
