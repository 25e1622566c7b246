#!/usr/bin/env python3
"""Timing experiment for the bipartite distance-hereditary fast path.

Times the two stages of qn_bdh_fast on random BDH graphs of growing size:
the peel (dh._peel) and the two-terminal evaluation
(planar._two_terminal_diagonal of the script dh._sp_script reads off the
peel's removals), and fits the log-log slope of each, which should stay a
small constant (polynomial growth).  Each row also prints the digit width of the
packed evaluation, bits(tau) + 1 for the spanning-tree count tau, next to
n + 1, the width a bound by 2^|E| would give.  The general recursion is
timed alongside on the sizes where it is feasible, to show the gap the
fast path closes.

Usage: python scripts/fastpath_scaling.py [--sizes 50,100,200,400,800,1600] [--seed 7]
       [--repeats 3]  (each size takes the best of --repeats graphs; at least 1)
"""

import argparse
import math
import random
import time

from graphpoly.dh import _peel, _sp_script
from graphpoly.interlace import qn_recursive
from graphpoly.planar import _two_terminal_diagonal
from graphpoly.randgen import random_bdh_graph, random_connected_graph


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="50,100,200,400")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=positive_int, default=3)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    rng = random.Random(args.seed)

    rows = []
    for n in sizes:
        best_peel = best_eval = math.inf
        for _ in range(args.repeats):
            g = random_bdh_graph(n, rng)
            t0 = time.perf_counter()
            steps, _ = _peel(g.rows)
            t1 = time.perf_counter()
            script = _sp_script(steps)
            t2 = time.perf_counter()
            poly = _two_terminal_diagonal(script)
            t3 = time.perf_counter()
            best_peel = min(best_peel, t1 - t0)
            best_eval = min(best_eval, t3 - t2)
        width = sum(poly.terms.values()).bit_length() + 1
        rows.append((n, best_peel, best_eval))
        print(f"n={n:5d}  peel {best_peel * 1000:9.1f} ms   "
              f"pair DP {best_eval * 1000:9.1f} ms   slot {width:5d} bits (n + 1 = {n + 1})   "
              f"deg q_N = {poly.degree('x')}")

    print()
    for (n1, r1, e1), (n2, r2, e2) in zip(rows, rows[1:]):
        slopes = [math.log(max(b, 1e-4) / max(a, 1e-4)) / math.log(n2 / n1)
                  for a, b in ((r1, r2), (e1, e2))]
        print(f"log-log slope {n1} -> {n2}: peel {slopes[0]:.2f}, "
              f"pair DP {slopes[1]:.2f}")

    print()
    print("general recursion for contrast (exponential; dense random graphs):")
    for n in (18, 20, 22, 24):
        g = random_connected_graph(n, rng)
        t0 = time.perf_counter()
        qn_recursive(g)
        print(f"n={n:5d}  recursion {(time.perf_counter() - t0) * 1000:9.1f} ms")


if __name__ == "__main__":
    main()
