#!/usr/bin/env python3
"""Timing and peak memory of the exact recursions: q, q_N and Tutte.

Times ``q_recursive`` on paths, seeded G(n, 1/2) graphs, seeded random
trees, three inputs of high nullity or many components: the edgeless
graph on 1,000 vertices, the star K_{1,299} and a forest of sixty seeded
5-vertex trees, and two looped inputs that take the loop rule: three
seeded G(16, 1/2) graphs with a loop on each vertex with probability 0.3,
and P_200 with a loop at every vertex.
Times ``qn_recursive`` (the inputs named qN_*) on P_160, on P_300 in natural
order and with its vertices listed in a seeded random order, on P_1800 and
P_2500, on a seeded random 60-vertex tree listed in a seeded random order,
on a seeded spider (a centre with 12 paths of 1-10 vertices hung from it)
listed in a seeded random order, and on three seeded G(20, 1/2) graphs.
A q_N kernel that reduces on a fixed vertex without reordering its input
takes exponential time on the shuffled path, and one that takes a path a
vertex at a time exceeds the recursion limit on P_2500, so compare such a
checkout with ``--only``.  The breadth-first order scatters the spider's
legs, so they go about a vertex at a time and its time grows exponentially
with the number of legs; a larger spider is left out of the list.
Times ``tutte_polynomial`` on K_7, the Petersen graph, the wheel W_12 (a hub
joined to a 12-cycle), seeded 15-op series-parallel graphs, a seeded random
tree of 1,000 edges, a seeded connected cubic graph on 14 vertices, a seeded
G(12, 0.3), a 500-vertex path with a loop at every vertex, 100 disjoint
triangles, a chain of 100 triangles, a chain of 30 copies of K_4 (in a
chain, each block shares one vertex with the next) and W_12 with every edge
tripled (W_12_x3), whose parallel classes go one class a step.
Times ``rank_nullity_histogram``, which every state sum reads (the inputs
named hist_*), on three seeded G(n, 1/2) graphs for n = 8, 12, 16 and 18,
on P_22, C_22, K_20, P_200 and C_200, on the circle graph of an Euler
circuit of the oriented medial of a seeded 15- or 40-op series-parallel
graph (17 and 42 vertices), on C_200 with its vertices listed in a seeded
random order (hist_C_200_shuffled), on ``random_bdh_graph(100,
random.Random(3))`` (hist_BDH100) and on the 80-vertex graph of
``random_dh_sequence(80, random.Random(91))``, which has true twins
(hist_DH80_twins).  The inputs of 42 or more vertices are out of reach of
any 2^n subset walk; the DP's cost follows its live keys, which follow the
cut ranks of its greedy vertex order.  A DP that keeps the given order does
not finish the last three in reasonable time, so compare such a checkout
with ``--only``.
Times ``circle_graph`` on the chord diagram of an Euler circuit of the
oriented medial of a seeded 800- or 1,600-op series-parallel graph
(circle_SP800, circle_SP1600: 802 and 1,602 chords, the script drawn by
``random_sp_sequence(ops, random.Random(ops))``), and ``Graph.edges`` on the
circle graph of the 1,600-op one (edges_SP1600).  Times ``build_sp`` on that
1,600-op script (build_SP1600: 1,602 edges) and ``medial_digraph`` on the
plane graph it builds (medial_SP1600), the plane layer under the medial
pipeline.
Times ``recognize_dh`` on ``random_bdh_graph(1600, random.Random(83))``
(peel_BDH_1600), whose peel takes no true twin, and on the graph of
``random_dh_sequence(800, random.Random(91))`` (peel_DH_800), whose peel
takes true twins and so keeps closed-neighbourhood buckets.

For each input it prints the best in-process time of ``--repeats`` runs and
the peak RSS of a fresh interpreter that builds the input and runs it once
(interpreter start-up and imports included; read from /proc, so Linux
only).  Every input is fixed by its name, so two checkouts can be compared
by running this script against each ``src`` in turn.  Compiling a module
that has no cached bytecode adds about 1 MiB to that peak, so compare
checkouts whose ``__pycache__`` directories are both filled (or both empty).

Gnp_<n>_x3, hist_Gnp_<n>_x3, Gnp_16_loops_x3 and qN_Gnp_20_x3 are three
seeded G(n, 1/2) graphs and SP15_x20 twenty seeded 15-op series-parallel graphs, each timed
as one run over the whole list.

Usage: PYTHONPATH=src python scripts/kernel_timing.py [--repeats 3] [--only P_100,qN_P_300,K_7]
"""

import argparse
import random
import subprocess
import sys
import time
from itertools import combinations

from graphpoly.chords import ChordDiagram, circle_graph
from graphpoly.dh import apply_dh_sequence, recognize_dh
from graphpoly.euler import chord_diagram_from_circuit, euler_circuit
from graphpoly.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from graphpoly.interlace import q_recursive, qn_recursive, rank_nullity_histogram
from graphpoly.planar import build_sp, medial_digraph, tutte_polynomial
from graphpoly.randgen import (random_bdh_graph, random_dh_sequence, random_graph,
                               random_sp_sequence)


def random_tree(n: int, seed: int) -> Graph:
    """Seeded random recursive tree: vertex k joins a uniform earlier vertex."""
    rng = random.Random(seed)
    return Graph.from_edges([(f"v{rng.randrange(k)}", f"v{k}") for k in range(1, n)],
                            [f"v{k}" for k in range(n)])


def shuffled(g: Graph, seed: int) -> Graph:
    """g with its vertices listed in a seeded random order."""
    ids = list(g.ids)
    random.Random(seed).shuffle(ids)
    return Graph.from_edges(g.edges(), ids)


def random_spider(legs: int, longest: int, seed: int) -> Graph:
    """Centre c with ``legs`` seeded paths of 1..longest vertices hung from it."""
    rng = random.Random(seed)
    edges = []
    for leg in range(legs):
        path = ["c"] + [f"l{leg}_{k}" for k in range(rng.randint(1, longest))]
        edges += zip(path, path[1:])
    return Graph.from_edges(edges)


def random_forest(trees: int, size: int, seed: int) -> Graph:
    """Disjoint union of seeded random recursive trees of ``size`` vertices."""
    rng = random.Random(seed)
    edges = [(f"t{t}v{rng.randrange(k)}", f"t{t}v{k}")
             for t in range(trees) for k in range(1, size)]
    return Graph.from_edges(edges, [f"t{t}v{k}" for t in range(trees) for k in range(size)])


def random_cubic_edges(n: int, seed: int) -> list[tuple]:
    """Seeded connected simple cubic graph: random pairings of 3n half-edges, retried."""
    rng = random.Random(seed)
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        edges = {tuple(sorted(ends[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            g = Graph.from_edges(edges, range(n))
            if g.is_connected():
                return sorted(edges)


def block_chain(block: list[tuple], joint: int, k: int) -> list[tuple]:
    """k copies of a block on vertices 0, 1, ..., copy t shifted by t * joint."""
    return [(u + t * joint, v + t * joint) for t in range(k) for u, v in block]


def medial_chord_diagram(ops: int, seed: int) -> ChordDiagram:
    """Chord diagram of an Euler circuit of the oriented medial of a seeded SP graph."""
    med = medial_digraph(build_sp(random_sp_sequence(ops, random.Random(seed))))
    return chord_diagram_from_circuit(med, euler_circuit(med))


def medial_circle_graph(ops: int, seed: int) -> Graph:
    """Circle graph of an Euler circuit of the oriented medial of a seeded SP graph."""
    return circle_graph(medial_chord_diagram(ops, seed))


def petersen_edges() -> list[tuple]:
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    return outer + inner + [(f"o{i}", f"i{i}") for i in range(5)]


def wheel_edges(rim: int) -> list[tuple]:
    return cycle_graph(rim).edges() + [("hub", str(i)) for i in range(1, rim + 1)]


# name -> (function, builder of the list of its arguments); each run covers the whole list
INPUTS = {
    "P_100": (q_recursive, lambda: [path_graph(100)]),
    "P_200": (q_recursive, lambda: [path_graph(200)]),
    "P_300": (q_recursive, lambda: [path_graph(300)]),
    **{f"Gnp_{n}_x3": (q_recursive, lambda n=n: [random_graph(n, random.Random(seed))
                                                 for seed in (1, 2, 3)])
       for n in (14, 16, 18)},
    "tree_30": (q_recursive, lambda: [random_tree(30, 5)]),
    "tree_40": (q_recursive, lambda: [random_tree(40, 5)]),
    "edgeless_1000": (q_recursive, lambda: [Graph.edgeless(1000)]),
    "star_299": (q_recursive, lambda: [star_graph(299)]),
    "forest_60x5": (q_recursive, lambda: [random_forest(60, 5, 9)]),
    "Gnp_16_loops_x3": (q_recursive, lambda: [random_graph(16, random.Random(seed), loops=True)
                                              for seed in (1, 2, 3)]),
    "P_200_loops": (q_recursive, lambda: [Graph.from_edges(
        path_graph(200).edges() + [(str(v), str(v)) for v in range(1, 201)])]),
    "qN_P_160": (qn_recursive, lambda: [path_graph(160)]),
    "qN_P_300": (qn_recursive, lambda: [path_graph(300)]),
    "qN_P_300_shuf": (qn_recursive, lambda: [shuffled(path_graph(300), 11)]),
    "qN_P_1800": (qn_recursive, lambda: [path_graph(1800)]),
    "qN_P_2500": (qn_recursive, lambda: [path_graph(2500)]),
    "qN_tree_60_shuf": (qn_recursive, lambda: [shuffled(random_tree(60, 5), 12)]),
    "qN_spider": (qn_recursive, lambda: [shuffled(random_spider(12, 10, 13), 14)]),
    "qN_Gnp_20_x3": (qn_recursive, lambda: [random_graph(20, random.Random(seed))
                                            for seed in (1, 2, 3)]),
    "K_7": (tutte_polynomial, lambda: [complete_graph(7).edges()]),
    "Petersen": (tutte_polynomial, lambda: [petersen_edges()]),
    "W_12": (tutte_polynomial, lambda: [wheel_edges(12)]),
    "SP15_x20": (tutte_polynomial, lambda: [build_sp(random_sp_sequence(15, random.Random(seed)))
                                            for seed in range(20)]),
    "tree_1000": (tutte_polynomial, lambda: [random_tree(1001, 7).edges()]),
    "cubic_14": (tutte_polynomial, lambda: [random_cubic_edges(14, 3)]),
    "Gnp_12_0.3": (tutte_polynomial, lambda: [random_graph(12, random.Random(5), 0.3).edges()]),
    "looped_P_500": (tutte_polynomial, lambda: [path_graph(500).edges()
                                                + [(str(v), str(v)) for v in range(1, 501)]]),
    "triangles_100": (tutte_polynomial, lambda: [[e for t in range(100) for e in (
        (f"a{t}", f"b{t}"), (f"b{t}", f"c{t}"), (f"c{t}", f"a{t}"))]]),
    "cactus_100": (tutte_polynomial, lambda: [block_chain([(0, 1), (1, 2), (2, 0)], 2, 100)]),
    "K4chain_30": (tutte_polynomial, lambda: [block_chain(list(combinations(range(4), 2)), 3, 30)]),
    "W_12_x3": (tutte_polynomial, lambda: [wheel_edges(12) * 3]),
    **{f"hist_Gnp_{n}_x3": (rank_nullity_histogram,
                            lambda n=n: [random_graph(n, random.Random(seed)).rows
                                         for seed in (1, 2, 3)])
       for n in (8, 12, 16, 18)},
    "hist_P_22": (rank_nullity_histogram, lambda: [path_graph(22).rows]),
    "hist_C_22": (rank_nullity_histogram, lambda: [cycle_graph(22).rows]),
    "hist_K_20": (rank_nullity_histogram, lambda: [complete_graph(20).rows]),
    "hist_P_200": (rank_nullity_histogram, lambda: [path_graph(200).rows]),
    "hist_C_200": (rank_nullity_histogram, lambda: [cycle_graph(200).rows]),
    "hist_SP15_circle": (rank_nullity_histogram, lambda: [medial_circle_graph(15, 1).rows]),
    "hist_SP40_circle": (rank_nullity_histogram, lambda: [medial_circle_graph(40, 1).rows]),
    "hist_C_200_shuffled": (rank_nullity_histogram, lambda: [shuffled(cycle_graph(200), 15).rows]),
    "hist_BDH100": (rank_nullity_histogram, lambda: [random_bdh_graph(100, random.Random(3)).rows]),
    "hist_DH80_twins": (rank_nullity_histogram, lambda: [apply_dh_sequence(
        random_dh_sequence(80, random.Random(91))).rows]),
    **{f"circle_SP{ops}": (circle_graph, lambda ops=ops: [medial_chord_diagram(ops, ops)])
       for ops in (800, 1600)},
    "edges_SP1600": (Graph.edges, lambda: [medial_circle_graph(1600, 1600)]),
    "build_SP1600": (build_sp, lambda: [random_sp_sequence(1600, random.Random(1600))]),
    "medial_SP1600": (medial_digraph, lambda: [build_sp(random_sp_sequence(1600,
                                                                       random.Random(1600)))]),
    "peel_BDH_1600": (recognize_dh, lambda: [random_bdh_graph(1600, random.Random(83))]),
    "peel_DH_800": (recognize_dh, lambda: [apply_dh_sequence(
        random_dh_sequence(800, random.Random(91)))]),
}


def run_once(name: str) -> float:
    fn, build = INPUTS[name]
    args = build()
    t0 = time.perf_counter()
    for a in args:
        fn(a)
    return time.perf_counter() - t0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=positive_int, default=3)
    ap.add_argument("--only", default="", help="comma-separated input names")
    ap.add_argument("--rss-of", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rss_of:
        run_once(args.rss_of)
        # VmHWM, not ru_maxrss: on Linux ru_maxrss keeps the parent's peak across fork and exec
        with open("/proc/self/status") as status:
            print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))  # KiB
        return
    names = args.only.split(",") if args.only else list(INPUTS)
    unknown = [name for name in names if name not in INPUTS]
    if unknown:
        ap.exit(2, f"error: unknown input(s): {', '.join(unknown)}\n")
    print(f"{'input':<20} {'function':<22} {'best ms':>10} {'peak RSS MiB':>13}")
    for name in names:
        best = min(run_once(name) for _ in range(args.repeats))
        child = subprocess.run([sys.executable, __file__, "--rss-of", name],
                               capture_output=True, text=True, check=True)
        rss = int(child.stdout.split()[-1]) / 1024
        print(f"{name:<20} {INPUTS[name][0].__name__:<22} {best * 1000:10.3f} {rss:13.1f}")


if __name__ == "__main__":
    main()
