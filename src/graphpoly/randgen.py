"""Seeded random instance generators for the verification corpora.

All generators take an explicit ``random.Random`` so corpus runs are
reproducible from a single seed.
"""

from __future__ import annotations

import random
from itertools import combinations

from .chords import ChordDiagram
from .dh import DHSequence, apply_dh_sequence
from .euler import EulerDigraph
from .graphs import Graph
from .planar import SPSequence


def random_graph(n: int, rng: random.Random, p: float = 0.5,
                 loops: bool = False, loop_p: float = 0.3) -> Graph:
    vs = [f"v{i}" for i in range(1, n + 1)]
    edges = [(u, v) for u, v in combinations(vs, 2) if rng.random() < p]
    if loops:
        edges += [(v, v) for v in vs if rng.random() < loop_p]
    return Graph.from_edges(edges, vs)


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    while True:
        g = random_graph(n, rng)
        if n == 0 or g.is_connected():
            return g


def random_2in2out(n: int, rng: random.Random, connected: bool = True) -> EulerDigraph:
    """Random pairing of 2n out-stubs to 2n in-stubs, rejecting disconnected supports."""
    vs = [f"v{i}" for i in range(1, n + 1)]
    while True:
        heads = [v for v in vs for _ in range(2)]
        rng.shuffle(heads)
        tails = [v for v in vs for _ in range(2)]
        g = EulerDigraph.from_pairs(zip(tails, heads))
        if not connected or g.is_connected():
            return g


def random_chord_diagram(k: int, rng: random.Random) -> ChordDiagram:
    word = [str(i) for i in range(1, k + 1)] * 2
    rng.shuffle(word)
    return ChordDiagram(word)


def random_sp_sequence(n_ops: int, rng: random.Random) -> SPSequence:
    ops: list[tuple] = [("digon",)]
    count = 2
    for _ in range(n_ops):
        e = f"e{rng.randrange(1, count + 1)}"
        ops.append((rng.choice(("series", "parallel")), e))
        count += 1
    return SPSequence(tuple(ops))


def random_dh_sequence(n: int, rng: random.Random, allow_true_twins: bool = True) -> DHSequence:
    if n < 1:
        raise ValueError("need at least one vertex")
    ops: list[tuple] = [("root", "v1")]
    if n >= 2:
        ops.append(("pendant", "v2", "v1"))
    kinds = ("pendant", "truetwin", "falsetwin") if allow_true_twins else ("pendant", "falsetwin")
    for k in range(3, n + 1):
        at = f"v{rng.randrange(1, k)}"
        ops.append((rng.choice(kinds), f"v{k}", at))
    return DHSequence(tuple(ops))


def random_bdh_graph(n: int, rng: random.Random) -> Graph:
    return apply_dh_sequence(random_dh_sequence(n, rng, allow_true_twins=False))
