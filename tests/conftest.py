"""Shared corpus helpers for the test suite."""

import random
from itertools import combinations

import pytest

from graphpoly import interlace
from graphpoly.chords import circle_graph
from graphpoly.euler import all_euler_circuits, chord_diagram_from_circuit
from graphpoly.graphs import Graph
from graphpoly.planar import build_sp, medial_digraph
from graphpoly.randgen import random_sp_sequence


@pytest.fixture
def no_recursion_kernel(monkeypatch):
    """Make the interlace recursion kernel raise if anything calls it."""
    def forbidden(*args):
        raise AssertionError("the recursion kernel was called")

    monkeypatch.setattr(interlace, "_kernel", forbidden)


def all_labeled_graphs(n: int):
    """Every labeled simple graph on vertices 1..n (2^C(n,2) of them)."""
    vs = [str(i) for i in range(1, n + 1)]
    slots = list(combinations(vs, 2))
    for code in range(1 << len(slots)):
        edges = [slots[k] for k in range(len(slots)) if code >> k & 1]
        yield Graph.from_edges(edges, vs)


def all_looped_labeled_graphs(n: int):
    """Every labeled graph on vertices 1..n with every pattern of loops."""
    for g in all_labeled_graphs(n):
        for code in range(1 << n):
            loops = [(v, v) for k, v in enumerate(g.ids) if code >> k & 1]
            yield Graph.from_edges(g.edges() + loops, g.ids)


def medial_circle_graphs(seed: int, count: int):
    """Circle graphs of every Euler circuit of the oriented medials of seeded SP graphs."""
    rng = random.Random(seed)
    for _ in range(count):
        med = medial_digraph(build_sp(random_sp_sequence(rng.randrange(0, 5), rng)))
        for circ in all_euler_circuits(med):
            yield circle_graph(chord_diagram_from_circuit(med, circ))


def graph_with_extra(g: Graph, new: str, attach_to):
    """Copy of g with one extra vertex adjacent to the given vertices."""
    edges = g.edges() + [(new, v) for v in attach_to]
    return Graph.from_edges(edges, list(g.ids) + [new])
