"""Shared corpus helpers for the test suite."""

from itertools import combinations

import pytest

from graphpoly import interlace
from graphpoly.graphs import Graph


@pytest.fixture
def no_recursion_kernels(monkeypatch):
    """Make both interlace recursion kernels raise if anything calls them."""
    def forbidden(*args):
        raise AssertionError("a recursion kernel was called")

    monkeypatch.setattr(interlace, "_qn_kernel", forbidden)
    monkeypatch.setattr(interlace, "_q_kernel", forbidden)


def all_labeled_graphs(n: int):
    """Every labeled simple graph on vertices 1..n (2^C(n,2) of them)."""
    vs = [str(i) for i in range(1, n + 1)]
    slots = list(combinations(vs, 2))
    for code in range(1 << len(slots)):
        edges = [slots[k] for k in range(len(slots)) if code >> k & 1]
        yield Graph.from_edges(edges, vs)


def graph_with_extra(g: Graph, new: str, attach_to):
    """Copy of g with one extra vertex adjacent to the given vertices."""
    edges = g.edges() + [(new, v) for v in attach_to]
    return Graph.from_edges(edges, list(g.ids) + [new])
