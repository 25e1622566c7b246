"""Subset-expansion reference for the Tutte polynomial.

T(G; x, y) is the sum over all edge subsets A of
(x - 1)^(r(E) - r(A)) * (y - 1)^(|A| - r(A)), where r(A) is the number of
vertices minus the number of components of (V, A), found by union-find.
It shares nothing with the deletion/contraction route of
``planar.tutte_polynomial`` and takes 2^|E| steps, so it is for small
inputs only.  Given a length per edge, it expands the graph with each edge
a path of that length, still in 2^|E| steps of the unsubdivided graph.

``matrix_tree_count`` gives t(G; 1, 1), the number of spanning trees, by
Kirchhoff's matrix-tree theorem instead, for graphs of hundreds of vertices.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

from graphpoly.poly import SparsePoly


def rank(edges: list, subset: int) -> int:
    """Rank of the edges whose bits are set in subset: the unions that joined two trees."""
    parent: dict = {}

    def find(z):
        while parent.setdefault(z, z) != z:
            parent[z] = parent[parent[z]]
            z = parent[z]
        return z

    r = 0
    for k, (u, v) in enumerate(edges):
        if subset >> k & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
    return r


def tutte_by_subsets(edges, lengths=None) -> SparsePoly:
    """T(G; x, y) by the subset expansion; with ``lengths``, of G with edge k a path.

    Edge k then stands for a path of ``lengths[k]`` edges through new inner
    vertices, and the sum still runs over the subsets A of ``edges`` only:
    A holds the paths taken whole.  A path of length l not taken whole is
    one of its C(l, j) subsets of j < l edges, which adds j to the rank and
    nothing to the nullity, so it contributes
    sum_j C(l, j) (x - 1)^(l - 1 - j) = 1 + x + ... + x^(l - 1).
    """
    edges = [tuple(e) for e in edges]
    m = len(edges)
    paths = [k for k in range(m) if lengths and lengths[k] > 1]
    full = rank(edges, (1 << m) - 1)
    exps: Counter = Counter()
    for a in range(1 << m):
        r = rank(edges, a)
        apart = tuple(sorted(lengths[k] for k in paths if not a >> k & 1))
        exps[full - r, a.bit_count() - r, apart] += 1
    terms: Counter = Counter()
    for (p, q, apart), count in exps.items():
        xs = Counter({i: comb(p, i) * (-1) ** (p - i) for i in range(p + 1)})
        for length in apart:  # times 1 + x + ... + x^(length - 1)
            times: Counter = Counter()
            for i, c in xs.items():
                for j in range(length):
                    times[i + j] += c
            xs = times
        for i, c in xs.items():
            for j in range(q + 1):
                terms[i, j] += count * c * comb(q, j) * (-1) ** (q - j)
    return SparsePoly(("x", "y"), terms)


def matrix_tree_count(vertices, edges) -> int:
    """Spanning trees of a connected multigraph: the determinant of its reduced Laplacian.

    The row and column of the first vertex are removed, and Gaussian
    elimination over the rationals takes the other vertices from the last
    to the second; the determinant is the product of the pivots.  Any order
    is correct.  Rows are sparse dicts, and on a series-parallel graph
    whose vertices are listed in the order they were built each eliminated
    vertex has at most two neighbours left, so the work stays linear.
    Loops do not count.
    """
    lap: dict = {v: Counter() for v in vertices}
    for u, v in edges:
        if u != v:
            lap[u][v] -= 1
            lap[v][u] -= 1
            lap[u][u] += 1
            lap[v][v] += 1
    del lap[vertices[0]]
    for row in lap.values():
        row.pop(vertices[0], None)
    det = Fraction(1)
    for v in reversed(vertices[1:]):
        row = lap.pop(v)
        pivot = Fraction(row.pop(v))
        det *= pivot
        for a in row:
            lap[a].pop(v)
        for a, la in row.items():
            for b, lb in row.items():
                lap[a][b] -= la * lb / pivot
    assert det.denominator == 1
    return det.numerator
