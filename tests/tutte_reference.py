"""Subset-expansion reference for the Tutte polynomial.

T(G; x, y) is the sum over all edge subsets A of
(x - 1)^(r(E) - r(A)) * (y - 1)^(|A| - r(A)), where r(A) is the number of
vertices minus the number of components of (V, A), found by union-find.
It shares nothing with the deletion/contraction route of
``planar.tutte_polynomial`` and takes 2^|E| steps, so it is for small
inputs only.
"""

from __future__ import annotations

from collections import Counter
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


def tutte_by_subsets(edges) -> SparsePoly:
    edges = [tuple(e) for e in edges]
    m = len(edges)
    full = rank(edges, (1 << m) - 1)
    exps: Counter = Counter()
    for a in range(1 << m):
        r = rank(edges, a)
        exps[full - r, a.bit_count() - r] += 1
    terms: Counter = Counter()
    for (p, q), count in exps.items():
        for i in range(p + 1):
            for j in range(q + 1):
                terms[i, j] += count * comb(p, i) * comb(q, j) * (-1) ** (p - i + q - j)
    return SparsePoly(("x", "y"), terms)
