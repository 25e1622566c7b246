"""Per-subset reference versions of the state sums.

Each vertex subset gets its own elimination by ``graphs.rank_nullity_mask``,
with nothing shared between subsets.  ``reference_histogram`` is the
oracle for the incremental ``interlace.rank_nullity_histogram``, and
``reference_c_polynomial`` for ``chords.c_polynomial``.
"""

from __future__ import annotations

from graphpoly.chords import ChordDiagram, circle_graph
from graphpoly.graphs import rank_nullity_mask
from graphpoly.poly import SparsePoly


def reference_histogram(rows) -> dict[tuple[int, int], int]:
    """Count vertex subsets by (rank, nullity), one fresh elimination per subset."""
    hist: dict[tuple[int, int], int] = {}
    for mask in range(1 << len(rows)):
        key = rank_nullity_mask(rows, mask)
        hist[key] = hist.get(key, 0) + 1
    return hist


def reference_c_polynomial(d: ChordDiagram) -> SparsePoly:
    """C(D; Y, Z) as Y^{#chords} Z^{rank/2} summed over every subdiagram."""
    rows = circle_graph(d).rows
    acc: dict[tuple[int, int], int] = {}
    for mask in range(1 << len(rows)):
        r, _ = rank_nullity_mask(rows, mask)
        key = (bin(mask).count("1"), r // 2)
        acc[key] = acc.get(key, 0) + 1
    return SparsePoly(("Y", "Z"), acc)
