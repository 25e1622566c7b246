"""Per-subset reference versions of the state sums.

Each vertex subset gets its own elimination by ``rank_nullity_mask``, with
nothing shared between subsets.  ``reference_histogram`` is the
oracle for the DP ``interlace.rank_nullity_histogram``, and
``reference_c_polynomial`` for ``chords.c_polynomial``;
``bollobas_riordan_c_polynomial`` is a second oracle for C that counts
boundary components of ribbon subgraphs and uses no GF(2) rank.  ``boundary_key``
forms the key (B, C) of a head subset against the tail from every row
combination of the subset, with no elimination.  It is the witness of the
bordered-rank identity that the DP rests on: head subsets with equal keys
have equal (rank, nullity) increments over every tail subset.
``reference_cut_rank_order`` is the greedy vertex order that the DP runs in,
with every candidate's cut rank found by a fresh elimination.
"""

from __future__ import annotations

from graphpoly.chords import ChordDiagram, circle_graph
from graphpoly.graphs import Graph
from graphpoly.poly import SparsePoly


def rank_nullity_mask(rows, mask: int) -> tuple[int, int]:
    """GF(2) rank and nullity of the submatrix selected by a vertex bitmask."""
    size = bin(mask).count("1")
    pivots: dict[int, int] = {}
    rank = 0
    m = mask
    while m:
        low = m & -m
        i = low.bit_length() - 1
        m ^= low
        cur = rows[i] & mask
        while cur:
            p = cur & -cur
            if p in pivots:
                cur ^= pivots[p]
            else:
                pivots[p] = cur
                rank += 1
                break
    return rank, size - rank


def boundary_key(rows, h: int, mask: int) -> tuple[frozenset, tuple]:
    """The key (B, C) of the head subset S = ``mask`` against the tail h, h + 1, ...

    All 2^|S| row combinations zA of S are formed.  B is the set of the tail
    parts of those that vanish on S: the span of S's dependents restricted
    to the tail.  The key positions of S are the lowest bits inside S of
    the others.  C holds, for each tail vertex v, the least tail part of
    row v + zA over the combinations that clear every key position: these
    tail parts form one coset of B, and its least element is the one that
    the reduction against echelon rows of B leaves.
    """
    combos = {0: 0}
    sub = 0
    while True:
        sub = (sub - mask) & mask  # the submasks of S in increasing order
        if not sub:
            break
        low = sub & -sub
        combos[sub] = combos[sub ^ low] ^ rows[low.bit_length() - 1]
    values = list(combos.values())
    keys = 0
    for z in values:
        if z & mask:
            keys |= z & mask & -(z & mask)
    dependents = frozenset(z >> h for z in values if not z & mask)
    cosets = tuple(min((rows[v] ^ z) >> h for z in values if not (rows[v] ^ z) & keys)
                   for v in range(h, len(rows)))
    return dependents, cosets


def rank_nullity(g: Graph, subset=None) -> tuple[int, int]:
    """GF(2) rank and nullity of the adjacency matrix of the induced subgraph."""
    mask = (1 << g.n) - 1
    if subset is not None:
        mask = 0
        for v in subset:
            mask |= 1 << g.index_of(v)
    return rank_nullity_mask(g.rows, mask)


def cut_rank(rows, head: int, tail: int) -> int:
    """GF(2) rank of the submatrix with the rows in bitmask head and the columns in tail."""
    pivots: dict[int, int] = {}
    for i in range(len(rows)):
        cur = rows[i] & tail if head >> i & 1 else 0
        while cur:
            p = cur & -cur
            if p not in pivots:
                pivots[p] = cur
                break
            cur ^= pivots[p]
    return len(pivots)


def reference_cut_rank_order(rows) -> list[int]:
    """Greedy order: append the v minimising (rank A[prefix + v, tail - v], |N(v) & (tail - v)|, v)."""
    order, head, tail = [], 0, (1 << len(rows)) - 1
    while tail:
        def key(v):
            rest = tail & ~(1 << v)
            return cut_rank(rows, head | 1 << v, rest), (rows[v] & rest).bit_count(), v

        v = min((v for v in range(len(rows)) if tail >> v & 1), key=key)
        order.append(v)
        head |= 1 << v
        tail ^= 1 << v
    return order


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


def bollobas_riordan_c_polynomial(d: ChordDiagram) -> SparsePoly:
    """C(D; Y, Z) from the Bollobas-Riordan expansion of the one-vertex ribbon graph D.

    D is one disc with a band for each chord.  The chord set A spans a ribbon
    subgraph with one vertex, |A| edges and bc(A) boundary components, of
    genus g = (1 - bc(A) + |A|) / 2, and C sums Y^|A| Z^g over all A, so
    C(D; Y, Z) = R(D; x, Y, sqrt(Z)).  bc(A) is the number of cycles of
    j -> partner(next(j)) on the 2|A| ends of A in word order, next cyclic;
    bc of the empty set is 1, the boundary of the bare disc.
    """
    labels = d.labels()
    acc: dict[tuple[int, int], int] = {}
    for mask in range(1 << len(labels)):
        keep = {c for k, c in enumerate(labels) if mask >> k & 1}
        ends = [c for c in d.word if c in keep]
        m = len(ends)
        partner, first = [0] * m, {}
        for j, c in enumerate(ends):
            i = first.setdefault(c, j)
            partner[i], partner[j] = j, i
        seen = [False] * m
        bc = 0 if m else 1
        for j in range(m):
            if not seen[j]:
                bc += 1
                while not seen[j]:
                    seen[j] = True
                    j = partner[(j + 1) % m]
        twice_genus = 1 - bc + len(keep)
        assert twice_genus % 2 == 0, "a one-vertex ribbon graph is orientable"
        key = (len(keep), twice_genus // 2)
        acc[key] = acc.get(key, 0) + 1
    return SparsePoly(("Y", "Z"), acc)
