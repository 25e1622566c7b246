"""Chord diagrams (double-occurrence words) and their circle graphs.

A chord diagram is a cyclic word in which every label occurs exactly twice;
each label is a chord between its two occurrences.  The circle graph has the
chords as vertices, adjacent iff their occurrences interleave, which for a
stored linear word means exactly one occurrence of one chord lies strictly
between the two occurrences of the other.

``circle_graph`` reads every row off one pass over the word.  A running
parity mask has bit c set while exactly one end of chord c has been passed;
each chord XORs the mask into its row just after each of its two ends.  The
XOR of the mask after the first end and after the second holds exactly the
chords with an odd number of ends from just after c's first end up to its
second: those with one end strictly inside c, and c itself, whose bit is
then cleared.

``chord_pivot`` realizes the graph pivot on the word: with occurrences in
linear order p1 < p2 < p3 < p4 alternating between the two chords, the
segments (p1, p2) and (p3, p4) are exchanged and the two chord labels are
swapped.  The label swap is needed because the bare arc exchange produces
the pivot composed with the transposition of the two pivoted vertices.  The
result is asserted against the graph-level pivot, so a violation is loud.

The C-polynomial of a diagram is the subset expansion
C(D; Y, Z) = sum over subdiagrams D' of Y^{#chords} Z^{rank/2}, where rank
is the GF(2) rank of the circle graph of D' (always even, since loopless
symmetric GF(2) matrices have even rank).  Read D as a ribbon graph with
one vertex and a band per chord: rank/2 is then the genus of the ribbon
subgraph D', and C is the one-vertex case of the Bollobas-Riordan
topological Tutte polynomial, C(D; Y, Z) = R(D; x, Y, z) with z^2 = Z.
``verify_c_identity`` checks C against ``q_recursive`` on the circle graph,
q(H; Y*sqrt(Z) + 1, Y + 1) = C(D; Y, Z); the sides share only the circle graph.
It and ``verify_c_reduction`` return ``typing.NamedTuple`` reports.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, NamedTuple, Sequence

from .graphs import Graph
from .interlace import q_recursive, rank_nullity_histogram
from .poly import Immutable, SparsePoly


class ChordDiagram(Immutable):
    """Immutable double-occurrence word over string labels."""

    __slots__ = ("word",)

    def __init__(self, word: Iterable[str]):
        word = tuple(str(c) for c in word)
        counts: dict[str, int] = {}
        for c in word:
            counts[c] = counts.get(c, 0) + 1
        bad = sorted(c for c, k in counts.items() if k != 2)
        if bad:
            raise ValueError(f"not a double-occurrence word; bad labels: {', '.join(bad)}")
        object.__setattr__(self, "word", word)

    def __str__(self) -> str:
        return " ".join(self.word)

    def __repr__(self) -> str:
        return f"ChordDiagram({self!s})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ChordDiagram) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def labels(self) -> tuple:
        """The chords in order of first occurrence."""
        return tuple(dict.fromkeys(self.word))

    def positions(self, label: str) -> tuple[int, int]:
        ps = [i for i, c in enumerate(self.word) if c == str(label)]
        if not ps:
            raise ValueError(f"unknown chord {label!r}")
        return ps[0], ps[1]

    def delete(self, *labels: str) -> "ChordDiagram":
        gone = {str(x) for x in labels}
        for x in gone:
            self.positions(x)
        return ChordDiagram(c for c in self.word if c not in gone)


def circle_graph(d: ChordDiagram) -> Graph:
    """Simple graph on the chords, adjacent iff the chords interleave.

    One pass over the word with a running parity mask; see the module docstring.
    """
    bit = {c: 1 << i for i, c in enumerate(d.labels())}
    row = dict.fromkeys(bit, 0)
    parity = 0
    for c in d.word:
        parity ^= bit[c]
        row[c] ^= parity
    # interleaving is symmetric, and the labels are distinct strings
    return Graph.__new__(Graph)._set(tuple(bit), tuple([r ^ bit[c] for c, r in row.items()]))


def chords_cross(d: ChordDiagram, a: str, b: str) -> bool:
    p1, p2 = d.positions(a)
    q1, q2 = d.positions(b)
    return (p1 < q1 < p2) != (p1 < q2 < p2)


def chord_pivot(d: ChordDiagram, a: str, b: str) -> ChordDiagram:
    """Diagram whose circle graph is the pivot of circle_graph(d) on edge ab."""
    a, b = str(a), str(b)
    if not chords_cross(d, a, b):
        raise ValueError(f"chords {a!r} and {b!r} do not cross")
    w = d.word
    pts = sorted(d.positions(a) + d.positions(b))
    p1, p2, p3, p4 = pts
    swapped = (w[:p1] + (w[p1],) + w[p3 + 1:p4] + (w[p2],) + w[p2 + 1:p3]
               + (w[p3],) + w[p1 + 1:p2] + (w[p4],) + w[p4 + 1:])
    relabel = {a: b, b: a}
    out = ChordDiagram(relabel.get(c, c) for c in swapped)
    if circle_graph(out) != circle_graph(d).pivot(a, b):
        raise AssertionError("arc exchange failed to realize the graph pivot")
    return out


def c_polynomial(d: ChordDiagram) -> SparsePoly:
    """C(D; Y, Z) over all subdiagrams; Z-exponent is half the circle-graph rank."""
    acc: dict[tuple[int, int], int] = {}
    for (r, nl), cnt in rank_nullity_histogram(circle_graph(d).rows).items():
        if r % 2:
            raise AssertionError("odd GF(2) rank on a loopless circle graph")
        acc[(r + nl, r // 2)] = cnt
    return SparsePoly(("Y", "Z"), acc)


# -- numeric identity checks ---------------------------------------------------


class CPolyIdentityReport(NamedTuple):
    """Point checks of q(H; Y*sqrt(Z)+1, Y+1) = C(D; Y, Z)."""

    points: tuple
    values_c: tuple
    values_q: tuple

    @property
    def ok(self) -> bool:
        return self.values_c == self.values_q

    def __str__(self) -> str:
        rows = []
        for (yv, zv), cv, qv in zip(self.points, self.values_c, self.values_q):
            mark = "ok" if cv == qv else "FAIL"
            rows.append(f"(Y={yv}, Z={zv}): C={cv} q={qv} {mark}")
        return "; ".join(rows)


def verify_c_identity(d: ChordDiagram, points: Sequence[tuple[int, int]]) -> CPolyIdentityReport:
    """Check the C-polynomial against the interlace recursion at integer points.

    Each Z must be a perfect square so the substitution x = Y*sqrt(Z) + 1
    stays integral.
    """
    c = c_polynomial(d)
    q = q_recursive(circle_graph(d))
    cs, qs = [], []
    for yv, zv in points:
        s = isqrt(zv)
        if s * s != zv:
            raise ValueError(f"Z={zv} is not a perfect square")
        cs.append(c.eval_int({"Y": yv, "Z": zv}))
        qs.append(q.eval_int({"x": yv * s + 1, "y": yv + 1}))
    return CPolyIdentityReport(tuple(points), tuple(cs), tuple(qs))


REDUCTION_POINTS = ((1, 1), (2, 4), (3, 9))  # the (Y, Z) points of verify_c_reduction


class CReductionReport(NamedTuple):
    """Numeric test of the pivot reduction for C at ``REDUCTION_POINTS``."""

    points: tuple
    ok: bool

    def __str__(self) -> str:
        return f"C reduction with D^ab-b {'holds' if self.ok else 'fails'}"


def verify_c_reduction(d: ChordDiagram, a: str, b: str) -> CReductionReport:
    """Test the pivot recursion C(D) = C(D-a) + C(D^ab-b) + (Y^2 Z - 1) C(D^ab-a-b)."""
    a, b = str(a), str(b)
    piv = chord_pivot(d, a, b)
    sides = [c_polynomial(x) for x in (d, d.delete(a), piv.delete(b), piv.delete(a, b))]
    ok = True
    for yv, zv in REDUCTION_POINTS:
        full, da, pb, pab = (c.eval_int({"Y": yv, "Z": zv}) for c in sides)
        ok = ok and full == da + pb + (yv * yv * zv - 1) * pab
    return CReductionReport(REDUCTION_POINTS, ok)
