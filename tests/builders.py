"""Builders and queries that only the tests use.

Queries of a ``Graph`` (``has_edge``, ``has_loop``, ``neighbors``,
``degree``) and its induced subgraphs (``induced``, ``without``), the Euler
formula check of a ``PlaneMultigraph``, the chord count of a
``ChordDiagram``, joins of graphs (disjoint union, one-point and two-point
join), the dual of a series-parallel script, the writer of the
rotation-system format, the reader of distance-hereditary scripts (which
``dh recognize`` prints), the reader of the JSON form of a polynomial and
q_N of a path by its recurrence.  No pipeline in ``graphpoly`` needs them.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Sequence

from graphpoly.chords import ChordDiagram
from graphpoly.dh import DHSequence
from graphpoly.fileio import FormatError, _content_lines
from graphpoly.graphs import Graph, bit_indices, compact_rows
from graphpoly.planar import PlaneMultigraph, SPSequence
from graphpoly.poly import SparsePoly


def has_edge(g: Graph, u, v) -> bool:
    return bool(g.rows[g.index_of(u)] >> g.index_of(v) & 1)


def has_loop(g: Graph, v) -> bool:
    i = g.index_of(v)
    return bool(g.rows[i] >> i & 1)


def neighbors(g: Graph, v) -> tuple:
    """Neighbours of v in id order; v itself appears iff v is looped."""
    return tuple(g.ids[j] for j in bit_indices(g.rows[g.index_of(v)]))


def degree(g: Graph, v) -> int:
    return bin(g.rows[g.index_of(v)]).count("1")


def induced(g: Graph, subset: Iterable[str]) -> Graph:
    keep = [g.index_of(v) for v in subset]
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate vertices in subset")
    keep.sort()
    return Graph([g.ids[i] for i in keep], compact_rows(g.rows, sum(1 << i for i in keep)))


def without(g: Graph, *drop) -> Graph:
    gone = {str(v) for v in drop}
    for v in gone:
        g.index_of(v)
    return induced(g, [v for v in g.ids if v not in gone])


def euler_formula_ok(g: PlaneMultigraph) -> bool:
    """Planarity certificate for connected graphs: V - E + F = 2."""
    if not g.is_connected():
        raise ValueError("Euler formula check needs a connected graph")
    return g.n - g.m + len(g.faces()) == 2


def chord_count(d: ChordDiagram) -> int:
    return len(d.word) // 2


def _fresh_names(taken: Sequence[str], incoming: Sequence[str]) -> dict:
    """Rename colliding incoming ids by appending primes."""
    used = set(taken)
    out = {}
    for v in incoming:
        name = v
        while name in used:
            name += "'"
        out[v] = name
        used.add(name)
    return out


def disjoint_union(g: Graph, other: Graph) -> Graph:
    relabel = _fresh_names(g.ids, other.ids)
    ids = g.ids + tuple(relabel[v] for v in other.ids)
    rows = list(g.rows) + [r << g.n for r in other.rows]
    return Graph(ids, rows)


def one_point_join(g: Graph, u, other: Graph, v) -> Graph:
    """Identify u in g with v in other; the merged vertex keeps u's id."""
    g.index_of(u)
    other.index_of(v)
    relabel = _fresh_names(g.ids, other.ids)
    edges = g.edges()
    for a, b in other.edges():
        a2 = str(u) if a == str(v) else relabel[a]
        b2 = str(u) if b == str(v) else relabel[b]
        edges.append((a2, b2))
    verts = list(g.ids) + [relabel[w] for w in other.ids if w != str(v)]
    return Graph.from_edges(edges, verts)


def two_point_join(g: Graph, u, other: Graph, v) -> Graph:
    """Keep u and v, cross-connect each to the other's neighbours (u, v become false twins)."""
    g.index_of(u)
    other.index_of(v)
    relabel = _fresh_names(g.ids, other.ids)
    edges = g.edges()
    edges.extend((relabel[a], relabel[b]) for a, b in other.edges())
    for w in neighbors(other, v):
        edges.append((str(u), relabel[w]))
    for w in neighbors(g, u):
        edges.append((relabel[str(v)], w))
    verts = list(g.ids) + [relabel[w] for w in other.ids]
    # from_edges ignores duplicates since adjacency is a relation
    return Graph.from_edges(edges, verts)


def sp_dual(seq: SPSequence) -> SPSequence:
    """The script with series and parallel swapped: it builds the planar dual."""
    swap = {"series": "parallel", "parallel": "series"}
    return SPSequence((("digon",),) + tuple((swap[k], e) for k, e in seq.ops[1:]))


def format_rotation_system(g: PlaneMultigraph) -> str:
    lines = []
    for v in g.vertex_ids:
        lines.append(f"{v}: " + " ".join(g.rotation[v]))
    return "\n".join(lines) + "\n"


def parse_dh_sequence(text: str) -> DHSequence:
    ops: list[tuple] = []
    for i, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "root" and len(parts) == 2:
            ops.append(("root", parts[1]))
        elif parts[0] == "pendant" and len(parts) == 4 and parts[2] == "on":
            ops.append(("pendant", parts[1], parts[3]))
        elif parts[0] in ("truetwin", "falsetwin") and len(parts) == 4 and parts[2] == "of":
            ops.append((parts[0], parts[1], parts[3]))
        else:
            raise FormatError(f"expected 'root a', 'pendant b on a', "
                              f"'truetwin c of b' or 'falsetwin c of b', got {line!r}", i)
    try:
        return DHSequence(tuple(ops))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def poly_from_json_obj(variables, obj: list) -> SparsePoly:
    """Inverse of ``SparsePoly.to_json_obj``."""
    variables = tuple(variables)
    terms = {}
    for item in obj:
        exps = tuple(int(item["exps"].get(v, 0)) for v in variables)
        terms[exps] = terms.get(exps, 0) + int(item["coeff"])
    return SparsePoly(variables, terms)


def path_qn(n: int) -> SparsePoly:
    """q_N(P_n) by q_N(P_n) = q_N(P_{n-1}) + x q_N(P_{n-2}), q_N(P_0) = 1, q_N(P_1) = x."""
    prev, cur = [1], [0, 1]
    for _ in range(2, n + 1):
        prev, cur = cur, [a + b for a, b in zip_longest(cur, [0] + prev, fillvalue=0)]
    return SparsePoly(("x",), {(i,): c for i, c in enumerate(cur) if c})
