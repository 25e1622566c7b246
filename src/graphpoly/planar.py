"""Plane multigraphs, series-parallel construction, medial digraphs and Tutte polynomials.

A plane multigraph is its rotation system: per vertex, the cyclic order of
the ids of its incident edges.  Each edge id is listed exactly twice, and the
two listings are the edge's ends (darts), (e, 0) at the first and (e, 1) at
the second, so a loop is listed twice at one vertex.  Faces are the orbits of
the map "twin dart, then rotation successor", and for a connected graph the
embedding is certified planar by Euler's formula |V| - |E| + |F| = 2.

The oriented medial digraph has one vertex per edge of the plane graph; for
every vertex v and every consecutive pair (e, e') in the rotation at v there
is one arc m_e -> m_e'.  Around each original vertex these arcs form a
directed cycle, which makes the faces containing original vertices the
consistently oriented ones, and gives every medial vertex in- and
out-degree 2.

Tutte polynomials are computed two ways: for any multigraph as the product
over its blocks (a bridge gives x, a loop y), a cycle by its closed form
and each other block by deletion/contraction of a whole parallel class in
one step, whose minors split into blocks again; and for series-parallel
construction sequences by a polynomial-time diagonal evaluator, which
composes a two-terminal (terminals joined, terminals apart) pair per edge
over the construction script.  Both hold one int per
subproblem, its polynomial at a power of two, whose digits
``SparsePoly.from_base_digits`` reads back.  An ``SPSequence`` is an immutable
``__slots__`` value that checks its ops when built, and
``verify_medial_tutte_identity`` returns a ``typing.NamedTuple`` report.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .euler import EulerDigraph, chord_diagram_from_circuit, euler_circuit
from .chords import circle_graph
from .graphs import component_masks, label_rows
from .interlace import gamma_state_sum, qn_recursive
from .poly import Immutable, SparsePoly, _packed_product

Dart = tuple[str, int]  # (edge id, side 0 or 1)


class PlaneMultigraph(Immutable):
    """Multigraph given by its rotation system (combinatorial embedding).

    ``rotation[v]`` lists the ids of the edges at v in cyclic order; a vertex
    with no key has no edges.  Every edge id is listed exactly twice, and
    ``edge_map[e]`` is the pair of vertices where it is listed, in listing
    order.  Vertex and edge ids go through ``str``.
    """

    __slots__ = ("vertex_ids", "edge_map", "rotation")

    def __init__(self, vertices: Iterable[str], rotation: dict):
        vertex_ids = tuple(str(v) for v in vertices)
        if len(set(vertex_ids)) != len(vertex_ids):
            raise ValueError("duplicate vertex ids")
        rot = {str(v): tuple(map(str, es)) for v, es in rotation.items()}
        unknown = rot.keys() - set(vertex_ids)
        if unknown:
            raise ValueError(f"rotation at unknown vertex {min(unknown)!r}")
        rot = {v: rot.get(v, ()) for v in vertex_ids}
        ends: dict[str, list[str]] = {}
        for v, es in rot.items():
            for e in es:
                ends.setdefault(e, []).append(v)
        for e, vs in ends.items():
            if len(vs) != 2:
                raise ValueError(f"edge {e!r} has {len(vs)} end(s), expected 2")
        object.__setattr__(self, "vertex_ids", vertex_ids)
        object.__setattr__(self, "edge_map", {e: tuple(vs) for e, vs in ends.items()})
        object.__setattr__(self, "rotation", rot)

    @property
    def n(self) -> int:
        return len(self.vertex_ids)

    @property
    def m(self) -> int:
        return len(self.edge_map)

    def edge_list(self) -> list[tuple[str, str]]:
        return [self.edge_map[e] for e in sorted(self.edge_map)]

    def is_connected(self) -> bool:
        """Connectivity of the underlying graph (vertexless graph counts as connected)."""
        _, rows = label_rows(self.vertex_ids, self.edge_map.values())
        return len(component_masks(rows)) <= 1

    def faces(self) -> list[tuple[Dart, ...]]:
        """Face boundaries as dart orbits of (twin, then rotation successor)."""
        succ: dict[Dart, Dart] = {}
        listed: set[str] = set()
        for es in self.rotation.values():
            darts = []
            for e in es:
                darts.append((e, int(e in listed)))
                listed.add(e)
            for i, d in enumerate(darts):
                succ[d] = darts[(i + 1) % len(darts)]
        out = []
        seen: set[Dart] = set()
        for d0 in sorted(succ):
            if d0 in seen:
                continue
            face = []
            d = d0
            while d not in seen:
                seen.add(d)
                face.append(d)
                d = succ[d[0], 1 - d[1]]
            out.append(tuple(face))
        return out


# -- series-parallel construction ------------------------------------------------


class _OpsScript(Immutable):
    """Immutable value holding a checked tuple of construction ops.

    Two scripts are equal when they are of the same class with equal ops.
    Subclasses check the ops in ``__init__`` and set them with
    ``object.__setattr__``.
    """

    __slots__ = ("ops",)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.ops!r})"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.ops == other.ops

    def __hash__(self):
        return hash(self.ops)

    def __len__(self):
        return len(self.ops)


class SPSequence(_OpsScript):
    """Immutable construction script: "digon" first, then series/parallel ops on edge ids.

    The digon creates edges e1 and e2; the k-th later op creates edge
    e{k+2} (series: the named edge keeps its id for the half at its first
    endpoint, the new id is the other half; parallel: the new id is the new
    parallel edge).
    """

    __slots__ = ()

    def __init__(self, ops: Iterable[tuple]):
        ops = tuple(ops)
        if not ops or ops[0] != ("digon",):
            raise ValueError('an SPSequence must start with ("digon",)')
        known = {"e1", "e2"}
        counter = 2
        for op in ops[1:]:
            if len(op) != 2 or op[0] not in ("series", "parallel"):
                raise ValueError(f"bad op {op!r}")
            if op[1] not in known:
                raise ValueError(f"op {op!r} references unknown edge")
            counter += 1
            known.add(f"e{counter}")
        object.__setattr__(self, "ops", ops)

    def to_text(self) -> str:
        return "\n".join(op[0] if len(op) == 1 else f"{op[0]} {op[1]}" for op in self.ops) + "\n"


def build_sp(seq: SPSequence) -> PlaneMultigraph:
    """Replay a series-parallel construction into a plane multigraph."""
    vertices = ["v1", "v2"]
    ends = {"e1": ("v1", "v2"), "e2": ("v1", "v2")}
    rotation = {"v1": ["e1", "e2"], "v2": ["e2", "e1"]}
    for kind, e in seq.ops[1:]:
        f = f"e{len(ends) + 1}"
        u, v = ends[e]
        if kind == "series":
            mid = f"v{len(vertices) + 1}"
            vertices.append(mid)
            ends[e] = (u, mid)
            ends[f] = (mid, v)
            rotation[mid] = [e, f]
            rv = rotation[v]
            rv[rv.index(e)] = f
        else:
            ends[f] = (u, v)
            ru = rotation[u]
            ru.insert(ru.index(e) + 1, f)
            rv = rotation[v]
            rv.insert(rv.index(e), f)
    return PlaneMultigraph(vertices, rotation)


# -- medial digraph ----------------------------------------------------------------


def medial_digraph(g: PlaneMultigraph) -> EulerDigraph:
    """Oriented medial digraph: arcs follow the rotation order at each vertex."""
    if not g.is_connected():
        raise ValueError("medial digraph needs a connected plane graph")
    if g.m == 0:
        raise ValueError("medial digraph needs at least one edge")
    if g.n - g.m + len(g.faces()) != 2:  # Euler's formula, connectivity checked above
        raise ValueError("rotation system is not a plane embedding (V - E + F != 2)")
    has_loop = any(u == v for u, v in g.edge_map.values())
    if g.m < 2 and not has_loop:
        raise ValueError("medial of a bridge-only graph with fewer than 2 edges degenerates")
    arcs = []
    for v in g.vertex_ids:
        es = g.rotation[v]
        for i, e in enumerate(es):
            arcs.append((f"m{len(arcs) + 1}", e, es[(i + 1) % len(es)]))
    return EulerDigraph(sorted(g.edge_map), arcs)


# -- Tutte polynomial by deletion / contraction ----------------------------------


def _normalize_edges(edges: Sequence[tuple]) -> tuple:
    """Deterministic labelled key: relabel by first occurrence in sorted edge order."""
    sorted_edges = sorted(tuple(sorted(e)) for e in edges)
    label: dict = {}
    out = []
    for u, v in sorted_edges:
        for z in (u, v):
            if z not in label:
                label[z] = len(label)
        out.append((label[u], label[v]) if label[u] <= label[v] else (label[v], label[u]))
    return tuple(sorted(out))


def _blocks(edges: Sequence[tuple]) -> tuple[int, int, list[list[tuple]]]:
    """Bridges, loops and the other blocks of a multigraph, each block a list of its edges.

    Hopcroft-Tarjan on an explicit stack, with a stack of edges: when the
    search steps back from w to its parent u and nothing below w reaches
    above u, the edges stacked since the tree edge u-w are one block.
    Parallel edges share a block, so a block of one edge is a bridge.
    """
    adj: dict = {}
    for idx, (u, v) in enumerate(edges):
        if u != v:
            adj.setdefault(u, []).append((v, idx))
            adj.setdefault(v, []).append((u, idx))
    disc: dict = {}
    low: dict = {}
    stacked: list[int] = []
    bridges, blocks = 0, []
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        search = [(root, -1, 0, iter(adj[root]))]
        while search:
            v, up, base, it = search[-1]
            for w, idx in it:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    search.append((w, idx, len(stacked), iter(adj[w])))
                    stacked.append(idx)
                    break
                if idx != up and disc[w] < disc[v]:
                    stacked.append(idx)
                    low[v] = min(low[v], disc[w])
            else:
                search.pop()
                if search:
                    u = search[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        if len(stacked) - base == 1:
                            bridges += 1
                        else:
                            blocks.append([edges[k] for k in stacked[base:]])
                        del stacked[base:]
    return bridges, sum(u == v for u, v in edges), blocks


def _tutte(edges: tuple, memo: dict, w: int, wd: int) -> int:
    """Tutte of a non-empty normalized edge tuple at x = 2^w, y = 2^wd.

    Unless the edges form one block of two or more edges, the polynomial is
    the product over the blocks, a bridge giving x and a loop y.  A block
    with as many edges m as vertices is a cycle (a digon is one), whose
    polynomial is x + x^2 + ... + x^(m-1) + y.  Otherwise the k copies C of
    the first edge, which lead the sorted tuple, are deleted and contracted
    in one step.  With nothing else left, the block is a k-bond, whose
    polynomial is x + y + ... + y^(k-1).  Else the block is 2-connected on at
    least 3 vertices, so no copy is ever a bridge, and k deletion/contraction
    steps give T(G) = T(G - C) + (1 + y + ... + y^(k-1)) T(G / C).
    """
    res = memo.get(edges)
    if res is not None:
        return res
    bridges, loops, blocks = _blocks(edges)
    if bridges or loops or len(blocks) > 1:
        res = 1 << w * bridges + wd * loops
        for block in blocks:
            res *= _tutte(_normalize_edges(block), memo, w, wd)
    elif len(edges) == 1 + max(v for _, v in edges):
        x = 1 << w  # x + ... + x^(m-1) is the geometric sum (x^m - x) / (x - 1)
        res = ((1 << w * len(edges)) - x) // (x - 1) + (1 << wd)
    else:
        (u, v), k = edges[0], edges.count(edges[0])
        rest = edges[k:]
        ys = ((1 << wd * k) - 1) // ((1 << wd) - 1)  # 1 + y + ... + y^(k-1)
        if not rest:
            res = (1 << w) + ys - 1
        else:
            contracted = [(u if a == v else a, u if b == v else b) for a, b in rest]
            res = (_tutte(_normalize_edges(rest), memo, w, wd)
                   + ys * _tutte(_normalize_edges(contracted), memo, w, wd))
    memo[edges] = res
    return res


def tutte_polynomial(g) -> SparsePoly:
    """Tutte polynomial of a multigraph (PlaneMultigraph or iterable of edge pairs).

    The vertices are relabelled 0, 1, ... first, so any hashable labels do.
    Bridges and loops are factors x and y, and the other blocks are solved
    apart and multiplied.  Blocks B are packed at x = 2^w, y = 2^(w*d),
    w = |E| + 1 and d = sum(|V_B| - 1) + 1: the x-degree is the rank
    sum(|V_B| - 1), and the coefficients are non-negative and sum to the number
    of spanning forests, at most 2^|E|.  Each width has one memo for this call.
    """
    edges = g.edge_list() if isinstance(g, PlaneMultigraph) else [tuple(e) for e in g]
    index: dict = {}
    edges = [(index.setdefault(u, len(index)), index.setdefault(v, len(index))) for u, v in edges]
    bridges, loops, blocks = _blocks(edges)
    memos: dict = {}
    return _packed_product([_normalize_edges(b) for b in blocks],
                           lambda part, w, d: _tutte(part, memos.setdefault((w, d), {}), w, w * d),
                           lambda parts: (sum(map(len, parts)) + 1,
                                          sum(len({z for e in p for z in e}) - 1 for p in parts) + 1),
                           (bridges, loops))


def diagonal(p: SparsePoly) -> SparsePoly:
    """Collapse a polynomial in x and y to the diagonal y = x."""
    acc: dict = {}
    for (a, b), c in p.terms.items():
        acc[(a + b,)] = acc.get((a + b,), 0) + c
    return SparsePoly(("x",), acc)


def _beta_of(t: SparsePoly) -> int:
    """The common coefficient of x^1 and y^1 in a Tutte polynomial."""
    bx = t.coefficient({"x": 1})
    by = t.coefficient({"y": 1})
    if bx != by:
        raise AssertionError(f"x and y coefficients differ: {bx} vs {by}")
    return bx


def beta_invariant(g) -> int:
    """Common coefficient of x^1 and y^1 in the Tutte polynomial (needs >= 2 edges)."""
    edges = g.edge_list() if isinstance(g, PlaneMultigraph) else [tuple(e) for e in g]
    if len(edges) < 2:
        raise ValueError("beta needs at least 2 edges")
    return _beta_of(tutte_polynomial(edges))


# -- fast diagonal Tutte for series-parallel sequences ------------------------------


def sp_diagonal_tutte(seq: SPSequence) -> SparsePoly:
    """t(G; x, x) of a series-parallel construction, in polynomial time.

    Edge e{k} is index k - 1 of the two-terminal script that
    ``_two_terminal_diagonal`` evaluates with one pair per edge: the digon
    composes e2 into e1 in parallel, and the k-th op after it splits its
    edge into that edge and e{k+2}.  The packed evaluation's digit width
    comes from the spanning-tree count tau = t(G; 1, 1), which bounds every
    coefficient, found by a first run at x = 1; not from the bound 2^|E|
    on tau.
    """
    steps = [(False, 0, 1)]
    steps += [(kind == "series", int(e[1:]) - 1, k) for k, (kind, e) in enumerate(seq.ops[1:], 2)]
    return _two_terminal_diagonal(steps)


def _two_terminal_diagonal(steps: Sequence[tuple[bool, int, int]]) -> SparsePoly:
    """t(G; x, x) of a two-terminal script on the edges 0, 1, ..., len(steps).

    Each step (series, e, f) splits edge e into e and the new edge f, in
    series or in parallel; the first step's e is the root edge.  Every edge
    carries the pair (c, d) of its two-terminal network: the partition
    function with the terminals joined and apart, normalised so that a
    single edge is (1, 1).  With s = x - 1,

        series:   (c1*c2, c1*d2 + d1*c2 + s*d1*d2)
        parallel: (s*c1*c2 + c1*d2 + d1*c2, d1*d2).

    Replaying the steps backwards composes the pair of each f into its e,
    and t(G; x, x) = c + s*d at the root.

    The coefficients of t(G; x, x) are non-negative and sum to the number
    tau of spanning trees, t(G; 1, 1).  So one run in plain integers at
    s = 0 gives tau, and a second at x0 = 2^bits, bits = bits(tau) + 1,
    holds each coefficient as one base-x0 digit; the digits read back must
    sum to tau, or ``AssertionError`` is raised.
    """
    def run(bits):
        # s * t is (t << bits) - t, which is 0 at s = 0, and three products
        # give c1*d2 + d1*c2 = (c1 + d1)(c2 + d2) - c1*c2 - d1*d2
        c, d = [1] * (len(steps) + 1), [1] * (len(steps) + 1)
        for series, e, f in reversed(steps):
            c1, d1, c2, d2 = c[e], d[e], c[f], d[f]
            c[f] = d[f] = None
            cc, dd = c1 * c2, d1 * d2
            mixed = (c1 + d1) * (c2 + d2) - cc - dd
            if series:
                c[e], d[e] = cc, mixed + (dd << bits) - dd
            else:
                c[e], d[e] = mixed + (cc << bits) - cc, dd
        root = steps[0][1]
        return c[root] + (d[root] << bits) - d[root]

    bits = (tau := run(0)).bit_length() + 1
    poly = SparsePoly.from_base_digits(("x",), run(bits), bits)
    if sum(poly.terms.values()) != tau:
        raise AssertionError(f"diagonal Tutte digits do not sum to tau = {tau}")
    return poly


# -- medial / diagonal identity -----------------------------------------------------


class MedialTutteReport(NamedTuple):
    """q_N(H; x) = t(G; x, x) for the circle graph H of a medial Euler circuit,
    plus gamma(H) = 2 * beta(G)."""

    tutte_diagonal: SparsePoly
    qn_circle: SparsePoly
    gamma: int
    beta: int

    @property
    def ok(self) -> bool:
        return self.tutte_diagonal == self.qn_circle and self.gamma == 2 * self.beta

    def __str__(self) -> str:
        eq = "=" if self.tutte_diagonal == self.qn_circle else "!="
        gq = "=" if self.gamma == 2 * self.beta else "!="
        return (f"q_N(H) = {self.qn_circle} {eq} t(G;x,x) = {self.tutte_diagonal}; "
                f"gamma(H) = {self.gamma} {gq} 2*beta(G) = {2 * self.beta}")


def verify_medial_tutte_identity(g) -> MedialTutteReport:
    """Run the medial pipeline on a plane graph or SPSequence and compare both sides.

    gamma(H) is counted by the state sum, not read off q_N(H), so that
    gamma(H) = 2 * beta(G) checks the definition of gamma on its own.
    """
    if isinstance(g, SPSequence):
        g = build_sp(g)
    if not isinstance(g, PlaneMultigraph):
        raise TypeError("need a PlaneMultigraph or SPSequence")
    if g.m < 2:
        raise ValueError("identity check needs at least 2 edges")
    t = tutte_polynomial(g)
    med = medial_digraph(g)
    circ = euler_circuit(med)
    h = circle_graph(chord_diagram_from_circuit(med, circ))
    qn = qn_recursive(h)
    return MedialTutteReport(diagonal(t), qn, gamma_state_sum(h), _beta_of(t))
