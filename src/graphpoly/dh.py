"""Distance-hereditary graphs: construction, recognition and fast interlace evaluation.

A distance-hereditary (DH) graph grows from a single root by three moves:
attach a pendant vertex, add a true twin (same closed neighbourhood) or add
a false twin (same open neighbourhood, not adjacent).  Twins may only be
added to non-isolated vertices, so the first move is always a pendant.
The bipartite ones (BDH) are exactly those needing no true twins.

Recognition peels greedily: a pendant vertex or a twin of an existing
vertex can always be removed from a DH graph until one vertex is left;
replaying the removals backwards is a construction sequence.  A graph where
the peel gets stuck is not DH, and the stuck residual is the certificate.

``bdh_to_sp`` converts a true-twin-free sequence into a series-parallel
construction whose diagonal Tutte polynomial equals q_N of the graph.  Each
graph vertex tracks the series-parallel edge it stands for plus one colour
bit.  A pendant attached at a black vertex subdivides the tracked edge and
the new vertex is white; at a white vertex it adds a parallel edge and the
new vertex is black.  A false twin does the opposite operation and inherits
the colour.  The attachment vertex keeps its edge and colour.  Globally
flipping every colour builds the planar dual, which leaves the diagonal
Tutte evaluation unchanged, so only the relative colours matter; the root
starts white and the first pendant black.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import Graph
from .planar import SPSequence, sp_diagonal_tutte
from .poly import SparsePoly


@dataclass(frozen=True)
class DHSequence:
    """Construction script: ("root", v) then pendant/truetwin/falsetwin ops."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(tuple(str(x) for x in op) for op in self.ops)
        object.__setattr__(self, "ops", ops)
        if not ops or ops[0][0] != "root" or len(ops[0]) != 2:
            raise ValueError('a DHSequence must start with ("root", v)')
        for op in ops[1:]:
            if len(op) != 3 or op[0] not in ("pendant", "truetwin", "falsetwin"):
                raise ValueError(f"bad op {op!r}")

    def __len__(self):
        return len(self.ops)

    @property
    def true_twin_count(self) -> int:
        return sum(1 for op in self.ops if op[0] == "truetwin")

    def vertex_count(self) -> int:
        return len(self.ops)

    def to_text(self) -> str:
        lines = []
        for op in self.ops:
            if op[0] == "root":
                lines.append(f"root {op[1]}")
            elif op[0] == "pendant":
                lines.append(f"pendant {op[1]} on {op[2]}")
            else:
                lines.append(f"{op[0]} {op[1]} of {op[2]}")
        return "\n".join(lines) + "\n"


def apply_dh_sequence(seq: DHSequence) -> Graph:
    """Replay a construction sequence into the connected simple graph it describes."""
    adj: dict[str, set] = {}

    def check_known(v):
        if v not in adj:
            raise ValueError(f"op references unknown vertex {v!r}")

    for op in seq.ops:
        kind = op[0]
        if kind == "root":
            adj[op[1]] = set()
            continue
        new, at = op[1], op[2]
        if new in adj:
            raise ValueError(f"vertex {new!r} added twice")
        check_known(at)
        if kind == "pendant":
            adj[new] = {at}
            adj[at].add(new)
        else:
            if not adj[at]:
                raise ValueError(f"cannot twin isolated vertex {at!r}")
            adj[new] = set(adj[at])
            if kind == "truetwin":
                adj[new].add(at)
            for z in adj[new]:
                adj[z].add(new)
    order = [op[1] for op in seq.ops]
    edges = [(u, v) for u in order for v in sorted(adj[u]) if u < v]
    return Graph.from_edges(edges, order)


# -- recognition ------------------------------------------------------------------


@dataclass(frozen=True)
class DHRecognition:
    """Outcome of the greedy peel: a replayable sequence, or the stuck residual."""

    sequence: DHSequence | None
    residual: Graph | None

    @property
    def accepted(self) -> bool:
        return self.sequence is not None

    @property
    def true_twin_count(self) -> int:
        if self.sequence is None:
            raise ValueError("graph was rejected")
        return self.sequence.true_twin_count


def _peel_candidates(ids, rows):
    """All legal removals as (priority, removed, partner, kind)."""
    n = len(ids)
    out = []
    open_rows: dict[int, list] = {}
    closed_rows: dict[int, list] = {}
    for i in range(n):
        r = rows[i]
        if r and r & (r - 1) == 0:
            j = r.bit_length() - 1
            out.append((0, i, j, "pendant"))
        if r:  # twins only on non-isolated vertices
            open_rows.setdefault(r, []).append(i)
        closed_rows.setdefault(r | (1 << i), []).append(i)
    for grp in open_rows.values():
        for a in grp:
            for b in grp:
                if a != b:
                    out.append((1, a, b, "falsetwin"))
    for key, grp in closed_rows.items():
        # keeping b must leave it non-isolated, so the pair needs a third
        # closed neighbour (rules out recording K_2 as a true-twin step)
        if bin(key).count("1") < 3:
            continue
        for a in grp:
            for b in grp:
                if a != b:
                    out.append((2, a, b, "truetwin"))
    return out


def recognize_dh(g: Graph, rng: random.Random | None = None) -> DHRecognition:
    """Greedy pendant/twin peel; deterministic order unless an rng is supplied.

    The deterministic order prefers pendants, then false twins, then true
    twins, removing the earliest vertex first.  With an rng the step is
    chosen uniformly among all legal removals, which exercises the fact
    that the number of true twins does not depend on the peel order.
    """
    g.require_simple("distance-hereditary recognition")
    if g.n == 0:
        raise ValueError("empty graph")
    ids = list(g.ids)
    rows = list(g.rows)
    removed_ops = []
    while len(ids) > 1:
        cands = _peel_candidates(ids, rows)
        if not cands:
            return DHRecognition(None, Graph(ids, rows))
        if rng is None:
            choice = min(cands)
        else:
            choice = cands[rng.randrange(len(cands))]
        _, rem, partner, kind = choice
        removed_ops.append((kind, ids[rem], ids[partner]))
        ids.pop(rem)
        low = (1 << rem) - 1
        rows = [((r & low) | ((r >> (rem + 1)) << rem)) for k, r in enumerate(rows) if k != rem]
    ops = [("root", ids[0])] + removed_ops[::-1]
    return DHRecognition(DHSequence(tuple(ops)), None)


@dataclass(frozen=True)
class BdhCheck:
    """is-BDH verdict with the criterion that settled it."""

    value: bool
    reason: str
    recognition: DHRecognition

    def __bool__(self):
        return self.value


def is_bdh(g: Graph) -> BdhCheck:
    """True iff g is distance-hereditary with a true-twin-free construction."""
    rec = recognize_dh(g)
    if not rec.accepted:
        return BdhCheck(False, f"not distance-hereditary (stuck residual on "
                               f"{rec.residual.n} vertices)", rec)
    if rec.true_twin_count > 0:
        return BdhCheck(False, f"construction needs {rec.true_twin_count} true twin(s)", rec)
    return BdhCheck(True, "pendant and false-twin construction found", rec)


# -- direct cross-checks used against the recognizer --------------------------------


def is_62_chordal(g: Graph) -> bool:
    """Every cycle of length at least 6 has at least two chords (small graphs only)."""
    ids = g.ids
    n = g.n
    adjset = {v: set(g.neighbors(v)) for v in ids}

    def chords_of(cycle):
        cyc = set(cycle)
        k = len(cycle)
        consecutive = {frozenset((cycle[i], cycle[(i + 1) % k])) for i in range(k)}
        count = 0
        for i in range(k):
            for j in range(i + 1, k):
                pair = frozenset((cycle[i], cycle[j]))
                if pair in consecutive:
                    continue
                if cycle[j] in adjset[cycle[i]]:
                    count += 1
        return count

    # enumerate simple cycles by DFS from a least vertex, avoiding double counting
    ok = True
    order = {v: i for i, v in enumerate(ids)}

    def extend(path):
        nonlocal ok
        if not ok:
            return
        start = path[0]
        last = path[-1]
        for w in sorted(adjset[last], key=order.get):
            if w == start and len(path) >= 3:
                if len(path) >= 6 and path[1] < path[-1] and chords_of(path) < 2:
                    ok = False
                    return
            if order[w] <= order[start] or w in path:
                continue
            extend(path + [w])

    for v in ids:
        extend([v])
        if not ok:
            return False
    return ok


# -- gamma shortcuts ------------------------------------------------------------------


def gamma_from_sequence(seq: DHSequence) -> int:
    """2^(t+1) where t counts the true-twin ops (needs at least two vertices)."""
    if seq.vertex_count() < 2:
        raise ValueError("gamma shortcut needs at least two vertices "
                         "(a single vertex has gamma 1)")
    return 2 ** (seq.true_twin_count + 1)


# -- series-parallel correspondence ----------------------------------------------------


def bdh_to_sp(seq: DHSequence) -> tuple[SPSequence, dict]:
    """Series-parallel construction matching a true-twin-free sequence.

    Returns the SPSequence together with the map from graph vertices to the
    series-parallel edge each one tracks.  The diagonal Tutte polynomial of
    the built graph equals q_N of the replayed sequence.
    """
    if seq.true_twin_count:
        raise ValueError("sequence uses true twins; no bipartite series-parallel form")
    if seq.vertex_count() < 2:
        raise ValueError("need at least two vertices")
    ops = seq.ops
    if ops[1][0] != "pendant":
        raise ValueError("second op must be a pendant (twins need a non-isolated vertex)")
    root, first = ops[0][1], ops[1][1]
    sp_ops: list[tuple] = [("digon",)]
    edge_of = {root: "e1", first: "e2"}
    black = {root: False, first: True}
    counter = 2
    for kind, new, at in ops[2:]:
        e = edge_of[at]
        series = black[at] if kind == "pendant" else not black[at]
        sp_ops.append(("series" if series else "parallel", e))
        counter += 1
        edge_of[new] = f"e{counter}"
        black[new] = (not black[at]) if kind == "pendant" else black[at]
    return SPSequence(tuple(sp_ops)), edge_of


def qn_bdh_fast(g: Graph) -> SparsePoly:
    """Vertex-nullity interlace polynomial through the series-parallel route.

    Recognition, conversion and the weighted Tutte evaluation are all
    polynomial in the vertex count, unlike the general routes.
    """
    g.require_simple("fast interlace evaluation")
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    if g.n == 1:
        return SparsePoly(("x",), {(1,): 1})
    check = is_bdh(g)
    if not check.value:
        raise ValueError(f"not a bipartite distance-hereditary graph: {check.reason}")
    sp, _ = bdh_to_sp(check.recognition.sequence)
    return sp_diagonal_tutte(sp)


# -- structural property report ----------------------------------------------------------


@dataclass(frozen=True)
class StructuralReport:
    """Bundle of structural facts checked on one graph."""

    pendant_pivot_duality_ok: bool
    removal_closure_ok: bool
    true_twin_count_constant: bool
    join_closure_ok: bool
    peel_orders_tried: int

    @property
    def ok(self) -> bool:
        return (self.pendant_pivot_duality_ok and self.removal_closure_ok
                and self.true_twin_count_constant and self.join_closure_ok)

    def __str__(self) -> str:
        bits = [
            f"pendant/false-twin pivot duality: {'ok' if self.pendant_pivot_duality_ok else 'FAIL'}",
            f"closure under pendant/false-twin removal: {'ok' if self.removal_closure_ok else 'FAIL'}",
            f"true-twin count over {self.peel_orders_tried} peel orders: "
            f"{'constant' if self.true_twin_count_constant else 'VARIES'}",
            f"one-point join stays BDH: {'ok' if self.join_closure_ok else 'FAIL'}",
        ]
        return "; ".join(bits)


def _is_false_twin(g: Graph, u, v) -> bool:
    return (not g.has_edge(u, v)
            and set(g.neighbors(u)) - {str(v)} == set(g.neighbors(v)) - {str(u)})


def structural_checks(g: Graph, seq: DHSequence | None = None,
                      peel_orders: int = 20, seed: int = 0) -> StructuralReport:
    """Pivot duality, removal closure, peel-order independence and join closure on g.

    When a construction sequence is supplied it must replay to g, and its
    true-twin count anchors the order-independence check.
    """
    g.require_simple("structural checks")
    if seq is not None and apply_dh_sequence(seq) != g:
        raise ValueError("sequence does not replay to the given graph")
    duality_ok = True
    for w in g.ids:
        if g.degree(w) != 1:
            continue
        (u,) = g.neighbors(w)
        for v in g.neighbors(u):
            if v == w:
                continue
            piv = g.pivot(u, v)
            if not _is_false_twin(piv, w, v):
                duality_ok = False
    check = is_bdh(g)
    removal_ok = True
    if check.value and g.n >= 3:
        for v in g.ids:
            if g.degree(v) == 1 or any(_is_false_twin(g, v, u) for u in g.ids if u != v):
                if not is_bdh(g.without(v)).value:
                    removal_ok = False
    rng = random.Random(seed)
    counts = set()
    constant = True
    if seq is not None:
        counts.add(seq.true_twin_count)
    if recognize_dh(g).accepted:
        for _ in range(peel_orders):
            rec = recognize_dh(g, rng)
            counts.add(rec.true_twin_count)
        constant = len(counts) == 1
    join_ok = True
    if check.value and g.n >= 2:
        u = next(v for v in g.ids if g.degree(v) > 0)
        joined = g.one_point_join(u, g, u)
        join_ok = is_bdh(joined).value
    return StructuralReport(duality_ok, removal_ok, constant, join_ok, peel_orders)
