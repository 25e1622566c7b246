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
The peel keeps the rows at their original indices and buckets the live
vertices by open neighbourhood and by closed neighbourhood, with one
bitmask each for pendants, vertices with a false twin and vertices with a
true twin.  Removing v changes only the rows of its neighbours, so a step
re-buckets v and its neighbours: O(deg v) bucket updates on n-bit keys,
O(|E|) over the whole peel.

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


_KINDS = ("pendant", "falsetwin", "truetwin")


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _toggle_bucket(buckets: dict, key: int, bit: int, twins: int) -> int:
    """Put bit into the bucket of key, or take it out; return the updated twin mask.

    The twin mask holds exactly the vertices whose bucket has another member.
    """
    members = buckets.pop(key, 0) ^ bit
    if members:
        buckets[key] = members
    twins &= ~(bit | members)
    return twins | members if members & (members - 1) else twins


def recognize_dh(g: Graph, rng: random.Random | None = None) -> DHRecognition:
    """Greedy pendant/twin peel; deterministic order unless an rng is supplied.

    The deterministic order prefers pendants, then false twins, then true
    twins, removing the earliest vertex first against its earliest partner.
    With an rng the step is chosen uniformly among all legal removals,
    listed as pendants by index, then each twin group (by its lowest
    member) with its ordered pairs; this exercises the fact that the
    number of true twins does not depend on the peel order.
    """
    g.require_simple("distance-hereditary recognition")
    if g.n == 0:
        raise ValueError("empty graph")
    ids = g.ids
    rows = list(g.rows)
    alive = (1 << g.n) - 1
    # open neighbourhood -> members (non-isolated vertices) and closed
    # neighbourhood -> members (degree two or more: keeping the partner must
    # leave it non-isolated, which rules out recording K_2 as a true twin)
    open_rows: dict[int, int] = {}
    closed_rows: dict[int, int] = {}
    pend = ftwin = ttwin = 0

    def toggle(v):
        nonlocal pend, ftwin, ttwin
        r, bit = rows[v], 1 << v
        if r & (r - 1):
            ttwin = _toggle_bucket(closed_rows, r | bit, bit, ttwin)
        elif r:
            pend ^= bit
        else:
            return
        ftwin = _toggle_bucket(open_rows, r, bit, ftwin)

    def partners(kind, v):
        bit = 1 << v
        if kind == 0:
            return rows[v]
        if kind == 1:
            return open_rows[rows[v]] ^ bit
        return closed_rows[rows[v] | bit] ^ bit

    for v in range(g.n):
        toggle(v)
    removed_ops = []
    while alive & (alive - 1):
        if not (pend | ftwin | ttwin):
            keep = list(_bits(alive))
            pos = {v: k for k, v in enumerate(keep)}
            return DHRecognition(None, Graph([ids[v] for v in keep],
                                             [sum(1 << pos[u] for u in _bits(rows[v])) for v in keep]))
        if rng is None:
            kind = 0 if pend else 1 if ftwin else 2
            rem = next(_bits((pend, ftwin, ttwin)[kind]))
            partner = next(_bits(partners(kind, rem)))
        else:
            cands = [(0, v, rows[v].bit_length() - 1) for v in _bits(pend)]
            for kind, mask in ((1, ftwin), (2, ttwin)):
                for v in _bits(mask):
                    group = partners(kind, v) | 1 << v
                    if group & -group == 1 << v:
                        cands += [(kind, a, b) for a in _bits(group) for b in _bits(group ^ 1 << a)]
            kind, rem, partner = cands[rng.randrange(len(cands))]
        removed_ops.append((_KINDS[kind], ids[rem], ids[partner]))
        # only rem and its neighbours change buckets
        toggle(rem)
        alive ^= 1 << rem
        for u in _bits(rows[rem]):
            toggle(u)
            rows[u] ^= 1 << rem
            toggle(u)
    ops = [("root", ids[alive.bit_length() - 1])] + removed_ops[::-1]
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


# -- gamma shortcuts ------------------------------------------------------------------


def gamma_from_sequence(seq: DHSequence) -> int:
    """2^(t+1) where t counts the true-twin ops (needs at least two vertices)."""
    if len(seq) < 2:
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
    if len(seq) < 2:
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
