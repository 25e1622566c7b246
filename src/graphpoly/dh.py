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
The peel ``_peel`` works in vertex-index space: it keeps the rows at their
original indices, records each removal as an index triple, and buckets the
live vertices by open neighbourhood, with one bitmask each for pendants and
for vertices with a false twin.  Removing v changes only the rows of its
neighbours, so a step re-buckets v and its neighbours: O(deg v) bucket
updates on n-bit keys, O(|E|) over the whole peel.  The buckets by closed
neighbourhood and the true-twin mask are built from the live rows once
no pendant or false twin is left, and kept from then on, so a peel that
never gets there, such as that of any BDH graph, never builds them.
``recognize_dh`` and ``is_bdh`` map the triples to vertex ids and return
the named tuples ``DHRecognition`` and ``BdhCheck``.  A ``DHSequence`` is an
immutable ``__slots__`` value, like ``Graph``, that checks its ops when built.

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

``qn_bdh_fast`` takes the same route without the labelled sequences: it
replays the peel's triples forwards to colour the vertices, with vertex v
tracking edge v, and hands the series/parallel steps as integers to the
two-terminal evaluator of ``planar``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graphs import Graph, bit_indices, compact_rows, toggle_rows
from .planar import SPSequence, _OpsScript, _two_terminal_diagonal
from .poly import SparsePoly


class DHSequence(_OpsScript):
    """Immutable construction script: ("root", v) then pendant/truetwin/falsetwin ops.

    Each op adds a new vertex at an earlier one, the first op a pendant."""

    __slots__ = ()

    def __init__(self, ops: Iterable[tuple]):
        ops = tuple(tuple(str(x) for x in op) for op in ops)
        if not ops or ops[0][0] != "root" or len(ops[0]) != 2:
            raise ValueError('a DHSequence must start with ("root", v)')
        known = {ops[0][1]}
        for op in ops[1:]:
            if len(op) != 3 or op[0] not in ("pendant", "truetwin", "falsetwin"):
                raise ValueError(f"bad op {op!r}")
            kind, new, at = op
            if new in known:
                raise ValueError(f"vertex {new!r} added twice")
            if at not in known:
                raise ValueError(f"op references unknown vertex {at!r}")
            if kind != "pendant" and len(known) == 1:
                raise ValueError("second op must be a pendant (twins need a non-isolated vertex)")
            known.add(new)
        object.__setattr__(self, "ops", ops)

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
    index = {seq.ops[0][1]: 0}
    rows = [0]
    for kind, new, at in seq.ops[1:]:
        i = index[at]
        if kind == "pendant":
            row = 1 << i
        else:
            row = rows[i] | 1 << i if kind == "truetwin" else rows[i]
        index[new] = len(rows)
        rows.append(row)
        toggle_rows(rows, row, 1 << index[new])
    # each new row is mirrored into its neighbours; DHSequence checked the ids
    return Graph.__new__(Graph)._set(tuple(index), tuple(rows))


# -- recognition ------------------------------------------------------------------


class DHRecognition(NamedTuple):
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


def _peel(rows) -> tuple[list, int]:
    """The greedy peel on adjacency rows: removal triples in peel order, and the alive mask.

    Each triple is (kind, removed, partner) in vertex indices, kind 0, 1 or 2
    for pendant, false twin or true twin.  The peel succeeded iff one vertex
    is left alive; otherwise the alive vertices are the stuck residual.
    """
    rows = list(rows)
    alive = (1 << len(rows)) - 1
    # open neighbourhood -> members (non-isolated vertices), and once only a
    # true twin can be chosen, closed neighbourhood -> members (degree two or
    # more: keeping the partner must leave it non-isolated, which rules out
    # recording K_2 as a true twin)
    open_rows: dict[int, int] = {}
    closed_rows: dict[int, int] | None = None
    pend = ftwin = ttwin = 0
    for v, r in enumerate(rows):
        if r:
            bit = 1 << v
            open_rows[r] = open_rows.get(r, 0) | bit
            if not r & (r - 1):
                pend |= bit
    for members in open_rows.values():
        if members & (members - 1):
            ftwin |= members
    steps = []
    while alive & (alive - 1):
        if closed_rows is None and not pend | ftwin:
            closed_rows = {}
            for v in bit_indices(alive):
                r = rows[v]
                if r & (r - 1):
                    key = r | 1 << v
                    closed_rows[key] = closed_rows.get(key, 0) | 1 << v
            for members in closed_rows.values():
                if members & (members - 1):
                    ttwin |= members
        if pend:
            kind, bit = 0, pend & -pend
            rem = bit.bit_length() - 1
            partner = rows[rem].bit_length() - 1
        elif ftwin or ttwin:
            kind, bit = (1, ftwin & -ftwin) if ftwin else (2, ttwin & -ttwin)
            rem = bit.bit_length() - 1
            group = (open_rows[rows[rem]] if ftwin else closed_rows[rows[rem] | bit]) ^ bit
            partner = (group & -group).bit_length() - 1
        else:
            break
        steps.append((kind, rem, partner))
        alive ^= bit
        # rem leaves its buckets, and each neighbour moves from the buckets
        # of its row to those of its row without rem
        todo = r = rows[rem]
        ubit, nr = bit, 0
        while True:
            members = open_rows.pop(r) ^ ubit
            if members:
                open_rows[r] = members
                ftwin ^= ubit if members & (members - 1) else ubit | members
            if not r & (r - 1):
                pend ^= ubit
            elif nr and not nr & (nr - 1):
                pend |= ubit
            if closed_rows is not None:
                if r & (r - 1):
                    key = r | ubit
                    members = closed_rows.pop(key) ^ ubit
                    if members:
                        closed_rows[key] = members
                        ttwin ^= ubit if members & (members - 1) else ubit | members
                if nr & (nr - 1):
                    key = nr | ubit
                    old = closed_rows.get(key, 0)
                    closed_rows[key] = old | ubit
                    if old:
                        ttwin |= ubit if old & (old - 1) else old | ubit
            if nr:
                old = open_rows.get(nr, 0)
                open_rows[nr] = old | ubit
                if old:
                    ftwin |= ubit if old & (old - 1) else old | ubit
            if not todo:
                break
            ubit = todo & -todo
            todo ^= ubit
            u = ubit.bit_length() - 1
            r = rows[u]
            rows[u] = nr = r ^ bit
    return steps, alive


def recognize_dh(g: Graph) -> DHRecognition:
    """Greedy pendant/twin peel in one fixed order.

    The order prefers pendants, then false twins, then true twins,
    removing the earliest vertex first against its earliest partner.  The
    number of true twins does not depend on the peel order (Bandelt &
    Mulder, 1986).
    """
    g.require_simple("distance-hereditary recognition")
    if g.n == 0:
        raise ValueError("empty graph")
    ids = g.ids
    steps, alive = _peel(g.rows)
    if alive & (alive - 1):
        # an induced subgraph of g keeps its symmetry and distinct ids
        return DHRecognition(None, Graph.__new__(Graph)._set(
            tuple([ids[v] for v in bit_indices(alive)]), compact_rows(g.rows, alive)))
    ops = [("root", ids[alive.bit_length() - 1])]
    ops += [(_KINDS[kind], ids[rem], ids[partner]) for kind, rem, partner in reversed(steps)]
    return DHRecognition(DHSequence(tuple(ops)), None)


class BdhCheck(NamedTuple):
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
    index = {op[1]: k for k, op in enumerate(ops)}
    script = _sp_script([(_KINDS.index(kind), index[new], index[at])
                         for kind, new, at in reversed(ops[1:])])
    sp_ops = [("digon",)] + [("series" if series else "parallel", f"e{at + 1}")
                             for series, at, _ in script[1:]]
    return SPSequence(tuple(sp_ops)), {v: f"e{k + 1}" for v, k in index.items()}


def qn_bdh_fast(g: Graph) -> SparsePoly:
    """Vertex-nullity interlace polynomial through the series-parallel route.

    Recognition, conversion and the weighted Tutte evaluation are all
    polynomial in the vertex count, unlike the general routes.  The peel's
    removals give the two-terminal script directly, with no labelled
    sequence in between.
    """
    g.require_simple("fast interlace evaluation")
    if g.n == 0:
        raise ValueError("empty graph")
    if g.n == 1:
        return SparsePoly(("x",), {(1,): 1})
    steps, alive = _peel(g.rows)
    if alive & (alive - 1) or any(kind == 2 for kind, _, _ in steps):
        # a disconnected graph never peels to one vertex
        if not g.is_connected():
            raise ValueError("graph is disconnected")
        raise ValueError(f"not a bipartite distance-hereditary graph: {is_bdh(g).reason}")
    return _two_terminal_diagonal(_sp_script(steps))


def _sp_script(steps: list) -> list:
    """The two-terminal script of a true-twin-free peel, by the colour rule of the module docstring.

    Replaying the removals forwards colours the vertices, root white; vertex
    v tracks edge v, and a step (series, at, new) splits edge at.
    """
    black = [False] * (len(steps) + 1)
    script = []
    for kind, new, at in reversed(steps):
        pendant = kind == 0
        script.append((black[at] == pendant, at, new))
        black[new] = black[at] ^ pendant
    return script
