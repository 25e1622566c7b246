"""Interlace polynomials computed two independent ways.

The two-variable interlace polynomial of a graph G is the subset expansion

    q(G; x, y) = sum over S of (x-1)^r(G[S]) * (y-1)^n(G[S]),

where r and n are the GF(2) rank and nullity of the adjacency matrix of the
induced subgraph (loops on the diagonal).  The same polynomial satisfies a
pivot recursion: for an edge ab with both endpoints loopless,

    q(G) = q(G-a) + q(G^{ab}-b) + ((x-1)^2 - 1) * q(G^{ab}-a-b),

for a looped vertex a, q(G) = q(G-a) + (x-1) * q(G^a-a), for a loopless a
with N(a) = {b}, q(G) = q(G-a) + ((x-1)^2 + y - 1) * q(G-a-b), and
q(E_n) = y^n on the edgeless graph.  In the loop rule G^a is the local
complement at a: as a is looped, a lies in N(a), and G^a complements the
full GF(2) submatrix of the adjacency matrix on N(a), diagonal included,
so the loops inside N(a) toggle too.  That is the convention under which
the rule agrees with the subset expansion; toggling only the off-diagonal
pairs of N(a) does not.  ``q_state_sum`` and ``q_recursive`` implement
the two routes separately so each serves as an oracle for the other.

The state sums (``q_state_sum``, ``gamma_state_sum``, ``qn_from_q``,
``chords.c_polynomial``) run ``_state_sum``, one DP over the
vertices in greedy cut-rank order: each step takes the vertex that keeps
the GF(2) rank of the cut A[prefix, tail] lowest (Oum, JCTB 95, 2005).
Its state for a subset S of the prefix is S's boundary key (B, C)
against the tail: B spans the tail parts of S's dependents, C has one
row per tail vertex.  By the bordered-rank identity
rank A[S + T] = rank A[S] + rank [[0, B_T], [B_T^t, C_T]] for every tail
subset T, the key fixes every later (rank, nullity) step, so the subsets
with one key share a state: one int, their sum of X^rank Y^nullity at
X = 2^xs, Y = 2^ys, packed as ``_kernel`` packs q.  The live keys follow
the cut ranks, not the caller's labelling, and each costs O(n) bit
operations a step: 2 keys on a path, 5 on a cycle, up to 2^u at step u
on a random graph.  It does not call the recursion.  Its one limit is
``MAX_KEY_ROWS``: after a step whose states hold more than 3 * 2^20 rows
(keys times tail vertices, plus one per 512 bits of their ints), it raises
``ValueError``.  Paths, cycles, gamma of a BDH graph on 200 vertices and q
of G(25, 1/2) stay under it; q of that BDH graph, whose ints grow to
megabits, and a dense G(40, 1/2) are refused within a few seconds.

The vertex-nullity interlace polynomial q_N(G; x) = q(G; 2, x) of a simple
graph follows the same rules at x = 2, where the pivot's third term
vanishes and the pendant rule reads q_N(G) = q_N(G-a) + x q_N(G-a-b)
(Arratia, Bollobas & Sorkin, JCTB 92, 2004).  The gamma invariant is the
coefficient of x^1 in q_N: ``gamma_invariant`` reads it off the
recursion, ``gamma_state_sum`` counts it over all vertex subsets.

One kernel runs the recursion for both, at x = 2^xs, y = 2^ys; q_N is q
at xs = 1.  A disconnected graph is the product of its components, each
compacted to its own rows, and a single vertex contributes x (looped) or
y.  The kernel is told which subproblems are connected (the root, when
the breadth-first search below counts one component; the components of
a split; and a child that lost a vertex of degree at most 1 from a connected graph);
any other goes to ``graphs.component_masks``, whose search stops once it
covers every vertex, and is split if that finds more than one component.
It puts the rows in breadth-first order from a vertex of least degree,
which puts a leaf last on a tree, in one pass (``graphs.bfs_rows``) that
also counts the components and leaves rows already in that order as they
are.  It reduces a connected graph on its last vertex a and a's highest
neighbour b: by the hanging-path rule if N(a) = {b}, else by the loop rule
on a if a is looped or on b if b is, else by the pivot.  The hanging-path
rule walks a = a_1, a_2, ... while the next vertex is the one listed just before, loopless,
with one neighbour besides the last; the first that is not is r.  With
u_i = q(G - a_1..a_i), the pendant rule on a_i reads
u_{i-1} = u_i + ((x-1)^2 + y - 1) u_{i+1}, so q(G) = u_0 takes u_L,
u_{L+1} = q(G - a_1..a_L - r) and L shift-and-add steps; nothing in
between is built or memoised, and G - a_1..a_L is a slice of the rows
(L = 1 is the pendant rule).  A path the order scatters, like a spider's
leg, goes a run at a time.  The kernel deletes a by slicing the rows and
the pivot's b by moving the last vertex into its slot, so such a deletion
rewrites only the rows of the two vertices' neighbours; one that may move
or remove a looped vertex rewrites every row.  r is deleted in order, so
every subproblem of a tree stays in breadth-first order and is reduced
on a leaf.  A path takes one step, but the pivot recurses about n deep
on a cycle: long cycles exhaust Python's stack.  The memo, keyed on
the rows as the recursion leaves them, lives for one call: no later call
sees it.

The kernel holds each subproblem's polynomial as one int, its value at
x = 2^xs, y = 2^ys, whose binary digits (read by
``SparsePoly.from_base_digits``) are the coefficients; every memo entry is
laid out at the widths of the graph the kernel was called on.  q_N is
taken at x = 2, y = 2^w, w = n + 1: the recursion then only adds, from
y^m, and q_N(G'; 2) = 2^m on m vertices, so every coefficient is at most
2^(n-1) (K_n).  q takes isolated vertices off as factors x (looped) and y
and runs the kernel on each other component, at x = 2^w, y = x^d for m
vertices: x^i y^j is digit i + d j, d = rank + 1 over GF(2) bounds the
x-degree (the rank of an induced subgraph is at most that), and
w = bits(3^m) + 1, since the absolute coefficients of (x-1)^r (y-1)^nl
sum to 2^|S|, which sum to 3^m over all S.  ``poly._packed_product``
multiplies the components.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .graphs import (Graph, bfs_rows, bit_indices, compact_rows, component_masks, delete_index,
                     pivot_rows, reorder_rows, toggle_rows)
from .poly import SparsePoly, _packed_product

_QXY_VARS = ("x", "y")
MAX_KEY_ROWS = 3 << 20  # most rows a state sum holds, its ints counted (see _state_sum)


# -- state sums ---------------------------------------------------------------


def _insert(basis: tuple, r: int) -> tuple:
    """Row r joined to a GF(2) basis in reduced echelon form, leads at lowest bits, by lead."""
    for b in basis:
        if r & b & -b:
            r ^= b
    if not r:
        return basis
    low = r & -r
    return tuple(sorted([b ^ r if b & low else b for b in basis] + [r], key=lambda b: b & -b))


def _cut_rank_order(rows: tuple) -> list[int]:
    """The vertices in greedy cut-rank order.

    Each step moves from the tail to the prefix the v that minimises
    (rank A[prefix + v, tail - v], |N(v) & (tail - v)|, v).  B, the prefix
    rows on the tail columns in ``_insert``'s form, gives that rank in O(|B|):
    clearing column v drops it by one iff the row 1 << v is in B, and v's row
    r on tail - v raises it by one unless r reduces to 0 or to the reduction
    beta ^ (1 << v) of 1 << v, beta being B's row led by v, if any.
    """
    order = []
    basis: tuple = ()
    tail = (1 << len(rows)) - 1
    while tail:
        leads = {b & -b: b for b in basis}
        best = None
        for v in bit_indices(tail):
            bit = 1 << v
            r = x = rows[v] & (tail ^ bit)
            for low, b in leads.items():
                if x & low:
                    x ^= b
            beta = leads.get(bit, 0)
            key = (len(basis) - (beta == bit) + (x != 0 and x != beta ^ bit), r.bit_count())
            if best is None or key < best:
                best, pick, row = key, v, r
        order.append(pick)
        tail ^= 1 << pick
        basis = reduce(_insert, [b & tail for b in basis] + [row], ())
    return order


def _state_sum(rows: tuple, xs: int, ys: int) -> int:
    """Sum over vertex subsets S of X^rank A[S] Y^nullity A[S] at X = 2^xs, Y = 2^ys.

    The rows are relabelled in ``_cut_rank_order``, which the sum does not
    depend on, and a DP runs over the vertices 0, ..., n - 1 of that
    labelling.  Before vertex u, a subset S of 0..u-1 is summed up against
    the tail u..n-1 by its boundary key (B, C).  B holds the tail parts of
    S's dependents (the row combinations of S that vanish on S) in reduced
    echelon form: the lead of a row is its lowest set bit, no other row has
    it, and the rows are sorted by lead.  C holds one row per tail vertex;
    it starts as the adjacency rows, loops on the diagonal, and stays
    symmetric.  By the bordered-rank identity, for every subset T of the tail

        rank A[S + T] = rank A[S] + rank [[0, B_T], [B_T^t, C_T]],

    so the key fixes every later increment, and the subsets with one key
    share a state: the key and one int, their sum so far.  At u, with
    c = C[u], each state has two children.  Since leads are lowest bits, at
    most one row beta of B has bit u, and it is B's first.

    - Skip u: bit u leaves every row of C and C[u] goes; beta, if any, goes
      back into B without bit u.  The int is unchanged.
    - Take u, with beta: rank + 2, nullity - 1, the Schur complement of the
      pivot [[0, 1], [1, c_uu]].  Row w of C gets c + c_uu beta if beta has
      bit w, then beta if it has bit u.  Beta goes.  Shifting the int down by
      ys is exact, as a key with a row in B has only subsets of nullity >= 1.
    - Take u, no beta, c_uu = 1: rank + 1.  Each row of C with bit u gets c.
    - Take u, otherwise: nullity + 1, and c joins B.

    C is not reduced modulo B.  Children with equal keys merge by adding
    their ints, and at the end every subset has the empty key.  Each live key
    costs O(n) bit operations a step; the module docstring counts the keys.
    After a step, ValueError is raised once the states hold more than
    ``MAX_KEY_ROWS`` rows: every key's rows of C, plus one row per 512 bits
    of the ints, about a row's memory (q's run to megabits on 200 vertices).
    """
    rows = reorder_rows(rows, _cut_rank_order(rows))
    n = len(rows)
    states: dict[tuple, int] = {((), rows): 1}
    for u in range(n):
        bit = 1 << u
        nxt: dict[tuple, int] = {}
        for (basis, tail), h in states.items():
            c, rest = tail[0], tail[1:]
            skip = tuple(r & ~bit for r in rest)
            if basis and basis[0] & bit:
                beta, basis = basis[0], basis[1:]
                add = c ^ beta if c & bit else c
                later = (r ^ add if beta >> w & 1 else r for w, r in enumerate(rest, u + 1))
                kids = ((_insert(basis, beta ^ bit), skip),
                        (basis, tuple(r ^ beta if r & bit else r for r in later)))
                taken = h << 2 * xs >> ys
            elif c & bit:
                kids = (basis, skip), (basis, tuple(r ^ c if r & bit else r for r in rest))
                taken = h << xs
            else:
                kids = (basis, skip), (_insert(basis, c), skip)
                taken = h << ys
            for key, part in zip(kids, (h, taken)):
                nxt[key] = nxt.get(key, 0) + part
        states = nxt
        held = len(states) * (n - u - 1) + (sum(map(int.bit_length, states.values())) >> 9)
        if held > MAX_KEY_ROWS:
            raise ValueError(f"state sum holds {held} key rows after {u + 1} of {n} vertices,"
                             f" over the limit of {MAX_KEY_ROWS}")
    return states[(), ()]


def rank_nullity_histogram(rows: tuple) -> dict[tuple[int, int], int]:
    """Count vertex subsets by the GF(2) (rank, nullity) of their induced submatrix.

    The count is digit rank + d nullity of ``_state_sum`` at X = 2^w, Y = X^d,
    w = n + 2 (a count is at most 2^n) and d = n + 1 > rank.
    """
    w = len(rows) + 2
    return SparsePoly.from_base_digits(_QXY_VARS, _state_sum(rows, w, w * (w - 1)), w, w - 1).terms


def q_state_sum(g: Graph) -> SparsePoly:
    """Two-variable interlace polynomial by direct subset expansion.

    The histogram's sum of (x-1)^r (y-1)^nl is expanded in y for each r, then in x.
    """
    by_rank: dict[int, dict] = {}
    for (r, nl), cnt in rank_nullity_histogram(g.rows).items():
        by_rank.setdefault(r, {})[nl,] = cnt
    by_y: dict[int, dict] = {}
    for r, part in by_rank.items():
        for (j,), c in SparsePoly(("y",), part).shift(-1).terms.items():
            by_y.setdefault(j, {})[r,] = c
    return SparsePoly(_QXY_VARS, {(i, j): c for j, part in by_y.items()
                                  for (i,), c in SparsePoly(("x",), part).shift(-1).terms.items()})


def gamma_state_sum(g: Graph) -> int:
    """gamma by direct subset expansion: the x^1 coefficient of sum (x-1)^nullity."""
    g.require_simple("gamma")
    w = g.n + 2  # only the nullity is packed: digit k counts the subsets of nullity k
    counts = SparsePoly.from_base_digits(("y",), _state_sum(g.rows, 0, w), w).terms
    return sum(cnt * nl * (1 if nl % 2 else -1) for (nl,), cnt in counts.items())


def qn_of_q(q: SparsePoly) -> SparsePoly:
    """q_N(G; x) = q(G; 2, x) for a simple graph G."""
    return q.subs_int("x", 2).rename_var("y", "x")


def qn_from_q(g: Graph) -> SparsePoly:
    """q_N obtained from q by substituting x = 2 and renaming y to x."""
    g.require_simple("q_N")
    return qn_of_q(q_state_sum(g))


# -- recursions ---------------------------------------------------------------


def _drop(rows: list, j: int) -> tuple:
    """The rows without vertex j, taken from a list the call may change.

    The last vertex must be loopless.  It moves into slot j, so only the
    rows of N(j) and of N(last) change: O(deg) steps besides copying the list.
    """
    last = rows.pop()
    top = 1 << len(rows)
    if j == len(rows):
        toggle_rows(rows, last, top)
    else:
        bit = 1 << j
        toggle_rows(rows, rows[j] & ~top, bit)
        rows[j] = last = last & ~bit
        toggle_rows(rows, last, top | bit)
    return tuple(rows)


def _kernel(rows: tuple, xs: int, ys: int) -> int:
    """q at x = 2^xs, y = 2^ys by the hanging-path, loop and pivot rules, memo local to the call.

    The module docstring gives the rules, the order and the packing.
    ``solve(rows, connected)`` searches for components only when
    ``connected`` is false; the root is connected when the breadth-first
    pass counts one component.  The hanging-path rule's u_L is connected,
    and u_{L+1} is when r has at most one neighbour besides a_L; the pivot
    rule's G^{ab}-b = G-b is when N(b) = {a}.
    """
    memo: dict[tuple, int] = {}
    # no rule puts a loop on a loopless graph, so only a looped input needs the loop rule
    looped = any(r >> k & 1 for k, r in enumerate(rows))

    def solve(rows: tuple, connected: bool) -> int:
        n = len(rows)
        if n < 2:
            return 1 << (xs if rows[0] else ys) if n else 1
        res = memo.get(rows)
        if res is not None:
            return res
        comps = () if connected else component_masks(rows)
        if len(comps) > 1:
            res = 1
            shift = 0
            for comp in comps:
                if comp & (comp - 1):
                    res *= solve(compact_rows(rows, comp), True)
                else:
                    shift += xs if rows[comp.bit_length() - 1] else ys
            res <<= shift
            memo[rows] = res
            return res
        a = n - 1
        b = rows[a].bit_length() - 1  # a itself if a is looped
        if looped and rows[b] >> b & 1 and rows[a] != 1 << b:
            # q(G) = q(G-b) + (x-1) q(G^b-b)
            # G^b complements the full submatrix on N(b), diagonal included: the
            # convention under which the loop rule matches the subset expansion
            local = list(rows)
            toggle_rows(local, rows[b], rows[b])
            local = solve(delete_index(local, b), False)
            res = memo[rows] = solve(delete_index(rows, b), False) + (local << xs) - local
            return res
        nb = rows[b] ^ 1 << a
        if rows[a] == 1 << b:
            # walk the hanging path a = a_1, ..., a_L = top down the order: b ends
            # as r, nb as N(r) - a_L, and rest = G - a_1..a_L is a prefix of the rows
            top = a
            while b == top - 1 and nb and not nb & (nb - 1) and not nb >> b & 1:
                top, b = b, nb.bit_length() - 1
                nb = rows[b] ^ 1 << top
            rest = list(rows[:top])
            rest[b] ^= 1 << top
            rest = tuple(rest)
            both = solve(_drop(list(rest), b) if b == top - 1 and not looped
                         else delete_index(rest, b), not nb & (nb - 1))
            res = solve(rest, True)
            while top <= a:
                # back up from a_L = top to a_1 = a: u_{i-1} = u_i + ((x-1)^2 + y - 1) u_{i+1}
                top += 1
                step = both << ys
                if xs > 1:
                    step += (both << 2 * xs) - (both << xs + 1)
                res, both = res + step, res
        else:
            # q(G) = q(G-a) + q(G^{ab}-b) + ((x-1)^2 - 1) q(G^{ab}-a-b)
            piv_minus_b = _drop(pivot_rows(rows, a, b), b)
            res = solve(_drop(list(rows), a), False) + solve(piv_minus_b, not nb)
            if xs > 1:
                # a sits in b's slot
                both = solve(delete_index(piv_minus_b, b), False)
                res += (both << 2 * xs) - (both << xs + 1)
        memo[rows] = res
        return res

    rows, components = bfs_rows(rows)
    return solve(rows, components == 1)


def q_recursive(g: Graph) -> SparsePoly:
    """Two-variable interlace polynomial by the hanging-path, loop and pivot rules.

    Components are solved apart.  The answer does not depend on the
    reduction order; ``q_state_sum`` is its independent oracle.
    """
    rows, comps = g.rows, component_masks(g.rows)
    parts = [compact_rows(rows, c) for c in comps if c & (c - 1)]
    bare = rows.count(0)  # isolated unlooped vertices; the other single ones are looped
    return _packed_product(parts, lambda part, w, d: _kernel(part, w, w * d),
                           lambda parts: ((3 ** sum(map(len, parts))).bit_length() + 1,
                                          sum(len(reduce(_insert, p, ())) for p in parts) + 1),
                           (len(comps) - len(parts) - bare, bare))


def qn_recursive(g: Graph) -> SparsePoly:
    """Vertex-nullity interlace polynomial q_N(G; x) = q(G; 2, x) by the recursion kernel."""
    g.require_simple("q_N")
    w = g.n + 1
    return SparsePoly.from_base_digits(("x",), _kernel(g.rows, 1, w), w)


def gamma_invariant(g: Graph) -> int:
    """Coefficient of x^1 in q_N (0 iff disconnected, 1 iff a single vertex)."""
    g.require_simple("gamma")
    return qn_recursive(g).coefficient((1,))


# -- coefficient identities -----------------------------------------------------


class CoefficientReport(NamedTuple):
    """Antisymmetry a10 = -a01 of the linear coefficients of q."""

    a10: int
    a01: int
    ok: bool

    def __str__(self) -> str:
        return f"a10={self.a10} a01={self.a01} {'ok' if self.ok else 'FAIL'}"


def coefficient_checks(g: Graph, q: SparsePoly | None = None) -> CoefficientReport:
    """Check the antisymmetry of q on one graph; pass q if already known."""
    g.require_simple("coefficient checks")
    if q is None:
        q = q_state_sum(g)
    a10 = q.coefficient({"x": 1})
    a01 = q.coefficient({"y": 1})
    return CoefficientReport(a10, a01, a10 == -a01 or g.n < 2)
