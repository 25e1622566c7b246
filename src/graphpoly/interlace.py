"""Interlace polynomials computed two independent ways.

The two-variable interlace polynomial of a graph G is the subset expansion

    q(G; x, y) = sum over S of (x-1)^r(G[S]) * (y-1)^n(G[S]),

where r and n are the GF(2) rank and nullity of the adjacency matrix of the
induced subgraph (loops on the diagonal).  The same polynomial satisfies a
pivot recursion: for an edge ab with both endpoints loopless,

    q(G) = q(G-a) + q(G^{ab}-b) + ((x-1)^2 - 1) * q(G^{ab}-a-b),

for a looped vertex a, q(G) = q(G-a) + (x-1) * q(G^a-a), for a loopless a
with N(a) = {b}, q(G) = q(G-a) + ((x-1)^2 + y - 1) * q(G-a-b), and
q(E_n) = y^n on the edgeless graph.  ``q_state_sum`` and ``q_recursive``
implement the two routes separately so each serves as an oracle for the other.

The state sums (``q_state_sum``, ``gamma_state_sum``, ``qn_from_q``,
``chords.c_polynomial``) read ``rank_nullity_histogram``.  It visits the
subsets S depth first and counts all children S + {v} of each by three
popcounts: row v outside col(A_S) = ker(A_S)^perp adds 2 to the rank, and
otherwise the Schur complement, one bit of a kept mask, adds 1 or 0.  Only
children that have children of their own are built, each by one GF(2)
elimination step, except S + {n-2}: only its two masks are formed, to count
S + {n-2, n-1}, so one walk takes 2^(n-2) steps.  From ``SPLIT_FROM``
vertices on, the walk splits the vertices into a head, the first half, and
a tail.  By the bordered-rank identity
rank A[S + T] = rank A[S] + rank [[0, B_T], [B_T^t, C_T]] for a head subset
S and a tail subset T, where the boundary key (B, C) of S is its
dependents restricted to the tail (B, in reduced echelon form) and its
reductions of the tail rows (C, modulo B).  So the tail is walked at most
twice per distinct key instead of once per head subset, and a graph whose
cut between the halves has small GF(2) rank has few keys: 2 on a path.
It does not call the recursion.

The vertex-nullity interlace polynomial q_N(G; x) = q(G; 2, x) of a simple
graph follows the same rules at x = 2, where the pivot's third term
vanishes and the pendant rule reads q_N(G) = q_N(G-a) + x q_N(G-a-b)
(Arratia, Bollobas & Sorkin, JCTB 92, 2004).  The gamma invariant is the
coefficient of x^1 in q_N: ``gamma_invariant`` reads it off the
recursion, ``gamma_state_sum`` counts it over all vertex subsets.

One kernel runs the recursion for both, at x = 2^xs, y = 2^ys; q_N is q
at xs = 1.  A disconnected graph is the product of its components, each
compacted to its own rows, and a single vertex contributes x (looped) or
y.  The kernel is told which subproblems are connected (the components of
a split, and a child that lost a vertex of degree at most 1 from a
connected graph); any other gets a reach from vertex 0 that stops once it
covers every vertex, and only one that falls short is split.  It puts the
rows in breadth-first order from a vertex of least degree
(``graphs.bfs_rows``), which puts a leaf last on a tree, and reduces a
connected graph on its last vertex a and a's highest neighbour b: by the
pendant rule if N(a) = {b}, else by the loop rule on a if a is looped or
on b if b is, else by the pivot.  It deletes a by slicing the rows and the
pivot's b by moving the last vertex into its slot, so such a deletion
rewrites only the rows of the two vertices' neighbours; one that may move
or remove a looped vertex rewrites every row.  The pendant rule's G-a-b
keeps the order of G-a, so every subproblem of a tree stays in
breadth-first order and is reduced on a leaf.  G-a-b is solved first, so
a path recurses about n/2 deep, but the pivot about n deep on a cycle:
paths of about 2,000 vertices and long cycles exhaust Python's stack.
The memo, keyed on the rows as the recursion leaves them, lives for one
call: nothing is kept between calls, and the two reduction orders of
``q_recursive`` never share entries.

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

from dataclasses import dataclass
from math import comb

from .graphs import (Graph, bfs_rows, compact_rows, component_masks, delete_index, pivot_rows,
                     toggle_rows)
from .poly import SparsePoly, _packed_product

_QXY_VARS = ("x", "y")

# the subset walk of the state sums splits in half from this many vertices on
SPLIT_FROM = 14


# -- state sums ---------------------------------------------------------------


def rank_nullity_histogram(rows: tuple) -> dict[tuple[int, int], int]:
    """Count vertex subsets by the GF(2) (rank, nullity) of their induced submatrix.

    Subsets are visited depth first.  At each subset S the row combinations
    of S are kept at full width (XORs of whole rows), split into ``pivots``,
    keyed by their lowest bit inside S, and the dependents, which vanish on
    S and span ker(A_S); bit v of a full-width combination is its entry in
    column v.  Two masks give the rank of every child S + {v}, v > max S:

    - ``dor``, the OR of the dependents, has bit v iff row v is outside
      col(A_S) = ker(A_S)^perp, and then the rank grows by 2;
    - otherwise A_Sv = A_S z, and the rank grows by the Schur complement
      A_vv + z.diag(A_S), which is bit v of ``t``: diag(A) plus the row
      combination of S that equals diag(A) on S.  On a loopless graph t = 0.

    A subset costs three popcounts for all its children, plus one
    elimination step for each child v <= n - 3 it descends into: O(nullity)
    XORs and a reduction against the pivots when ``dor`` has bit v, else
    only the reduction of row v over S, where every lead bit has a pivot.
    The child v = n - 2 gets only its two masks (O(nullity) XORs, else the
    reduction of row v over S; no pivot is written), and their bit n - 1
    counts S + {v, n - 1}.  So one walk over n vertices takes 2^(n-2) steps.

    From ``SPLIT_FROM`` vertices on, the walk is split: the first
    h = n // 2 vertices are the head, the others the tail, and the walk
    below a head subset S over the tail is shared by every S with the same
    boundary key (B, C).  B is S's dependents restricted to the tail, in
    reduced row echelon form.  C has one row per tail vertex v: row v
    reduced against S's pivots (a lead bit with no pivot is skipped),
    restricted to the tail and reduced modulo B.  By the bordered-rank
    identity, for every subset T of the tail

        rank A[S + T] = rank A[S] + rank [[0, B_T], [B_T^t, C_T]],

    so S's key fixes the (rank, nullity) increments of every S + T.  On a
    key's first occurrence the tail walk (``grow`` from start h, stop n)
    counts straight into the table; on its second, the increments it adds
    are kept, and every later occurrence adds the kept list at its own
    (rank, nullity).  The cost is 2^h head steps and keys plus at most two
    tail walks of 2^(n-h-2) steps per distinct key.  The keys are few when
    the cut between head and tail has small GF(2) rank: 2 on a path or a
    complete graph, 5 on a cycle, and 2 to 20 on the 17-vertex circle
    graphs of series-parallel medials, against about 2^h on a random graph,
    which then pays up to about 5% for its keys.  Below ``SPLIT_FROM``,
    h = 0 and the one walk is the whole histogram.
    """
    n = len(rows)
    h = n // 2 if n >= SPLIT_FROM else 0
    # one flat table, index at = rank * wide + nullity, with a spare row and
    # column: an empty class may index rank + 2 or nullity - 1 = -1.  A child
    # of S is at S's at + up2 (rank + 2, nullity - 1), + wide or + 1.
    wide = n + 2
    up2 = 2 * wide - 1
    counts = [0] * ((n + 3) * wide)
    counts[0] = 1
    pivots: dict[int, int] = {}
    last, top = n - 2, 1 << n >> 1
    # per key: () once its tail is walked, then the increments kept from the second walk
    seen: dict[tuple, tuple | list] = {}

    def boundary_key(deps: list) -> tuple:
        """B's rows, then C's, of the head subset with dependents ``deps`` and ``pivots``."""
        basis: list[tuple[int, int]] = []  # B as (lead bit, row), zero at the other leads
        for d in deps:
            d >>= h
            for lead, b in basis:
                if d & lead:
                    d ^= b
            if d:
                lead = 1 << d.bit_length() - 1
                basis = [(lb, b ^ d if b & lead else b) for lb, b in basis] + [(lead, d)]
        order = sorted(pivots.items())
        key = [b for _, b in sorted(basis)]
        for v in range(h, n):
            cur = rows[v]
            for low, p in order:
                if cur & low:
                    cur ^= p
            cur >>= h
            for lead, b in basis:
                if cur & lead:
                    cur ^= b
            key.append(cur)
        return tuple(key)

    def grow(mask: int, deps: list, dor: int, t: int, at: int, start: int, stop: int) -> None:
        if stop < n:
            # a head subset S (its own children end at h): the walk over the tail, shared by key
            key = boundary_key(deps)
            steps = seen.get(key)
            if steps is None:
                seen[key] = ()
                grow(mask, deps, dor, t, at, h, n)
            elif not steps:
                before = counts[:]
                grow(mask, deps, dor, t, at, h, n)
                seen[key] = [(i - at, c - b) for i, (c, b) in enumerate(zip(counts, before))
                             if c != b]
            else:
                for off, c in steps:
                    counts[at + off] += c
        span = (1 << stop) - (1 << start)
        two = (dor & span).bit_count()
        one = (t & ~dor & span).bit_count()
        counts[at + up2] += two
        counts[at + wide] += one
        counts[at + 1] += stop - start - two - one
        for v in range(start, stop if stop < n else last + 1):
            bit = 1 << v
            sub = mask | bit
            cur = rows[v]
            if dor & bit:
                # the first dependent with bit v becomes the pivot at v, and
                # row v, reduced over S + {v}, a second new pivot
                kept = []
                kor = 0
                col = 0
                for d in deps:
                    if d & bit:
                        if not col:
                            col = d
                            continue
                        d ^= col
                    kept.append(d)
                    kor |= d
                tc = t ^ col if t & bit else t
                if v == last:
                    cdor, ct, cat = kor, tc, at + up2
                else:
                    pivots[bit] = col
                    left = cur & sub
                    while left:
                        low = left & -left
                        p = pivots.get(low)
                        if p is None:
                            break
                        cur ^= p
                        left = cur & sub
                    pivots[low] = cur
                    grow(sub, kept, kor, tc, at + up2, v + 1, stop)
                    del pivots[bit], pivots[low]
                    continue
            else:
                # row v lies in col(A_S): reduced over S it vanishes there, and
                # its bit v is the Schur complement, bit v of t
                left = cur & mask
                while left:
                    cur ^= pivots[left & -left]
                    left = cur & mask
                if v == last:
                    cdor, ct, cat = ((dor, t ^ cur, at + wide) if t & bit
                                     else (dor | cur, t, at + 1))
                elif t & bit:
                    pivots[bit] = cur
                    grow(sub, deps, dor, t ^ cur, at + wide, v + 1, stop)
                    del pivots[bit]
                    continue
                else:
                    grow(sub, deps + [cur], dor | cur, t, at + 1, v + 1, stop)
                    continue
            # v = n - 2: the child's one subset left to count is S + {n - 2, n - 1}
            if cdor & top:
                counts[cat + up2] += 1
            elif ct & top:
                counts[cat + wide] += 1
            else:
                counts[cat + 1] += 1

    diag = sum(r & 1 << i for i, r in enumerate(rows))
    grow(0, [], 0, diag, 0, 0, h or n)
    return {divmod(i, wide): c for i, c in enumerate(counts) if c}


def q_state_sum(g: Graph) -> SparsePoly:
    """Two-variable interlace polynomial by direct subset expansion."""
    hist = rank_nullity_histogram(g.rows)
    acc: dict[tuple[int, int], int] = {}
    for (r, nl), cnt in hist.items():
        for i in range(r + 1):
            ci = comb(r, i) * (-1) ** (r - i)
            for j in range(nl + 1):
                c = cnt * ci * comb(nl, j) * (-1) ** (nl - j)
                key = (i, j)
                acc[key] = acc.get(key, 0) + c
    return SparsePoly(_QXY_VARS, acc)


def gamma_state_sum(g: Graph) -> int:
    """gamma by direct subset expansion: the x^1 coefficient of sum (x-1)^nullity."""
    return sum(cnt * nl * (1 if nl % 2 else -1)
               for (_, nl), cnt in rank_nullity_histogram(g.rows).items())


def qn_of_q(q: SparsePoly) -> SparsePoly:
    """q_N(G; x) = q(G; 2, x) for a simple graph G."""
    return q.subs_int("x", 2).rename_var("y", "x")


def qn_from_q(g: Graph) -> SparsePoly:
    """q_N obtained from q by substituting x = 2 and renaming y to x."""
    g.require_simple("q_N")
    return qn_of_q(q_state_sum(g))


# -- recursions ---------------------------------------------------------------


def _gf2_rank(rows: tuple) -> int:
    """Rank over GF(2): each row is reduced by a basis kept in decreasing order."""
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis = sorted(basis + [r], reverse=True)
    return len(basis)


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


def _kernel(rows: tuple, xs: int, ys: int, prefer_loop: bool = False) -> int:
    """q at x = 2^xs, y = 2^ys by the pendant, loop and pivot rules, memo local to the call.

    The module docstring gives the rules, the order and the packing.
    ``prefer_loop`` takes the loop rule on the highest looped vertex
    whenever there is one.  ``solve(rows, connected)`` searches for
    components only when ``connected`` is false.  The pendant rule's G-a is
    connected, and G-a-b is when b has at most one neighbour besides a; the
    pivot rule's G^{ab}-b = G-b is when N(b) = {a}.
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
        if not connected:
            full = (1 << n) - 1
            comp = todo = 1
            while todo and comp != full:
                low = todo & -todo
                todo ^= low
                new = rows[low.bit_length() - 1] & ~comp
                comp |= new
                todo |= new
            connected = comp == full
        if not connected:
            res = 1
            shift = 0
            for comp in component_masks(rows):
                if comp & (comp - 1):
                    res *= solve(compact_rows(rows, comp), True)
                else:
                    shift += xs if rows[comp.bit_length() - 1] else ys
            res <<= shift
            memo[rows] = res
            return res
        a = n - 1
        b = rows[a].bit_length() - 1  # a itself if a is looped
        if looped:
            if prefer_loop:
                b = next((v for v in range(a, -1, -1) if rows[v] >> v & 1), b)
            if rows[b] >> b & 1 and (prefer_loop or rows[a] != 1 << b):
                # q(G) = q(G-b) + (x-1) q(G^b-b)
                row = rows[b]
                local = solve(delete_index([r ^ row if row >> k & 1 else r
                                            for k, r in enumerate(rows)], b), False)
                res = memo[rows] = solve(delete_index(rows, b), False) + (local << xs) - local
                return res
        nb = rows[b] ^ 1 << a
        if rows[a] == 1 << b:
            # q(G) = q(G-a) + ((x-1)^2 + y - 1) q(G-a-b), b looped or not.  G-a-b
            # keeps the order of G-a and goes first, which halves the depth on paths.
            minus_a = _drop(list(rows), a)
            minus_ab = (_drop(list(minus_a), b) if b == a - 1 and not looped
                        else delete_index(minus_a, b))
            both = solve(minus_ab, not nb & (nb - 1))
            res = solve(minus_a, True) + (both << ys)
            if xs > 1:
                res += (both << 2 * xs) - (both << xs + 1)
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

    return solve(bfs_rows(rows), False)


def q_recursive(g: Graph, prefer_loop: bool = False) -> SparsePoly:
    """Two-variable interlace polynomial by the pendant, loop and pivot rules.

    ``prefer_loop`` takes the loop rule on the highest looped vertex whenever
    there is one, which changes the reductions on looped graphs; both orders
    must agree with the state sum (property-tested, not assumed).
    Components are solved apart.
    """
    rows, comps = g.rows, component_masks(g.rows)
    parts = [compact_rows(rows, c) for c in comps if c & (c - 1)]
    bare = rows.count(0)  # isolated unlooped vertices; the other single ones are looped
    return _packed_product(parts, lambda part, w, d: _kernel(part, w, w * d, prefer_loop),
                           lambda parts: ((3 ** sum(map(len, parts))).bit_length() + 1,
                                          sum(map(_gf2_rank, parts)) + 1),
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


@dataclass(frozen=True)
class CoefficientReport:
    """Antisymmetry a10 = -a01 in q, and a1 = sum_i a_{i,1} 2^i linking q and q_N."""

    a10: int
    a01: int
    antisymmetry_ok: bool
    a1: int
    weighted_column_sum: int
    linkage_ok: bool

    @property
    def ok(self) -> bool:
        return self.antisymmetry_ok and self.linkage_ok

    def __str__(self) -> str:
        s1 = f"a10={self.a10} a01={self.a01} {'ok' if self.antisymmetry_ok else 'FAIL'}"
        s2 = (f"a1={self.a1} sum(a_i1*2^i)={self.weighted_column_sum} "
              f"{'ok' if self.linkage_ok else 'FAIL'}")
        return s1 + "; " + s2


def coefficient_checks(g: Graph, q: SparsePoly | None = None) -> CoefficientReport:
    """Check the coefficient identities of q and q_N on one graph; pass q if already known."""
    g.require_simple("coefficient checks")
    if q is None:
        q = q_state_sum(g)
    a10 = q.coefficient({"x": 1})
    a01 = q.coefficient({"y": 1})
    anti = (a10 == -a01) if g.n >= 2 else True
    a1 = qn_of_q(q).coefficient({"x": 1})
    weighted = sum(c * 2 ** e[0] for e, c in q.terms.items() if e[1] == 1)
    return CoefficientReport(a10, a01, anti, a1, weighted, a1 == weighted)
