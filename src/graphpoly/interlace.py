"""Interlace polynomials computed two independent ways.

The two-variable interlace polynomial of a graph G is the subset expansion

    q(G; x, y) = sum over S of (x-1)^r(G[S]) * (y-1)^n(G[S]),

where r and n are the GF(2) rank and nullity of the adjacency matrix of the
induced subgraph (loops on the diagonal).  The same polynomial satisfies a
pivot recursion: for an edge ab with both endpoints loopless,

    q(G) = q(G-a) + q(G^{ab}-b) + ((x-1)^2 - 1) * q(G^{ab}-a-b),

for a looped vertex a, q(G) = q(G-a) + (x-1) * q(G^a-a), and q(E_n) = y^n on
the edgeless graph.  ``q_state_sum`` and ``q_recursive`` implement the two
routes separately so each serves as an oracle for the other.

The vertex-nullity interlace polynomial q_N is the specialization
q_N(G; x) = q(G; 2, x) for simple graphs; it also has its own recursion
q_N(G) = q_N(G-v) + q_N(G^{vw}-w) with base x^n.  The gamma invariant is
the coefficient of x^1 in q_N.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graphs import Graph, delete_index, pivot_rows, rank_nullity_mask
from .poly import SparsePoly

_QXY_VARS = ("x", "y")
_QX_VARS = ("x",)

# shared memo tables, keyed on dense adjacency row tuples
_q_memo: dict[tuple, dict] = {}
_qn_memo: dict[tuple, dict] = {}


def clear_memos() -> None:
    _q_memo.clear()
    _qn_memo.clear()


# -- state sums ---------------------------------------------------------------


def _rank_nullity_histogram(rows: tuple) -> dict[tuple[int, int], int]:
    """Count subsets by (rank, nullity), iterating masks in Gray-code order."""
    n = len(rows)
    hist: dict[tuple[int, int], int] = {}
    for i in range(1 << n):
        mask = i ^ (i >> 1)
        key = rank_nullity_mask(rows, mask)
        hist[key] = hist.get(key, 0) + 1
    return hist


def q_state_sum(g: Graph) -> SparsePoly:
    """Two-variable interlace polynomial by direct subset expansion."""
    hist = _rank_nullity_histogram(g.rows)
    acc: dict[tuple[int, int], int] = {}
    for (r, nl), cnt in hist.items():
        for i in range(r + 1):
            ci = comb(r, i) * (-1) ** (r - i)
            for j in range(nl + 1):
                c = cnt * ci * comb(nl, j) * (-1) ** (nl - j)
                key = (i, j)
                acc[key] = acc.get(key, 0) + c
    return SparsePoly(_QXY_VARS, acc)


def nullity_histogram(g: Graph) -> dict[int, int]:
    """Count subsets by GF(2) nullity (the q_N state sum before expansion)."""
    rows = g.rows
    n = len(rows)
    hist: dict[int, int] = {}
    for i in range(1 << n):
        mask = i ^ (i >> 1)
        r, nl = rank_nullity_mask(rows, mask)
        hist[nl] = hist.get(nl, 0) + 1
    return hist


def _qn_from_histogram(hist: dict[int, int]) -> SparsePoly:
    acc: dict[tuple[int], int] = {}
    for nl, cnt in hist.items():
        for j in range(nl + 1):
            c = cnt * comb(nl, j) * (-1) ** (nl - j)
            acc[(j,)] = acc.get((j,), 0) + c
    return SparsePoly(_QX_VARS, acc)


def qn_from_q(g: Graph) -> SparsePoly:
    """q_N obtained from q by substituting x = 2 and renaming y to x."""
    g.require_simple("q_N")
    return q_state_sum(g).subs_int("x", 2).rename_var("y", "x")


# -- recursions ---------------------------------------------------------------


def _q_rec(rows: tuple, prefer_loop: bool) -> dict:
    """Recursive q on dense rows; returns dict (i, j) -> coefficient."""
    cached = _q_memo.get(rows)
    if cached is not None:
        return cached
    n = len(rows)
    edge = None
    loop = None
    for i in range(n):
        r = rows[i]
        if r >> i & 1:
            if loop is None:
                loop = i
            continue
        for j in range(i + 1, n):
            if r >> j & 1 and not (rows[j] >> j & 1):
                edge = (i, j)
                break
        if edge:
            break
    if loop is None and edge is None:
        # edgeless up to loops already handled; pure E_n base
        if any(rows):
            # only edges incident to loops remain; a loop must exist then
            raise AssertionError("unreachable: edges without any loop or loopless pair")
        res = {(0, n): 1}
        _q_memo[rows] = res
        return res
    if loop is not None and (prefer_loop or edge is None):
        res = _q_loop_step(rows, loop, prefer_loop)
    else:
        res = _q_pivot_step(rows, edge[0], edge[1], prefer_loop)
    _q_memo[rows] = res
    return res


def _q_loop_step(rows: tuple, a: int, prefer_loop: bool) -> dict:
    minus_a = _q_rec(delete_index(rows, a), prefer_loop)
    lc = list(rows)
    nbhd = lc[a]
    for k in range(len(lc)):
        if nbhd >> k & 1:
            lc[k] ^= nbhd
    comp_minus_a = _q_rec(delete_index(tuple(lc), a), prefer_loop)
    res = dict(minus_a)
    # add (x - 1) * comp_minus_a
    for (i, j), c in comp_minus_a.items():
        for di, dc in ((1, c), (0, -c)):
            key = (i + di, j)
            res[key] = res.get(key, 0) + dc
            if res[key] == 0:
                del res[key]
    return res


def _q_pivot_step(rows: tuple, a: int, b: int, prefer_loop: bool) -> dict:
    piv = pivot_rows(list(rows), a, b)
    t1 = _q_rec(delete_index(rows, a), prefer_loop)
    t2 = _q_rec(delete_index(tuple(piv), b), prefer_loop)
    t3 = _q_rec(delete_index(delete_index(tuple(piv), b), a), prefer_loop)
    res = dict(t1)
    for (i, j), c in t2.items():
        res[(i, j)] = res.get((i, j), 0) + c
    # ((x-1)^2 - 1) = x^2 - 2x
    for (i, j), c in t3.items():
        for di, dc in ((2, c), (1, -2 * c)):
            key = (i + di, j)
            res[key] = res.get(key, 0) + dc
    return {k: v for k, v in res.items() if v != 0}


def q_recursive(g: Graph, prefer_loop: bool = False) -> SparsePoly:
    """Two-variable interlace polynomial by pivot/loop recursion.

    ``prefer_loop`` switches the reduction order when both a loopless edge
    and a looped vertex are available; both orders must agree with the
    state sum (property-tested, not assumed).
    """
    if prefer_loop:
        # keep the shared memo coherent: order-dependent intermediate keys
        # would otherwise mix, so use a private run
        saved = dict(_q_memo)
        _q_memo.clear()
        try:
            res = _q_rec(g.rows, True)
        finally:
            _q_memo.clear()
            _q_memo.update(saved)
    else:
        res = _q_rec(g.rows, False)
    return SparsePoly(_QXY_VARS, res)


def _qn_rec(rows: tuple) -> dict:
    cached = _qn_memo.get(rows)
    if cached is not None:
        return cached
    n = len(rows)
    edge = None
    for i in range(n):
        r = rows[i]
        if r:
            j = (r & -r).bit_length() - 1
            edge = (i, j) if i < j else (j, i)
            break
    if edge is None:
        res = {n: 1}
    else:
        a, b = edge
        t1 = _qn_rec(delete_index(rows, a))
        piv = pivot_rows(list(rows), a, b)
        t2 = _qn_rec(delete_index(tuple(piv), b))
        res = dict(t1)
        for d, c in t2.items():
            res[d] = res.get(d, 0) + c
    _qn_memo[rows] = res
    return res


def qn_recursive(g: Graph) -> SparsePoly:
    """Vertex-nullity interlace polynomial by the pivot recursion."""
    g.require_simple("q_N")
    res = _qn_rec(g.rows)
    return SparsePoly(_QX_VARS, {(d,): c for d, c in res.items()})


def gamma_invariant(g: Graph) -> int:
    """Coefficient of x^1 in q_N (0 iff disconnected, 1 iff a single vertex)."""
    g.require_simple("gamma")
    hist = nullity_histogram(g)
    # coefficient of x^1 in sum cnt * (x-1)^nl
    return sum(cnt * nl * (1 if nl % 2 else -1) for nl, cnt in hist.items())


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


def coefficient_checks(g: Graph) -> CoefficientReport:
    """Check the coefficient identities of q and q_N on one graph."""
    g.require_simple("coefficient checks")
    q = q_state_sum(g)
    a10 = q.coefficient({"x": 1})
    a01 = q.coefficient({"y": 1})
    anti = (a10 == -a01) if g.n >= 2 else True
    qn = qn_from_q(g)
    a1 = qn.coefficient({"x": 1})
    weighted = sum(c * 2 ** e[0] for e, c in q.terms.items() if e[1] == 1)
    return CoefficientReport(a10, a01, anti, a1, weighted, a1 == weighted)
