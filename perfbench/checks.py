"""Independent checks of the program's outputs, in the benchmark's own code.

Nothing here imports ``graphpoly``.  Each check returns a list of failure
messages; an empty list means the output passed.  Polynomials arrive as
{degree: coefficient} dicts with string or int keys.

Checks on q_N(G; x) of a simple graph G on n vertices:

* q_N(G; 2) = 2^n (every subset counted once);
* q_N(G; -1) = (-1)^n (-2)^corank(A + I) (Arratia, Bollobas and Sorkin,
  JCTB 92, 2004), with the corank by GF(2) elimination here;
* the lowest degree of q_N equals the number of components;
* every coefficient is positive;
* the x^1 coefficient is 2 on a bipartite distance-hereditary graph and
  2^(t+1) on a distance-hereditary graph whose script has t true twins;
* on the path P_n, q_N(P_n) = q_N(P_n-1) + x q_N(P_n-2), q_N(P_0) = 1,
  q_N(P_1) = x;
* with at most 12 vertices, equality with the subset expansion
  sum over S of (x - 1)^nullity(A[S]).
"""

from __future__ import annotations

from math import comb

SUBSET_LIMIT = 12


def as_poly(terms: dict) -> dict[int, int]:
    return {int(d): int(c) for d, c in terms.items() if int(c)}


def evaluate(poly: dict[int, int], x: int) -> int:
    return sum(c * x ** d for d, c in poly.items())


# -- graphs as bitmask rows ---------------------------------------------------------


def parse_edges(text: str) -> tuple[list[str], list[int]]:
    """Vertex names and adjacency rows of a benchmark edge-list input."""
    index: dict[str, int] = {}
    pairs = []
    for line in text.splitlines():
        parts = line.split()
        for z in parts:
            index.setdefault(z, len(index))
        if len(parts) == 2:
            pairs.append((index[parts[0]], index[parts[1]]))
    rows = [0] * len(index)
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return list(index), rows


def gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def component_count(rows: list[int]) -> int:
    seen = 0
    count = 0
    for s in range(len(rows)):
        if seen >> s & 1:
            continue
        count += 1
        frontier = 1 << s
        seen |= frontier
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = rows[low.bit_length() - 1] & ~seen
            seen |= new
            frontier |= new
    return count


def subset_expansion(rows: list[int]) -> dict[int, int]:
    """q_N by the defining sum over all 2^n vertex subsets."""
    n = len(rows)
    hist: dict[int, int] = {}
    for mask in range(1 << n):
        sub = [rows[i] & mask for i in range(n) if mask >> i & 1]
        nullity = len(sub) - gf2_rank(sub)
        hist[nullity] = hist.get(nullity, 0) + 1
    out: dict[int, int] = {}
    for nl, cnt in hist.items():
        for j in range(nl + 1):
            out[j] = out.get(j, 0) + cnt * comb(nl, j) * (-1) ** (nl - j)
    return {d: c for d, c in out.items() if c}


def path_qn(n: int) -> dict[int, int]:
    """q_N(P_n) from the pendant recurrence."""
    prev, cur = {0: 1}, {1: 1}
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = dict(cur)
        for d, c in prev.items():
            nxt[d + 1] = nxt.get(d + 1, 0) + c
        prev, cur = cur, nxt
    return cur


def check_qn(terms: dict, rows: list[int], family: str, true_twins: int | None) -> list[str]:
    poly = as_poly(terms)
    n = len(rows)
    bad = []
    if evaluate(poly, 2) != 2 ** n:
        bad.append("q_N(2) != 2^n")
    corank = n - gf2_rank([r | 1 << i for i, r in enumerate(rows)])
    if evaluate(poly, -1) != (-1) ** n * (-2) ** corank:
        bad.append("q_N(-1) != (-1)^n (-2)^corank(A+I)")
    if not poly or min(poly) != component_count(rows):
        bad.append("lowest degree != number of components")
    if any(c <= 0 for c in poly.values()):
        bad.append("non-positive coefficient")
    if true_twins is not None and n >= 2 and poly.get(1, 0) != 2 ** (true_twins + 1):
        bad.append(f"x^1 coefficient != 2^(t+1) with t = {true_twins}")
    if family == "path" and poly != path_qn(n):
        bad.append("q_N(P_n) breaks the pendant recurrence")
    if n <= SUBSET_LIMIT and poly != subset_expansion(rows):
        bad.append("differs from the subset expansion")
    return bad


# -- 2-in 2-out digraphs and series-parallel constructions ------------------------------


def arc_vertex_count(text: str) -> int:
    return len({z for line in text.splitlines() for z in line.split()[::2]})


def sp_edges(text: str) -> list[tuple[str, str]]:
    """Multigraph edges of a series-parallel script, replayed here."""
    ends = {"e1": ("v1", "v2"), "e2": ("v1", "v2")}
    count = 2
    nv = 2
    for line in text.splitlines()[1:]:
        kind, e = line.split()
        count += 1
        u, v = ends[e]
        if kind == "series":
            nv += 1
            ends[e] = (u, f"v{nv}")
            ends[f"e{count}"] = (f"v{nv}", v)
        else:
            ends[f"e{count}"] = (u, v)
    return list(ends.values())


def spanning_tree_count(edges: list[tuple[str, str]]) -> int:
    """Matrix-tree theorem: a cofactor of the Laplacian, by exact Bareiss elimination."""
    verts = sorted({z for e in edges for z in e})
    idx = {v: i for i, v in enumerate(verts)}
    k = len(verts) - 1
    lap = [[0] * k for _ in range(k)]
    for u, v in edges:
        i, j = idx[u], idx[v]
        if i == j:
            continue
        for a, b in ((i, j), (j, i)):
            if a < k:
                lap[a][a] += 1
                if b < k:
                    lap[a][b] -= 1
    sign, prev = 1, 1
    for p in range(k):
        if lap[p][p] == 0:
            swap = next((r for r in range(p + 1, k) if lap[r][p]), None)
            if swap is None:
                return 0
            lap[p], lap[swap] = lap[swap], lap[p]
            sign = -sign
        for r in range(p + 1, k):
            for c in range(p + 1, k):
                lap[r][c] = (lap[r][c] * lap[p][p] - lap[r][p] * lap[p][c]) // prev
        prev = lap[p][p]
    return sign * prev if k else 1


def check_theorem_a(out: dict, n: int) -> list[str]:
    f = as_poly(out["f"])
    bad = [] if out["ok"] else ["report is not ok"]
    if evaluate(f, 1) != 2 ** n:
        bad.append("f(G; 1) != 2^n")
    if any(c <= 0 for c in f.values()):
        bad.append("non-positive coefficient in f")
    return bad


def check_theorem_b(out: dict, sp_text: str) -> list[str]:
    edges = sp_edges(sp_text)
    bad = [] if out["ok"] else ["report is not ok"]
    if out["beta"] != 1:
        bad.append("beta(G) != 1 on a series-parallel graph")
    if out["gamma"] != 2:
        bad.append("gamma(H) != 2 on a series-parallel medial")
    if evaluate(as_poly(out["diag"]), 1) != spanning_tree_count(edges):
        bad.append("t(G; 1, 1) != spanning-tree count")
    if evaluate(as_poly(out["qn"]), 2) != 2 ** len(edges):
        bad.append("q_N(H; 2) != 2^|E(G)|")
    return bad


def check_instance(rec: dict, text: str, output) -> list[str]:
    """All checks that apply to one instance's output."""
    call = rec["call"]
    if call in ("qn_bdh_fast", "qn_recursive"):
        _, rows = parse_edges(text)
        return check_qn(output, rows, rec["family"], rec["true_twins"])
    if call == "theorem_a":
        return check_theorem_a(output, arc_vertex_count(text))
    if call == "theorem_b":
        return check_theorem_b(output, text)
    return [f"no check for call {call!r}"]
