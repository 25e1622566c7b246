"""Slow reference versions of the distance-hereditary routines.

``reference_peel`` is the greedy peel that rebuilds every pendant and twin
pair at each step and recompacts the rows after each removal; it is the
oracle for the incremental ``recognize_dh``.  Given an rng it draws each
step among all legal removals, which lets the tests check that the number
of true twins does not depend on the peel order.  ``is_62_chordal``
enumerates cycles, so it is for small graphs only; with ``is_bipartite``
it gives the definition of a bipartite distance-hereditary graph.
"""

from __future__ import annotations

import random

from builders import neighbors
from graphpoly.dh import DHRecognition, DHSequence
from graphpoly.graphs import Graph


def peel_candidates(ids, rows):
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


def reference_peel(g: Graph, rng: random.Random | None = None) -> DHRecognition:
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
        cands = peel_candidates(ids, rows)
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


def is_bipartite(g: Graph) -> bool:
    """Two-colour each component by depth-first search; a loop is an odd cycle."""
    color = [-1] * g.n
    for s in range(g.n):
        if g.rows[s] >> s & 1:
            return False
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            i = stack.pop()
            r = g.rows[i]
            for j in range(g.n):
                if r >> j & 1:
                    if color[j] < 0:
                        color[j] = 1 - color[i]
                        stack.append(j)
                    elif color[j] == color[i]:
                        return False
    return True


def is_62_chordal(g: Graph) -> bool:
    """Every cycle of length at least 6 has at least two chords (small graphs only)."""
    ids = g.ids
    n = g.n
    adjset = {v: set(neighbors(g, v)) for v in ids}

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
