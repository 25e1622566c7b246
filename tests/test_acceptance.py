"""Acceptance suite.

One test per acceptance criterion, in order, each printing a single
PASS/FAIL line.  Every comparison is exact (integer polynomial equality);
the only tolerances anywhere are the wall-clock bounds of the fast-path
criterion, which are part of its statement.  Run with ``pytest -s`` to see
the lines as they complete.
"""

import math
import random
import time

from builders import degree, disjoint_union, neighbors, one_point_join, two_point_join, without
from conftest import all_labeled_graphs
from dh_reference import reference_peel
from graphpoly.chords import ChordDiagram, verify_c_identity
from graphpoly.dh import apply_dh_sequence, is_bdh, recognize_dh
from graphpoly.euler import verify_circuit_partition_identity
from graphpoly.graphs import Graph, cycle_graph, star_graph
from graphpoly.interlace import (coefficient_checks, gamma_invariant,
                                 q_recursive, q_state_sum, qn_from_q,
                                 qn_recursive)
from graphpoly.planar import SPSequence, verify_medial_tutte_identity
from graphpoly.poly import SparsePoly
from graphpoly.randgen import (random_2in2out, random_bdh_graph,
                               random_chord_diagram, random_dh_sequence,
                               random_graph, random_sp_sequence)
from graphpoly.dh import qn_bdh_fast


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {name}: {status}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def test_1_known_values():
    t0 = time.perf_counter()
    ok = qn_recursive(cycle_graph(6)) == SparsePoly(("x",), {(3,): 2, (2,): 10, (1,): 4})
    ok = ok and gamma_invariant(cycle_graph(6)) == 4
    for m in range(1, 7):
        ok = ok and gamma_invariant(star_graph(m)) == 2
    elapsed = time.perf_counter() - t0
    _report(1, "known polynomial values", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_2_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in range(7):
        for g in all_labeled_graphs(n):
            q = q_state_sum(g)
            ok = ok and q_recursive(g) == q
            ok = ok and qn_recursive(g) == q.subs_int("x", 2).rename_var("y", "x")
            checked += 1
            if not ok:
                break
        if not ok:
            break
    rng = random.Random(20240811)
    for _ in range(200):
        g = random_graph(rng.randrange(1, 11), rng)
        ok = ok and q_recursive(g) == q_state_sum(g)
        ok = ok and qn_recursive(g) == qn_from_q(g)
    for _ in range(100):
        g = random_graph(rng.randrange(1, 9), rng, loops=True, loop_p=0.4)
        q = q_state_sum(g)
        ok = ok and q_recursive(g) == q
    elapsed = time.perf_counter() - t0
    _report(2, "state sum vs recursion oracle equivalence", ok,
            f"{checked} exhaustive + 300 random graphs, {elapsed:.1f}s")


def test_3_circuit_partition_identity():
    t0 = time.perf_counter()
    rng = random.Random(31415)
    ok = True
    for _ in range(50):
        g = random_2in2out(rng.randrange(2, 9), rng)
        ok = ok and verify_circuit_partition_identity(g).ok
    for _ in range(25):
        g = random_2in2out(rng.randrange(1, 6), rng)
        rep = verify_circuit_partition_identity(g)
        ok = ok and rep.ok
    elapsed = time.perf_counter() - t0
    _report(3, "circuit partition polynomial identity", ok,
            f"50 random + exhaustive circuits at n<=5, {elapsed:.1f}s")


def test_4_medial_diagonal_identity():
    t0 = time.perf_counter()
    ok = verify_medial_tutte_identity(SPSequence((("digon",),))).ok
    ok = ok and verify_medial_tutte_identity(
        SPSequence((("digon",), ("series", "e2")))).ok
    ok = ok and verify_medial_tutte_identity(
        SPSequence((("digon",), ("parallel", "e1")))).ok
    rng = random.Random(27182)
    for _ in range(100):
        seq = random_sp_sequence(rng.randrange(1, 9), rng)
        rep = verify_medial_tutte_identity(seq)
        ok = ok and rep.ok
    elapsed = time.perf_counter() - t0
    _report(4, "medial diagonal Tutte identity and gamma = 2 beta", ok,
            f"digon, triangle, 3-bond + 100 random constructions, {elapsed:.1f}s")


def test_5_gamma_two_characterization():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            if not g.is_connected():
                continue
            expect = is_bdh(g).value and g.n >= 2
            ok = ok and (gamma_invariant(g) == 2) == expect
            checked += 1
            if not ok:
                break
        if not ok:
            break
    rng = random.Random(16180)
    sampled = 0
    while sampled < 5000 and ok:
        g = random_graph(7, rng, p=rng.uniform(0.15, 0.85))
        if not g.is_connected():
            continue
        ok = (gamma_invariant(g) == 2) == is_bdh(g).value
        sampled += 1
    # required negative witness: gamma a power of two without being DH
    c6 = cycle_graph(6)
    ok = ok and gamma_invariant(c6) == 4 and not recognize_dh(c6).accepted
    elapsed = time.perf_counter() - t0
    _report(5, "gamma = 2 exactly on bipartite distance-hereditary graphs", ok,
            f"{checked} exhaustive connected (n<=6) + {sampled} sampled at n=7, "
            f"{elapsed:.1f}s")


def test_6_true_twin_count_and_gamma_power():
    t0 = time.perf_counter()
    rng = random.Random(14142)
    ok = True
    for _ in range(200):
        seq = random_dh_sequence(rng.randrange(2, 13), rng)
        g = apply_dh_sequence(seq)
        t = seq.true_twin_count
        ok = ok and gamma_invariant(g) == 2 ** (t + 1)
        ok = ok and recognize_dh(g).true_twin_count == t
        for _ in range(20):
            rec = reference_peel(g, rng)
            ok = ok and rec.accepted and rec.true_twin_count == t
            ok = ok and apply_dh_sequence(rec.sequence) == g
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(6, "gamma = 2^(t+1) with order-independent true-twin count", ok,
            f"200 sequences x 20 seeded reference peel orders, {elapsed:.1f}s")


def test_7_c_polynomial_identity():
    t0 = time.perf_counter()
    points = ((1, 1), (2, 4), (3, 9), (5, 16))
    worked = verify_c_identity(ChordDiagram(["1", "2", "1", "2"]), [(3, 4)])
    ok = worked.values_c == (43,) and worked.values_q == (43,)
    rng = random.Random(17320)
    for _ in range(50):
        d = random_chord_diagram(rng.randrange(1, 8), rng)
        ok = ok and verify_c_identity(d, points).ok
    elapsed = time.perf_counter() - t0
    _report(7, "chord diagram C-polynomial identity", ok,
            f"worked case = 43 + 50 random diagrams at 4 points, {elapsed:.1f}s")


def test_8_identity_suite():
    t0 = time.perf_counter()
    rng = random.Random(8675309)
    x = SparsePoly(("x",), {(1,): 1})
    pend_factor = SparsePoly(("x", "y"), {(2, 0): 1, (1, 0): -2, (0, 1): 1})
    twin_factor = SparsePoly(("x", "y"), {(2, 0): 1, (1, 0): -2})
    y = SparsePoly(("x", "y"), {(0, 1): 1})
    counts = dict.fromkeys(
        ["pivot", "union", "positive", "lowest", "coeffs", "pendant",
         "falsetwin", "truetwin", "qn_dual", "join"], 0)
    ok = True
    while ok and min(counts.values()) < 200:
        g = random_graph(rng.randrange(2, 9), rng, p=rng.uniform(0.2, 0.8))
        q = q_state_sum(g)
        qn = q.subs_int("x", 2).rename_var("y", "x")
        if counts["positive"] < 200:
            ok = ok and all(c > 0 for c in qn.terms.values())
            counts["positive"] += 1
        if counts["lowest"] < 200:
            ok = ok and qn.min_total_degree() == len(g.components())
            counts["lowest"] += 1
        if counts["coeffs"] < 200:
            ok = ok and coefficient_checks(g).ok
            counts["coeffs"] += 1
        if g.edges() and counts["pivot"] < 200:
            u, v = rng.choice(g.edges())
            ok = ok and qn_from_q(g.pivot(u, v)) == qn
            counts["pivot"] += 1
        if counts["union"] < 200:
            h = random_graph(rng.randrange(1, 5), rng)
            ok = ok and qn_from_q(disjoint_union(g, h)) == qn * qn_from_q(h)
            counts["union"] += 1
        u = rng.choice(g.ids)
        if counts["pendant"] < 200:
            gp = Graph.from_edges(g.edges() + [("w+", u)], list(g.ids) + ["w+"])
            ok = ok and q_state_sum(gp) == q + pend_factor * q_state_sum(without(g, u))
            ok = ok and qn_from_q(gp) == qn + x * qn_from_q(without(g, u))
            counts["pendant"] += 1
        nonisolated = [v for v in g.ids if degree(g, v) > 0]
        if nonisolated:
            v = rng.choice(nonisolated)
            qv = q_state_sum(without(g, v))
            if counts["falsetwin"] < 200:
                gf = Graph.from_edges(
                    g.edges() + [("w+", z) for z in neighbors(g, v)],
                    list(g.ids) + ["w+"])
                ok = ok and q_state_sum(gf) == q + y * (q - qv)
                counts["falsetwin"] += 1
            if counts["truetwin"] < 200:
                gt = Graph.from_edges(
                    g.edges() + [("w+", z) for z in neighbors(g, v)] + [("w+", v)],
                    list(g.ids) + ["w+"])
                ok = ok and q_state_sum(gt) == 2 * q + twin_factor * qv
                ok = ok and qn_from_q(gt) == 2 * qn
                counts["truetwin"] += 1
            if counts["qn_dual"] < 200:
                u2 = rng.choice(list(neighbors(g, v)))
                gf = Graph.from_edges(
                    g.edges() + [("w+", z) for z in neighbors(g, v)],
                    list(g.ids) + ["w+"])
                ok = ok and qn_from_q(gf) == qn + x * qn_from_q(without(g.pivot(u2, v), u2))
                counts["qn_dual"] += 1
            if counts["join"] < 200:
                h = random_graph(rng.randrange(2, 6), rng, p=0.6)
                hv = [z for z in h.ids if degree(h, z) > 0]
                if hv:
                    w = rng.choice(hv)
                    gg, gh = gamma_invariant(g), gamma_invariant(h)
                    ok = ok and 2 * gamma_invariant(one_point_join(g, v, h, w)) == gg * gh
                    ok = ok and 2 * gamma_invariant(two_point_join(g, v, h, w)) == gg * gh
                    counts["join"] += 1
    elapsed = time.perf_counter() - t0
    _report(8, "interlace identity suite", ok,
            f"10 identities x 200 instances, {elapsed:.1f}s")


def test_9_fast_path_performance():
    rng = random.Random(999)
    ok = True
    for _ in range(40):
        g = random_bdh_graph(rng.randrange(2, 13), rng)
        ok = ok and qn_bdh_fast(g) == qn_recursive(g)
    timings = {}
    for n in (50, 100, 200):
        g = random_bdh_graph(n, rng)
        t0 = time.perf_counter()
        poly = qn_bdh_fast(g)
        timings[n] = time.perf_counter() - t0
        ok = ok and timings[n] < 10.0
        ok = ok and all(c > 0 for c in poly.terms.values())
    # low-degree polynomial growth: fit the log-log slope over the doublings
    lo = max(timings[50], 1e-3)
    mid = max(timings[100], 1e-3)
    hi = max(timings[200], 1e-3)
    slope = max(math.log2(mid / lo), math.log2(hi / mid))
    ok = ok and slope < 5.0
    _report(9, "polynomial-time fast path", ok,
            "timings " + ", ".join(f"n={n}: {t * 1000:.0f}ms" for n, t in timings.items())
            + f", doubling exponent <= {slope:.2f}")
