import random
import sys
import tracemalloc

import pytest

from builders import (degree, disjoint_union, has_edge, has_loop, neighbors, one_point_join,
                      path_qn, two_point_join, without)
from conftest import (all_labeled_graphs, all_looped_labeled_graphs, graph_with_extra,
                      medial_circle_graphs)
from state_sum_reference import (boundary_key, cut_rank, rank_nullity_mask,
                                 reference_cut_rank_order, reference_histogram)
from graphpoly import interlace
from graphpoly.chords import circle_graph
from graphpoly.dh import apply_dh_sequence, qn_bdh_fast, recognize_dh
from graphpoly.euler import chord_diagram_from_circuit, euler_circuit
from graphpoly.graphs import (Graph, complete_graph, component_masks, cycle_graph, path_graph,
                              star_graph)
from graphpoly.interlace import (CoefficientReport, coefficient_checks,
                                 gamma_invariant, gamma_state_sum, q_recursive,
                                 q_state_sum, qn_from_q, qn_of_q, qn_recursive,
                                 rank_nullity_histogram)
from graphpoly.planar import build_sp, medial_digraph
from graphpoly.poly import SparsePoly
from graphpoly.randgen import (random_bdh_graph, random_dh_sequence, random_graph,
                               random_sp_sequence)


def XY(terms):
    return SparsePoly(("x", "y"), terms)


def X(terms):
    return SparsePoly(("x",), terms)


def _random_graph(rng, n, p=0.5, loop_p=0.0):
    vs = [str(i) for i in range(1, n + 1)]
    edges = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:] if rng.random() < p]
    edges += [(v, v) for v in vs if rng.random() < loop_p]
    return Graph.from_edges(edges, vs)


# -- state sum values ------------------------------------------------------------


def test_q_edgeless_is_power_of_y():
    for n in range(5):
        assert q_state_sum(Graph.edgeless(n)) == XY({(0, n): 1})


def test_q_k2():
    assert q_state_sum(complete_graph(2)) == XY({(2, 0): 1, (1, 0): -2, (0, 1): 2})


def test_q_single_looped_vertex():
    # empty subset contributes 1, the looped vertex has rank 1, so q = x
    g = Graph.from_edges([("a", "a")])
    assert q_state_sum(g) == XY({(1, 0): 1})
    assert q_recursive(g) == XY({(1, 0): 1})


def test_histogram_matches_per_subset_reference():
    rng = random.Random(606)
    graphs = [Graph.from_edges([("a", "a")]),
              Graph.from_edges([("a", "b"), ("c", "c"), ("d", "e"), ("b", "e")], "abcde")]
    for n in range(13):
        for p in (0.2, 0.5, 0.8):
            for loop_p in (0.0, 0.4):
                graphs.append(_random_graph(rng, n, p, loop_p))
    for g in graphs:
        hist = rank_nullity_histogram(g.rows)
        assert hist == reference_histogram(g.rows), g
        assert sum(hist.values()) == 1 << g.n


def test_histogram_matches_reference_on_every_small_graph():
    graphs = [g for n in range(5) for g in all_looped_labeled_graphs(n)]
    assert len(graphs) == 1 + 2 + 8 + 64 + 1024
    graphs += all_labeled_graphs(5)
    for g in graphs:
        assert rank_nullity_histogram(g.rows) == reference_histogram(g.rows), g


def test_histogram_matches_reference_for_every_pattern_on_the_last_two_vertices():
    # S + {n-2, n-1} is counted inside the step that would build S + {n-2}, by
    # the col branch or either no-col branch; loops at n-2 and n-1 and the edge
    # between them decide which branch runs and which class the subset joins
    rng = random.Random(917)
    for n in range(5, 10):
        for pattern in range(8):
            for p in (0.25, 0.5, 0.75):
                g = _random_graph(rng, n, p, loop_p=0.3)
                a, b = g.ids[-2:]
                wanted = [(a, a)] * (pattern & 1) + [(b, b)] * (pattern >> 1 & 1)
                wanted += [(a, b)] * (pattern >> 2)
                edges = [e for e in g.edges() if e[0] not in (a, b) or e[1] not in (a, b)]
                g = Graph.from_edges(edges + wanted, g.ids)
                assert [has_loop(g, a), has_loop(g, b), has_edge(g, a, b)] == [
                    bool(pattern & 1), bool(pattern & 2), bool(pattern & 4)]
                assert rank_nullity_histogram(g.rows) == reference_histogram(g.rows), g


def test_loopless_circle_graphs_have_only_even_ranks():
    # An alternating form has even rank, so on a loopless graph no subset
    # extends by rank + 1: the diagonal defect t stays 0.
    for h in medial_circle_graphs(808, 40):
        hist = rank_nullity_histogram(h.rows)
        assert all(r % 2 == 0 for r, _ in hist), h
        assert sum(hist.values()) == 1 << h.n


def test_state_sums_call_no_recursion_kernel(no_recursion_kernel):
    g = cycle_graph(6)
    assert qn_from_q(g) == X({(3,): 2, (2,): 10, (1,): 4})
    assert gamma_state_sum(g) == 4
    assert coefficient_checks(g).ok


def _bordered_rank(key, m: int, tmask: int) -> int:
    """GF(2) rank of [[0, B_T], [B_T^t, C_T]] for the tail subset T = tmask of a key (B, C)."""
    span, cosets = key
    basis, reach = [], {0}
    for b in sorted(span):
        if b not in reach:
            basis.append(b)
            reach |= {r ^ b for r in reach}
    ts = [j for j in range(m) if tmask >> j & 1]
    k = len(basis)

    def on_t(row):
        return sum((row >> j & 1) << (k + i) for i, j in enumerate(ts))

    top = [on_t(b) for b in basis]
    side = [sum((b >> j & 1) << i for i, b in enumerate(basis)) | on_t(cosets[j]) for j in ts]
    return rank_nullity_mask(top + side, (1 << k + len(ts)) - 1)[0]


def test_boundary_keys_satisfy_the_bordered_rank_identity():
    # rank A[S + T] = rank A[S] + rank [[0, B_T], [B_T^t, C_T]] for every head
    # subset S and tail subset T, at every split h, so head subsets with equal
    # keys get equal increments over every T
    rng = random.Random(1018)
    shared = 0
    for n in range(2, 10):
        for p in (0.2, 0.5, 0.8):
            for loop_p in (0.0, 0.4):
                rows = _random_graph(rng, n, p, loop_p).rows
                for h in range(n + 1):
                    m = n - h
                    increments: dict = {}
                    for mask in range(1 << h):
                        key = boundary_key(rows, h, mask)
                        r0, nl0 = rank_nullity_mask(rows, mask)
                        steps = []
                        for tmask in range(1 << m):
                            r, nl = rank_nullity_mask(rows, mask | tmask << h)
                            assert r == r0 + _bordered_rank(key, m, tmask), (rows, h, mask, tmask)
                            steps.append((r - r0, nl - nl0))
                        assert increments.setdefault(key, steps) == steps, (rows, h, mask)
                    shared += (1 << h) - len(increments)
    assert shared > 1000


@pytest.mark.parametrize("build", [path_graph, cycle_graph, complete_graph])
def test_state_sums_of_paths_cycles_and_complete_graphs_match_the_recursion(build):
    for n in (16, 22):
        g = build(n)
        assert sum(rank_nullity_histogram(g.rows).values()) == 1 << n
        assert q_state_sum(g) == q_recursive(g)
        assert qn_from_q(g) == qn_recursive(g)
        assert gamma_state_sum(g) == gamma_invariant(g)


def test_split_state_sums_call_no_recursion_kernel(no_recursion_kernel):
    g = cycle_graph(16)
    assert gamma_state_sum(g) == g.n - 2
    assert coefficient_checks(g).ok


def test_histogram_does_not_depend_on_the_vertex_order():
    # the DP's keys, and so its cost, follow the order; its counts must not
    rng = random.Random(1020)
    for n in range(1, 12):
        for p in (0.2, 0.5, 0.8):
            g = _random_graph(rng, n, p, loop_p=0.3)
            ids = list(g.ids)
            want = reference_histogram(g.rows)
            for _ in range(3):
                rng.shuffle(ids)
                h = Graph.from_edges(g.edges(), ids)
                assert rank_nullity_histogram(h.rows) == want, h


def test_state_sums_reach_two_hundred_vertices():
    path = path_graph(200)
    assert sum(rank_nullity_histogram(path.rows).values()) == 1 << 200
    assert gamma_state_sum(path) == 2
    assert gamma_state_sum(cycle_graph(200)) == 198


class _HeldRows:
    """A limit that refuses nothing and records the rows held after each step."""

    def __init__(self):
        self.held = []

    def __lt__(self, held):  # the DP asks ``held > limit``
        self.held.append(held)
        return False


def test_state_sum_refuses_at_the_first_step_that_holds_more_rows_than_its_limit(monkeypatch):
    g = random_graph(14, random.Random(1108))
    record = _HeldRows()
    monkeypatch.setattr(interlace, "MAX_KEY_ROWS", record)
    want = interlace._state_sum(g.rows, 0, 16)
    held = record.held
    # one count a step: two keys of 13 rows after the first, one key of no rows after
    # the last, and its ints, under 512 bits in all at the ends, count nothing there
    assert len(held) == 14 and held[-1] == 0 and held[0] == 2 * 13
    for limit in sorted(set(held) | {h - 1 for h in held if h}):
        monkeypatch.setattr(interlace, "MAX_KEY_ROWS", limit)
        over = [u for u, h in enumerate(held) if h > limit]
        if not over:
            assert interlace._state_sum(g.rows, 0, 16) == want
            continue
        u = over[0]
        with pytest.raises(ValueError) as refusal:
            interlace._state_sum(g.rows, 0, 16)
        assert str(refusal.value) == (f"state sum holds {held[u]} key rows after {u + 1} of 14 "
                                      f"vertices, over the limit of {limit}")


def test_state_sum_counts_its_ints_so_q_is_refused_where_gamma_runs(monkeypatch):
    # both sums hold the same keys a step, but q packs rank and nullity at
    # Y = 2^(w(w-1)) and gamma the nullity alone at Y = 2^w, so q's ints are wider
    g = random_bdh_graph(60, random.Random(3))
    counts = []
    for state_sum in (gamma_state_sum, q_state_sum):
        record = _HeldRows()
        monkeypatch.setattr(interlace, "MAX_KEY_ROWS", record)
        state_sum(g)
        counts.append(record.held)
    gamma_held, q_held = counts
    assert len(q_held) == len(gamma_held) == 60
    assert all(q >= h for q, h in zip(q_held, gamma_held)) and max(q_held) > max(gamma_held)
    limit = max(gamma_held)
    monkeypatch.setattr(interlace, "MAX_KEY_ROWS", limit)
    assert gamma_state_sum(g) == gamma_invariant(g)
    u = next(u for u, held in enumerate(q_held) if held > limit)
    with pytest.raises(ValueError) as refusal:
        q_state_sum(g)
    assert str(refusal.value) == (f"state sum holds {q_held[u]} key rows after {u + 1} of 60 "
                                  f"vertices, over the limit of {limit}")


def test_state_sum_of_a_thirty_vertex_path_runs_at_the_default_limit():
    g = path_graph(30)
    assert interlace.MAX_KEY_ROWS == 3 << 20
    assert q_state_sum(g) == q_recursive(g)


def test_cut_rank_order_matches_the_greedy_order_by_fresh_eliminations():
    # every candidate's incremental cut rank must equal a fresh elimination's,
    # or some step would pick another vertex
    rng = random.Random(1105)
    for n in range(1, 25):
        for p in (0.15, 0.4, 0.7):
            for loop_p in (0.0, 0.3):
                rows = _random_graph(rng, n, p, loop_p).rows
                assert interlace._cut_rank_order(rows) == reference_cut_rank_order(rows), rows


@pytest.mark.parametrize("build, most", [(cycle_graph, 2), (path_graph, 1)])
def test_cut_rank_order_keeps_every_cut_of_a_shuffled_cycle_or_path_small(build, most):
    rows = _shuffled(build(40), random.Random(1106)).rows
    order = interlace._cut_rank_order(rows)
    assert sorted(order) == list(range(40))
    head = 0
    for v in order:
        head |= 1 << v
        assert cut_rank(rows, head, ~head & (1 << 40) - 1) <= most, order


def test_state_sums_check_the_fast_routes_far_past_sixty_vertices():
    # the DP in cut-rank order holds few keys on these inputs, which the
    # given order or a 2^n subset walk could not reach
    g = random_bdh_graph(100, random.Random(3))
    assert qn_from_q(g) == qn_bdh_fast(g)
    g = apply_dh_sequence(random_dh_sequence(80, random.Random(91)))
    assert g.n == 80
    assert gamma_state_sum(g) == 2 ** (recognize_dh(g).true_twin_count + 1)
    assert gamma_state_sum(_shuffled(cycle_graph(200), random.Random(1107))) == 198


def test_gamma_state_sum_holds_one_small_int_per_boundary_key():
    # gamma packs the nullity alone, one int per live key; a (rank, nullity)
    # table per key would peak near 40 MiB on this input
    g = random_bdh_graph(150, random.Random(3))
    tracemalloc.start()
    try:
        assert gamma_state_sum(g) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("ops, seed", [(40, 2), (40, 8), (60, 2), (60, 8)])
def test_gamma_is_two_on_large_medial_circle_graphs_by_two_routes(ops, seed):
    # gamma(H) = 2 on a BDH graph, counted over all 2^(ops + 2) vertex
    # subsets and read off the series-parallel route
    med = medial_digraph(build_sp(random_sp_sequence(ops, random.Random(seed))))
    h = circle_graph(chord_diagram_from_circuit(med, euler_circuit(med)))
    assert h.n == ops + 2
    assert gamma_state_sum(h) == 2 == qn_bdh_fast(h).coefficient((1,))


def test_q_recursive_base_cases():
    assert q_recursive(Graph.edgeless(2)) == XY({(0, 2): 1})
    assert q_recursive(complete_graph(2)) == XY({(2, 0): 1, (1, 0): -2, (0, 1): 2})


def test_q_recursive_matches_state_sum_small_exhaustive():
    for n in range(5):
        for g in all_labeled_graphs(n):
            assert q_recursive(g) == q_state_sum(g)


def test_q_routes_agree_with_loops_both_orders():
    rng = random.Random(11)
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(1, 7), loop_p=0.4)
        expected = q_state_sum(g)
        assert q_recursive(g) == expected


def test_qn_edgeless():
    for n in range(5):
        assert qn_recursive(Graph.edgeless(n)) == X({(n,): 1})


def test_qn_c6_known_value():
    assert qn_recursive(cycle_graph(6)) == X({(3,): 2, (2,): 10, (1,): 4})


def test_qn_k3():
    assert qn_recursive(complete_graph(3)) == X({(1,): 4})


def _scattered_graph(rng, n, loop_p):
    """Random graph on n vertices made of several pieces and isolated vertices, interleaved by index."""
    vs = [str(i) for i in range(1, n + 1)]
    rng.shuffle(vs)
    edges, start = [], 0
    while start < n:
        piece = vs[start:start + rng.randrange(1, 5)]
        start += len(piece)
        edges += [(u, v) for i, u in enumerate(piece) for v in piece[i + 1:] if rng.random() < 0.6]
        edges += [(v, v) for v in piece if rng.random() < loop_p]
    return Graph.from_edges(edges, sorted(vs, key=int))


def test_recursions_match_state_sum_on_split_graphs():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randrange(6, 12)
        g = _scattered_graph(rng, n, loop_p=0.0)
        assert len(g.components()) > 1
        assert qn_recursive(g) == qn_from_q(g)
        g = _scattered_graph(rng, n, loop_p=0.3)
        expected = q_state_sum(g)
        assert q_recursive(g) == expected


def test_qn_recursive_matches_specialization_on_all_small_graphs():
    for n in range(6):
        for g in all_labeled_graphs(n):
            assert qn_recursive(g) == qn_from_q(g), g


def test_complete_graphs_fill_the_widest_packed_slot():
    # q_N(K_n) = 2^(n-1) x: the largest coefficient any n-vertex graph has
    for n in range(1, 41):
        assert qn_recursive(complete_graph(n)) == X({(1,): 1 << (n - 1)})
        assert gamma_invariant(complete_graph(n)) == 1 << (n - 1)


def test_disjoint_complete_graphs_and_isolated_vertices():
    # q_N of a disjoint union of K_{s_1}, ..., K_{s_c} is 2^(n-c) x^c; gamma is 0
    rng = random.Random(707)
    for sizes in ([3, 1, 5], [1, 1, 2, 7], [4, 4, 1, 1, 1], [9, 1, 6, 2, 1, 3], [1] * 6):
        vs = [str(i) for i in range(1, sum(sizes) + 1)]
        rng.shuffle(vs)
        edges, start = [], 0
        for size in sizes:
            clique = vs[start:start + size]
            start += size
            edges += [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
        g = Graph.from_edges(edges, sorted(vs, key=int))
        n, c = g.n, len(sizes)
        assert qn_recursive(g) == X({(c,): 1 << (n - c)}), sizes
        assert gamma_invariant(g) == 0
        if n <= 12:
            assert qn_recursive(g) == qn_from_q(g)


def _shuffled(g, rng):
    """g with its vertex ids listed in a random order, so its rows come in that order."""
    ids = list(g.ids)
    rng.shuffle(ids)
    return Graph.from_edges(g.edges(), ids)


def test_qn_recursive_long_path_matches_pendant_recurrence():
    # the hanging-path rule takes a whole path in one step, so P_1800 is far
    # inside Python's default limit of 1,000 frames
    assert sys.getrecursionlimit() <= 1000
    for n in (400, 1800):
        assert qn_recursive(path_graph(n)) == path_qn(n), n


def test_qn_recursive_shuffled_long_path_matches_pendant_recurrence():
    # the kernel's breadth-first order puts a shuffled path back in path order
    for n in (300, 900):
        assert qn_recursive(_shuffled(path_graph(n), random.Random(303))) == path_qn(n), n


def test_qn_recursive_is_independent_of_the_vertex_order():
    rng = random.Random(1515)
    graphs = [_random_graph(rng, rng.randrange(1, 11), rng.choice((0.15, 0.3, 0.6)))
              for _ in range(60)]
    graphs += [_scattered_graph(rng, rng.randrange(2, 11), loop_p=0.0) for _ in range(30)]
    graphs += [Graph.from_edges(g.edges(), list(g.ids) + ["i1", "i2"])
               for g in graphs[:20]]
    for m in range(1, 10):
        star = star_graph(m)
        graphs += [star, Graph.from_edges(star.edges(), list(star.ids[1:]) + ["c"])]
    for g in graphs:
        expected = qn_from_q(g)
        assert qn_recursive(g) == expected, g
        assert qn_recursive(_shuffled(g, rng)) == expected, g


def _random_tree_50():
    # the 50-vertex tree of tests/test_dh.py::test_qn_bdh_fast_tree_matches_pendant_recursion
    rng = random.Random(76)
    edges = [(f"v{k}", f"v{rng.randrange(1, k)}") for k in range(2, 51)]
    return Graph.from_edges(edges, [f"v{k}" for k in range(1, 51)])


def test_qn_recursive_matches_bdh_fast_on_a_random_tree():
    tree = _random_tree_50()
    assert qn_recursive(tree) == qn_bdh_fast(tree)


def test_qn_recursive_matches_bdh_fast_on_a_shuffled_random_tree():
    tree = _shuffled(_random_tree_50(), random.Random(77))
    assert qn_recursive(tree) == qn_bdh_fast(tree)


def test_interlace_keeps_no_module_level_memo():
    assert not [name for name, value in vars(interlace).items()
                if isinstance(value, dict) and name.endswith(("_memo", "_cache"))]


def test_qn_from_q_examples():
    assert qn_from_q(complete_graph(2)) == X({(1,): 2})
    assert qn_from_q(Graph.edgeless(3)) == X({(3,): 1})
    assert qn_from_q(path_graph(3)) == X({(2,): 1, (1,): 2})


def test_qn_requires_simple():
    g = Graph.from_edges([("a", "a")])
    with pytest.raises(ValueError):
        qn_recursive(g)
    with pytest.raises(ValueError):
        gamma_invariant(g)


def test_gamma_state_sum_rejects_a_looped_graph():
    g = Graph.from_edges([("a", "a"), ("a", "b")])
    with pytest.raises(ValueError, match="gamma requires a loopless graph"):
        gamma_state_sum(g)
    assert gamma_state_sum(path_graph(2)) == 2


def test_gamma_examples():
    assert gamma_invariant(complete_graph(2)) == 2
    for m in range(1, 6):
        assert gamma_invariant(star_graph(m)) == 2
    assert gamma_invariant(cycle_graph(6)) == 4
    assert gamma_invariant(Graph.edgeless(1)) == 1
    assert gamma_invariant(Graph.edgeless(2)) == 0


# -- coefficient identities ---------------------------------------------------------


def test_coefficient_checks_k2():
    rep = coefficient_checks(complete_graph(2))
    assert rep.a10 == -2 and rep.a01 == 2 and rep.ok


def test_coefficient_checks_e2():
    rep = coefficient_checks(Graph.edgeless(2))
    assert rep.a10 == 0 and rep.a01 == 0 and rep.ok


def test_coefficient_checks_c6():
    rep = coefficient_checks(cycle_graph(6))
    assert rep.ok
    assert isinstance(rep, CoefficientReport)


# -- structural identities ------------------------------------------------------------


def test_pivot_invariance_of_qn():
    rng = random.Random(21)
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(2, 8))
        if not g.edges():
            continue
        u, v = rng.choice(g.edges())
        assert qn_from_q(g) == qn_from_q(g.pivot(u, v))


def test_multiplicative_on_disjoint_unions():
    rng = random.Random(22)
    for _ in range(40):
        g = _random_graph(rng, rng.randrange(1, 5))
        h = _random_graph(rng, rng.randrange(1, 5))
        u = disjoint_union(g, h)
        assert qn_from_q(u) == qn_from_q(g) * qn_from_q(h)
        assert q_state_sum(u) == q_state_sum(g) * q_state_sum(h)


def test_qn_positive_coefficients():
    rng = random.Random(23)
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(1, 8))
        assert all(c > 0 for c in qn_from_q(g).terms.values())


def test_lowest_degree_counts_components():
    rng = random.Random(24)
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(1, 8), p=0.3)
        assert qn_from_q(g).min_total_degree() == len(g.components())


def test_gamma_zero_iff_disconnected_and_cut_vertices():
    rng = random.Random(25)
    for _ in range(40):
        g = _random_graph(rng, rng.randrange(2, 8), p=0.4)
        assert (gamma_invariant(g) == 0) == (len(g.components()) > 1)
        if g.is_connected() and g.n >= 2:
            for v in g.ids:
                cut = len(without(g, v).components()) > 1
                assert (gamma_invariant(without(g, v)) == 0) == cut


def test_isolated_vertex_multiplies_q_by_y():
    rng = random.Random(26)
    y = SparsePoly(("x", "y"), {(0, 1): 1})
    for _ in range(20):
        g = _random_graph(rng, rng.randrange(1, 6))
        gi = Graph.from_edges(g.edges(), list(g.ids) + ["iso"])
        assert q_state_sum(gi) == y * q_state_sum(g)


# -- vertex addition reductions -------------------------------------------------------


def _pendant(g, at):
    return graph_with_extra(g, "w+", [at])


def _false_twin(g, of):
    return graph_with_extra(g, "w+", [v for v in neighbors(g, of) if v != str(of)])


def _true_twin(g, of):
    return graph_with_extra(g, "w+", list(neighbors(g, of)) + [str(of)])


def test_pendant_reduction_formula():
    # q(G') = q(G) + (x^2 - 2x + y) q(G - u)
    rng = random.Random(31)
    factor = SparsePoly(("x", "y"), {(2, 0): 1, (1, 0): -2, (0, 1): 1})
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(1, 7))
        u = rng.choice(g.ids)
        gp = _pendant(g, u)
        assert q_state_sum(gp) == q_state_sum(g) + factor * q_state_sum(without(g, u))


def test_false_twin_reduction_formula():
    # q(G'') = q(G) + y (q(G) - q(G - v)), v not isolated
    rng = random.Random(32)
    y = SparsePoly(("x", "y"), {(0, 1): 1})
    done = 0
    while done < 60:
        g = _random_graph(rng, rng.randrange(2, 7))
        cands = [v for v in g.ids if degree(g, v) > 0]
        if not cands:
            continue
        v = rng.choice(cands)
        gf = _false_twin(g, v)
        q = q_state_sum(g)
        assert q_state_sum(gf) == q + y * (q - q_state_sum(without(g, v)))
        done += 1


def test_true_twin_reduction_formula():
    # q(G''') = 2 q(G) + ((x-1)^2 - 1) q(G - v), v not isolated
    rng = random.Random(33)
    factor = SparsePoly(("x", "y"), {(2, 0): 1, (1, 0): -2})
    done = 0
    while done < 60:
        g = _random_graph(rng, rng.randrange(2, 7))
        cands = [v for v in g.ids if degree(g, v) > 0]
        if not cands:
            continue
        v = rng.choice(cands)
        gt = _true_twin(g, v)
        assert q_state_sum(gt) == 2 * q_state_sum(g) + factor * q_state_sum(without(g, v))
        done += 1


def test_qn_duality_identities():
    # pendant: q_N(G') = q_N(G) + x q_N(G-u); false twin via the pivoted form;
    # true twin doubles q_N
    rng = random.Random(34)
    x = SparsePoly(("x",), {(1,): 1})
    done = 0
    while done < 60:
        g = _random_graph(rng, rng.randrange(2, 7))
        u = rng.choice(g.ids)
        gp = _pendant(g, u)
        assert qn_from_q(gp) == qn_from_q(g) + x * qn_from_q(without(g, u))
        nonisolated = [v for v in g.ids if degree(g, v) > 0]
        if not nonisolated:
            continue
        v = rng.choice(nonisolated)
        gt = _true_twin(g, v)
        assert qn_from_q(gt) == 2 * qn_from_q(g)
        gf = _false_twin(g, v)
        u2 = rng.choice(list(neighbors(g, v)))
        piv = g.pivot(u2, v)
        assert qn_from_q(gf) == qn_from_q(g) + x * qn_from_q(without(piv, u2))
        done += 1


def test_join_gamma_identities():
    # 2 gamma(join) = gamma(G) gamma(F) for one and two point joins
    rng = random.Random(35)
    done = 0
    while done < 60:
        g = _random_graph(rng, rng.randrange(2, 6), p=0.6)
        h = _random_graph(rng, rng.randrange(2, 6), p=0.6)
        gu = [v for v in g.ids if degree(g, v) > 0]
        hv = [v for v in h.ids if degree(h, v) > 0]
        if not gu or not hv:
            continue
        u, v = rng.choice(gu), rng.choice(hv)
        j1 = one_point_join(g, u, h, v)
        assert 2 * gamma_invariant(j1) == gamma_invariant(g) * gamma_invariant(h)
        j2 = two_point_join(g, u, h, v)
        assert 2 * gamma_invariant(j2) == gamma_invariant(g) * gamma_invariant(h)
        done += 1


# -- the kernel's pendant, loop and pivot rules and connectivity ------------------------


def _with_order(edges, last, rest):
    return Graph.from_edges(edges, [v for v in rest if v != last] + [last])


def _kernel_corpus():
    """Seeded simple graphs on 2-12 vertices that lead the kernel into each of its branches.

    The kernel reduces on the last vertex of a breadth-first order, so each
    family lists the vertex it aims at last; the order is recomputed from
    least degree, so this steers only some first reductions, and
    ``test_qn_kernel_corpus_reaches_every_pendant_case`` checks the branches on
    the kernel's own subproblems.
    """
    rng = random.Random(1010)
    graphs = []
    # a pendant "0" on b, b of every degree; the core may be disconnected
    for _ in range(90):
        core = _random_graph(rng, rng.randrange(1, 12), rng.choice((0.1, 0.25, 0.5)))
        b = rng.choice(core.ids)
        graphs.append(_with_order(core.edges() + [("0", b)], "0", core.ids))
    # stars with the centre and a leaf last
    for m in range(1, 12):
        star = star_graph(m)
        graphs.append(_with_order(star.edges(), "c", star.ids))
        graphs.append(_with_order(star.edges(), str(rng.randrange(1, m + 1)), star.ids))
    # pendant chains hung off G(n, 1/2) cores, the free end or a random vertex last
    for _ in range(40):
        core = _random_graph(rng, rng.randrange(2, 9))
        chain = [f"p{k}" for k in range(rng.randrange(1, 13 - core.n))]
        links = list(zip(chain, chain[1:])) + [(chain[-1], rng.choice(core.ids))]
        edges = core.edges() + links
        graphs.append(_with_order(edges, chain[0], chain + list(core.ids)))
        graphs.append(_with_order(edges, rng.choice(chain + list(core.ids)),
                                  chain + list(core.ids)))
    # isolated vertices at the front, the back and in between
    for _ in range(40):
        g = _random_graph(rng, rng.randrange(1, 10), rng.choice((0.3, 0.6)))
        iso = [f"i{k}" for k in range(rng.randrange(1, 13 - g.n))]
        ids = list(g.ids) + iso
        rng.shuffle(ids)
        graphs.append(Graph.from_edges(g.edges(), ids))
        graphs.append(Graph.from_edges(g.edges(), iso + list(g.ids)))
        graphs.append(Graph.from_edges(g.edges(), list(g.ids) + iso))
    return graphs


def _looped_kernel_corpus():
    """The kernel corpus with a loop on each vertex with probability 0.3, order kept."""
    rng = random.Random(1717)
    return [Graph.from_edges(g.edges() + [(v, v) for v in g.ids if rng.random() < 0.3], g.ids)
            for g in _kernel_corpus()]


def _kernel_branches(graphs, run=qn_recursive) -> set:
    """The cases the kernel meets on its subproblems of at least two vertices under ``run``.

    A connected one is reduced on its last vertex a and a's highest
    neighbour b: ("loop", "a") if a is looped; ("pendant", where b sits,
    deg b capped at 3) if N(a) = {b}, or ("pendant", "b looped"); ("loop",
    "b") if b is looped; else ("pivot",), or ("pivot", "third child") where
    x is not 2.  A split one records where its isolated vertices sit.
    """
    seen = set()
    for g in graphs:
        for rows, _, xs in _solve_calls(g, run):
            n = len(rows)
            if n < 2:
                continue
            if len(component_masks(rows)) > 1:
                seen.update(("isolated", "first" if k == 0 else "last" if k == n - 1 else "inside")
                            for k, r in enumerate(rows) if r & ~(1 << k) == 0)
                continue
            na = rows[-1]
            b = na.bit_length() - 1
            b_looped = rows[b] >> b & 1
            if b == n - 1:
                seen.add(("loop", "a"))
            elif na == 1 << b:
                seen.add(("pendant", "b looped") if b_looped else
                         ("pendant", "b last" if b == n - 2 else "b elsewhere",
                          min(rows[b].bit_count(), 3)))
            elif b_looped:
                seen.add(("loop", "b"))
            else:
                seen.add(("pivot", "third child") if xs > 1 else ("pivot",))
    return seen


def test_qn_kernel_corpus_reaches_every_pendant_case():
    graphs = _kernel_corpus()
    assert all(2 <= g.n <= 12 for g in graphs)
    # deg b = 1 is K_2, where b is the only other vertex and so last
    assert _kernel_branches(graphs) == {
        ("pivot",),
        ("pendant", "b last", 1), ("pendant", "b last", 2), ("pendant", "b last", 3),
        ("pendant", "b elsewhere", 2), ("pendant", "b elsewhere", 3),
        ("isolated", "first"), ("isolated", "inside"), ("isolated", "last")}


def test_qn_recursive_and_gamma_match_specialization_on_the_kernel_corpus():
    for g in _kernel_corpus():
        expected = qn_from_q(g)
        assert qn_recursive(g) == expected, g
        assert gamma_invariant(g) == expected.coefficient({"x": 1}), g


def _count_searches(monkeypatch) -> list:
    calls = []
    search = interlace.component_masks
    monkeypatch.setattr(interlace, "component_masks",
                        lambda rows: calls.append(rows) or search(rows))
    return calls


def _solve_calls(g, run=qn_recursive) -> list:
    """(rows, connected, xs) of every call of the kernel's ``solve`` while ``run(g)`` runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_qualname.endswith("_kernel.<locals>.solve"):
            f = frame.f_locals
            calls.append((f["rows"], f["connected"], f["xs"]))

    sys.setprofile(profile)
    try:
        run(g)
    finally:
        sys.setprofile(None)
    return calls


def test_qn_kernel_passes_connected_only_for_connected_subproblems():
    for g in _kernel_corpus():
        for rows, connected, _ in _solve_calls(g):
            assert not connected or len(component_masks(rows)) <= 1, g


def test_looped_kernel_corpus_reaches_every_loop_and_pivot_case():
    graphs = _looped_kernel_corpus()
    seen = _kernel_branches(graphs, q_recursive)
    assert {("loop", "a"), ("loop", "b"), ("pendant", "b looped"),
            ("pivot", "third child")} <= seen
    assert any(case[0] == "pendant" and len(case) == 3 for case in seen)
    assert ("pivot",) not in seen


def test_q_recursive_matches_state_sum_on_the_looped_kernel_corpus():
    for g in _looped_kernel_corpus():
        assert q_recursive(g) == q_state_sum(g), g
        assert all(not connected or len(component_masks(rows)) <= 1
                   for rows, connected, _ in _solve_calls(g, q_recursive)), g


def test_qn_kernel_searches_a_path_at_most_once(monkeypatch):
    # breadth-first order keeps path_graph(n) as it is, so the kernel reduces on
    # an end of the path and every child is known to be connected
    calls = _count_searches(monkeypatch)
    for n in (3, 50, 300):
        calls.clear()
        solved = _solve_calls(path_graph(n))
        assert len(calls) <= 1, n
        assert all(connected for _, connected, _ in solved[1:]), n


def test_qn_kernel_root_is_searched_only_when_the_order_pass_finds_several_components(
        monkeypatch):
    # the breadth-first pass counts the components, so a connected input is not
    # searched again; a disconnected one is searched once and split
    calls = _count_searches(monkeypatch)
    for n in (2, 50, 300):
        calls.clear()
        assert qn_recursive(path_graph(n)) == path_qn(n)
        assert calls == [], n
    g = _shuffled(disjoint_union(path_graph(4), cycle_graph(5)), random.Random(1515))
    calls.clear()
    root = _solve_calls(g)[0]
    assert not root[1] and calls[0] == root[0] and calls.count(root[0]) == 1
    assert qn_recursive(g) == qn_from_q(g)


def test_q_recursive_searches_a_star_about_once_per_leaf(monkeypatch):
    # each sub-star is reduced on a leaf by the pendant rule; the only split is
    # the edgeless G-a-b, solved once and memoised
    calls = _count_searches(monkeypatch)
    q = q_recursive(star_graph(299))
    assert len(calls) <= 300
    assert qn_of_q(q) == qn_recursive(star_graph(299))


def test_qn_kernel_reduces_every_subproblem_of_a_tree_on_a_leaf():
    rng = random.Random(1616)
    for n in (12, 30, 60):
        vs = [f"v{k}" for k in range(n)]
        tree = _shuffled(Graph.from_edges([(vs[k], vs[rng.randrange(k)]) for k in range(1, n)],
                                          vs), rng)
        for rows, _, _ in _solve_calls(tree):
            if len(rows) >= 2 and len(component_masks(rows)) == 1:
                assert rows[-1].bit_count() == 1, n


def test_qn_kernel_searches_each_subproblem_of_unknown_connectivity_once(monkeypatch):
    # the memo answers every later call, so component_masks runs exactly for the
    # subproblems of two or more vertices whose first call did not say connected
    calls = _count_searches(monkeypatch)
    rng = random.Random(1414)
    vs = [f"v{k}" for k in range(40)]
    tree = _shuffled(Graph.from_edges([(vs[k], vs[rng.randrange(k)]) for k in range(1, 40)], vs),
                     rng)
    for g in (_random_graph(random.Random(1414), 14), tree):
        calls.clear()
        first: dict[tuple, bool] = {}
        for rows, connected, _ in _solve_calls(g):
            first.setdefault(rows, connected)
        assert len(calls) == len(set(calls)), g
        assert set(calls) == {rows for rows, connected in first.items()
                              if not connected and len(rows) >= 2}, g
        assert qn_recursive(g) == qn_from_q(g)


def test_q_recursive_reads_wide_signed_coefficients_on_complete_graphs():
    # q(K_8) already has a 10-bit coefficient, wider than the n + 1 bits of the q_N kernel
    assert max(abs(c) for c in q_state_sum(complete_graph(8)).terms.values()).bit_length() >= 10
    # K_0 is the empty graph, read back from one digit with d = 1
    for n in (0, 1, 2, *range(8, 15)):
        g = complete_graph(n)
        looped = Graph.from_edges(g.edges() + [(v, v) for v in g.ids], g.ids)
        assert q_recursive(g) == q_state_sum(g), n
        assert q_recursive(looped) == q_state_sum(looped), n


def test_q_recursive_on_a_long_path_specializes_to_qn():
    g = path_graph(150)
    assert qn_of_q(q_recursive(g)) == qn_recursive(g)


def test_q_recursive_takes_isolated_vertices_and_components_apart():
    rng = random.Random(1921)
    for _ in range(40):
        # a few small components, isolated vertices with and without loops, interleaved labels
        edges, ids = [], [f"v{i}" for i in range(rng.randrange(1, 13))]
        for u in ids:
            for v in ids:
                if u < v and rng.random() < 0.15 or u == v and rng.random() < 0.25:
                    edges.append((u, v))
        g = Graph.from_edges(edges, ids)
        assert q_recursive(g) == q_state_sum(g), edges
    # 1,000 isolated vertices are one monomial: nothing is laid out per vertex
    assert q_recursive(Graph.edgeless(1000)) == XY({(0, 1000): 1})
    looped = Graph.from_edges([(f"v{i}", f"v{i}") for i in range(300)] + [("a", "b")],
                              [f"v{i}" for i in range(300)] + ["c"])
    assert q_recursive(looped) == XY({(300, 1): 1}) * q_recursive(Graph.from_edges([("a", "b")]))
    # a star has rank 2, so its q is laid out three digits to a power of y
    assert qn_of_q(q_recursive(star_graph(40))) == qn_recursive(star_graph(40))


# -- the hanging-path rule ------------------------------------------------------------


def _legs(root, lengths, tag):
    """Edges of paths of the given lengths hung from root, on new vertices tag<k>_<i>."""
    edges = []
    for k, m in enumerate(lengths):
        prev = root
        for i in range(m):
            edges.append((prev, f"{tag}{k}_{i}"))
            prev = f"{tag}{k}_{i}"
    return edges


def _hanging_path_corpus():
    """Seeded graphs with hanging paths, each also with its vertex ids shuffled.

    Spiders, lollipops, caterpillars, paths hung from a looped vertex or
    ending in one, tails whose would-be chain is cut by a looped or a
    degree-3 vertex, and tails the breadth-first order lists last.
    """
    rng = random.Random(2525)
    graphs = []
    # spiders: K_{1,k} with legs of 1-6 vertices
    for k in range(1, 5):
        graphs.append(Graph.from_edges(_legs("c", [rng.randint(1, 6) for _ in range(k)], "l")))
    # lollipops: K_4 and C_5 with a tail
    for core in (complete_graph(4), cycle_graph(5)):
        for m in (1, 2, rng.randint(3, 8)):
            graphs.append(Graph.from_edges(core.edges() + _legs("1", [m], "t")))
    # caterpillars: a spine with zero to two leaves on each spine vertex
    for _ in range(4):
        spine = [f"s{i}" for i in range(rng.randint(2, 7))]
        edges = [e for v in spine for e in _legs(v, [1] * rng.randint(0, 2), v)]
        graphs.append(Graph.from_edges(list(zip(spine, spine[1:])) + edges, spine))
    # a path hung from a looped r, on a core that may be disconnected
    for m in (1, 3, 6):
        core = _random_graph(rng, 5)
        r = rng.choice(core.ids)
        graphs.append(Graph.from_edges(core.edges() + [(r, r)] + _legs(r, [m], "t"), core.ids))
    # a seven-vertex tail t0_0..t0_6 on K_4 or C_5 whose fourth vertex is looped or has a leaf
    for core in (complete_graph(4), cycle_graph(5)):
        tail = _legs("1", [7], "t")
        graphs.append(Graph.from_edges(core.edges() + tail + [("t0_3", "t0_3")]))
        graphs.append(Graph.from_edges(core.edges() + tail + [("t0_3", "x")]))
    # a tail on C_5 across from a leaf listed first, so the tail comes last in path order
    for m in (3, 6):
        edges = cycle_graph(5).edges() + [("y", "1")] + _legs("3", [m], "t")
        graphs.append(Graph.from_edges(edges, ["y"] + [str(v) for v in range(1, 6)]))
    # a tail on C_5 whose looped end is listed first, so the walk reaches it from the cycle
    for m in (1, 4):
        end = f"t0_{m - 1}"
        edges = cycle_graph(5).edges() + _legs("1", [m], "t") + [(end, end)]
        graphs.append(Graph.from_edges(edges, [end] + [str(v) for v in range(1, 6)]))
    return [h for g in graphs for h in (g, _shuffled(g, rng))]


def _hanging_paths(graphs, run) -> set:
    """(min(L, 3), kind of r, listing) of each hanging path the kernel meets under ``run``.

    Only connected subproblems whose last vertex a is loopless with one
    neighbour count.  The path is followed whatever the order; r is an
    "end" (no neighbour besides a_L) or a "branch", and "looped" or not;
    the listing is "in order" when a_1, ..., a_L are the last L rows.
    """
    seen = set()
    for g in graphs:
        for rows, _, _ in _solve_calls(g, run):
            n = len(rows)
            if n < 2 or len(component_masks(rows)) > 1 or rows[-1].bit_count() != 1:
                continue
            prev, r, length = n - 1, rows[-1].bit_length() - 1, 1
            if r == n - 1:
                continue
            while rows[r] >> r & 1 == 0 and (rows[r] ^ 1 << prev).bit_count() == 1:
                prev, r, length = r, (rows[r] ^ 1 << prev).bit_length() - 1, length + 1
            others = rows[r] & ~(1 << r | 1 << prev)
            seen.add((min(length, 3), "looped " * (rows[r] >> r & 1) + ("branch" if others else "end"),
                      "in order" if prev == n - length else "scattered"))
    return seen


def test_hanging_path_corpus_reaches_long_paths_to_every_kind_of_end():
    graphs = _hanging_path_corpus()
    assert all(g.n <= 25 for g in graphs)
    seen = _hanging_paths(graphs, q_recursive)
    assert {(3, kind, "in order") for kind in ("end", "branch", "looped end",
                                               "looped branch")} <= seen
    assert {(3, "end", "scattered"), (3, "branch", "scattered")} <= seen
    simple = [g for g in graphs if g.is_simple()]
    assert {(3, "end", "in order"), (3, "branch", "in order"),
            (3, "branch", "scattered")} <= _hanging_paths(simple, qn_recursive)


def test_hanging_path_rule_matches_the_state_sums():
    for g in _hanging_path_corpus():
        expected = q_state_sum(g)
        assert q_recursive(g) == expected, g
        if g.is_simple():
            assert qn_recursive(g) == qn_from_q(g), g


def test_qn_kernel_solves_a_path_in_at_most_three_calls():
    # P_n hangs from its first vertex r: solve(P_n), then u_L = solve(r) and
    # u_{L+1} = solve(empty), so nothing between the ends is solved
    for n in (3, 50, 300, 2000):
        assert len(_solve_calls(path_graph(n))) <= 3, n


def test_qn_recursive_solves_a_2500_vertex_path_under_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    assert qn_recursive(path_graph(2500)) == path_qn(2500)
