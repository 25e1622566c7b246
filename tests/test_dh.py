import random
import sys
from collections import Counter

import pytest

from builders import degree, has_edge, induced, neighbors, one_point_join, without
from conftest import all_labeled_graphs, medial_circle_graphs
from dh_reference import is_62_chordal, is_bipartite, reference_peel
from tutte_reference import matrix_tree_count
from graphpoly.chords import circle_graph
from graphpoly.dh import (DHSequence, _peel, apply_dh_sequence, bdh_to_sp,
                          gamma_from_sequence, is_bdh,
                          qn_bdh_fast, recognize_dh)
from graphpoly.euler import all_euler_circuits, chord_diagram_from_circuit, euler_circuit
from graphpoly.graphs import Graph, complete_graph, cycle_graph, path_graph
from graphpoly.interlace import gamma_invariant, gamma_state_sum, qn_from_q, qn_recursive
from graphpoly.planar import build_sp, medial_digraph, sp_diagonal_tutte
from graphpoly.poly import SparsePoly
from graphpoly.randgen import (random_bdh_graph, random_dh_sequence, random_graph,
                               random_sp_sequence)


def SEQ(*ops):
    return DHSequence(tuple(ops))


def test_apply_examples():
    k2 = apply_dh_sequence(SEQ(("root", "a"), ("pendant", "b", "a")))
    assert k2 == Graph.from_edges([("a", "b")])
    k3 = apply_dh_sequence(SEQ(("root", "a"), ("pendant", "b", "a"),
                               ("truetwin", "c", "b")))
    assert k3 == Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    p3 = apply_dh_sequence(SEQ(("root", "a"), ("pendant", "b", "a"),
                               ("falsetwin", "c", "b")))
    assert p3 == Graph.from_edges([("a", "b"), ("a", "c")])


def test_apply_validation():
    with pytest.raises(ValueError):
        apply_dh_sequence(SEQ(("root", "a"), ("truetwin", "b", "a")))  # isolated
    with pytest.raises(ValueError):
        apply_dh_sequence(SEQ(("root", "a"), ("pendant", "b", "z")))
    with pytest.raises(ValueError):
        apply_dh_sequence(SEQ(("root", "a"), ("pendant", "a", "a")))
    with pytest.raises(ValueError):
        DHSequence((("pendant", "b", "a"),))


def test_dh_sequence_rejects_a_bad_op():
    with pytest.raises(ValueError, match=r"^bad op \('pendant', 'b'\)$"):
        DHSequence((("root", "a"), ("pendant", "b")))


@pytest.mark.parametrize("ops, message", [
    ((("pendant", "b", "a"), ("pendant", "b", "a")), "vertex 'b' added twice"),
    ((("pendant", "b", "z"),), "op references unknown vertex 'z'"),
    ((("falsetwin", "b", "a"),), "second op must be a pendant"),
])
def test_bad_scripts_are_rejected_where_they_are_built(ops, message):
    ops = (("root", "a"),) + ops
    with pytest.raises(ValueError, match=message):
        DHSequence(ops)
    for consumer in (bdh_to_sp, apply_dh_sequence, gamma_from_sequence):
        with pytest.raises(ValueError, match=message):
            consumer(DHSequence(ops))


def test_apply_gives_each_new_vertex_the_neighbourhood_its_op_defines():
    # among the vertices added before it: {at} for a pendant, N(at) for a false
    # twin, N(at) + at for a true twin; every edge is checked at its later end
    rng = random.Random(73)
    kinds = Counter()
    for _ in range(200):
        seq = random_dh_sequence(rng.randrange(2, 41), rng)
        g = apply_dh_sequence(seq)
        assert g.ids == tuple(op[1] for op in seq.ops)
        for k, (kind, new, at) in enumerate(seq.ops[1:], 1):
            n_at = set(neighbors(induced(g, g.ids[:k]), at))
            want = {"pendant": {at}, "falsetwin": n_at, "truetwin": n_at | {at}}[kind]
            assert set(neighbors(induced(g, g.ids[:k + 1]), new)) == want
            kinds[kind] += 1
    assert min(kinds.values()) > 500


def test_recognize_c6_rejected():
    rec = recognize_dh(cycle_graph(6))
    assert not rec.accepted
    assert rec.residual.n == 6  # nothing peels at all


def test_true_twin_count_of_a_rejected_graph_is_an_error():
    with pytest.raises(ValueError, match="^graph was rejected$"):
        recognize_dh(cycle_graph(6)).true_twin_count


def test_recognize_k3():
    rec = recognize_dh(complete_graph(3))
    assert rec.accepted and rec.true_twin_count == 1
    assert apply_dh_sequence(rec.sequence) == complete_graph(3)


def test_recognize_path_all_pendants():
    rec = recognize_dh(path_graph(5))
    assert rec.accepted
    assert all(op[0] in ("root", "pendant") for op in rec.sequence.ops)


def test_recognize_single_vertex_and_disconnected():
    assert recognize_dh(Graph.edgeless(1)).accepted
    assert not recognize_dh(Graph.edgeless(2)).accepted


def test_random_dh_sequence_needs_a_vertex():
    with pytest.raises(ValueError, match="^need at least one vertex$"):
        random_dh_sequence(0, random.Random(0))


def test_recognition_round_trip_random():
    rng = random.Random(71)
    for _ in range(100):
        seq = random_dh_sequence(rng.randrange(1, 11), rng)
        g = apply_dh_sequence(seq)
        rec = recognize_dh(g)
        assert rec.accepted
        assert apply_dh_sequence(rec.sequence) == g


def _peel_corpus(seed):
    """Random G(n, p) with n <= 14, then relabelled DH scripts with true twins."""
    rng = random.Random(seed)
    for _ in range(150):
        yield random_graph(rng.randrange(1, 15), rng, p=rng.choice((0.15, 0.3, 0.5, 0.8)))
    for _ in range(100):
        g = apply_dh_sequence(random_dh_sequence(rng.randrange(1, 41), rng))
        ids = list(g.ids)
        rng.shuffle(ids)
        yield Graph.from_edges(g.edges(), ids)


def _same_recognition(a, b):
    if a.residual is None or b.residual is None:
        return a == b
    return ((a.sequence, a.residual.ids, a.residual.rows)
            == (b.sequence, b.residual.ids, b.residual.rows))


def test_recognize_dh_matches_reference_peel():
    rejected = 0
    for g in _peel_corpus(82):
        rec = recognize_dh(g)
        assert _same_recognition(rec, reference_peel(g)), g
        rejected += not rec.accepted
    assert 30 < rejected < 150  # both outcomes are well represented


def test_recognize_dh_large_bdh_graph_replays():
    g = random_bdh_graph(1600, random.Random(83))
    rec = recognize_dh(g)
    assert rec.accepted and rec.true_twin_count == 0
    assert apply_dh_sequence(rec.sequence) == g


def test_gamma_invariant_matches_state_sum():
    rng = random.Random(84)
    for n in range(12):
        for p in (0.2, 0.5):
            g = random_graph(n, rng, p)
            assert gamma_invariant(g) == qn_from_q(g).coefficient({"x": 1}), g
            assert gamma_state_sum(g) == gamma_invariant(g), g


def test_is_bdh_examples():
    assert is_bdh(path_graph(6)).value
    assert is_bdh(cycle_graph(4)).value
    assert not is_bdh(complete_graph(3)).value
    chordal_c6 = Graph.from_edges([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"),
                                   ("5", "6"), ("6", "1"), ("1", "4")])
    assert not is_bdh(chordal_c6).value
    assert "true twin" in is_bdh(complete_graph(3)).reason


def test_is_62_chordal_direct():
    assert not is_62_chordal(cycle_graph(6))
    one_chord = Graph.from_edges([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"),
                                  ("5", "6"), ("6", "1"), ("1", "4")])
    assert not is_62_chordal(one_chord)
    two_chords = Graph.from_edges([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"),
                                   ("5", "6"), ("6", "1"), ("1", "4"), ("2", "5")])
    assert is_62_chordal(two_chords)
    assert is_62_chordal(cycle_graph(4))
    assert is_62_chordal(complete_graph(3))


def test_is_bdh_matches_direct_characterization():
    # on connected graphs: BDH iff bipartite and (6,2)-chordal
    rng = random.Random(72)
    checked = 0
    while checked < 120:
        n = rng.randrange(2, 8)
        vs = [str(i) for i in range(1, n + 1)]
        edges = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                 if rng.random() < 0.4]
        g = Graph.from_edges(edges, vs)
        if not g.is_connected():
            continue
        direct = is_bipartite(g) and is_62_chordal(g)
        assert is_bdh(g).value == direct, g.edges()
        checked += 1


def test_gamma_from_sequence():
    assert gamma_from_sequence(SEQ(("root", "a"), ("pendant", "b", "a"))) == 2
    k3 = recognize_dh(complete_graph(3)).sequence
    assert gamma_from_sequence(k3) == 4 == gamma_invariant(complete_graph(3))
    with pytest.raises(ValueError):
        gamma_from_sequence(SEQ(("root", "a")))


def test_gamma_fast_matches_invariant_random():
    rng = random.Random(73)
    for _ in range(100):
        seq = random_dh_sequence(rng.randrange(2, 11), rng)
        g = apply_dh_sequence(seq)
        assert gamma_from_sequence(seq) == gamma_invariant(g)


def test_bdh_sequences_have_gamma_two():
    rng = random.Random(74)
    for _ in range(50):
        seq = random_dh_sequence(rng.randrange(2, 11), rng, allow_true_twins=False)
        assert gamma_from_sequence(seq) == 2


def test_bdh_to_sp_base_cases():
    sp, edge_of = bdh_to_sp(SEQ(("root", "a"), ("pendant", "b", "a")))
    assert sp.ops == (("digon",),)
    assert set(edge_of.values()) == {"e1", "e2"}
    sp, _ = bdh_to_sp(SEQ(("root", "a"), ("pendant", "b", "a"), ("pendant", "c", "b")))
    assert sp.ops == (("digon",), ("series", "e2"))
    assert sp_diagonal_tutte(sp) == SparsePoly(("x",), {(2,): 1, (1,): 2})
    sp, _ = bdh_to_sp(SEQ(("root", "a"), ("pendant", "b", "a"), ("falsetwin", "c", "b")))
    assert sp.ops == (("digon",), ("parallel", "e2"))
    assert sp_diagonal_tutte(sp) == SparsePoly(("x",), {(2,): 1, (1,): 2})


def test_bdh_to_sp_rejects_true_twins():
    with pytest.raises(ValueError):
        bdh_to_sp(SEQ(("root", "a"), ("pendant", "b", "a"), ("truetwin", "c", "b")))


def test_bdh_to_sp_needs_two_vertices_and_a_pendant_second_op():
    with pytest.raises(ValueError, match="need at least two vertices"):
        bdh_to_sp(SEQ(("root", "a")))
    with pytest.raises(ValueError, match="second op must be a pendant"):
        bdh_to_sp(SEQ(("root", "a"), ("falsetwin", "b", "a")))


def test_qn_bdh_fast_small():
    assert qn_bdh_fast(path_graph(3)) == SparsePoly(("x",), {(2,): 1, (1,): 2})
    assert qn_bdh_fast(Graph.edgeless(1)) == SparsePoly(("x",), {(1,): 1})


def test_qn_bdh_fast_errors_name_criterion():
    with pytest.raises(ValueError, match="true twin"):
        qn_bdh_fast(complete_graph(3))
    with pytest.raises(ValueError, match="disconnected"):
        qn_bdh_fast(Graph.edgeless(2))
    with pytest.raises(ValueError, match="not distance-hereditary"):
        qn_bdh_fast(cycle_graph(6))


def test_qn_bdh_fast_matches_oracle_random():
    rng = random.Random(75)
    for _ in range(60):
        g = random_bdh_graph(rng.randrange(2, 13), rng)
        assert qn_bdh_fast(g) == qn_recursive(g)


def test_qn_bdh_fast_exhaustive_small():
    for n in range(2, 6):
        for g in all_labeled_graphs(n):
            if not g.is_connected() or not is_bdh(g).value:
                continue
            assert qn_bdh_fast(g) == qn_from_q(g)


def test_qn_bdh_fast_tree_matches_pendant_recursion():
    # independent route: trees peel by pendants, q_N(G') = q_N(G) + x q_N(G - u)
    rng = random.Random(76)
    x = SparsePoly(("x",), {(1,): 1})
    parent = {"v1": None}
    edges = []
    for k in range(2, 51):
        at = f"v{rng.randrange(1, k)}"
        parent[f"v{k}"] = at
        edges.append((f"v{k}", at))
    tree = Graph.from_edges(edges, list(parent))
    memo = {}

    def qn_tree(g):
        key = frozenset(g.ids)
        if key in memo:
            return memo[key]
        if g.n == 1:
            return x
        leaf = next(v for v in g.ids if degree(g, v) == 1)
        (u,) = neighbors(g, leaf)
        rest = without(g, leaf)
        prod = SparsePoly.const(("x",), 1)
        for comp in without(rest, u).components():
            prod = prod * qn_tree(induced(rest, comp))
        memo[key] = qn_tree(rest) + x * prod
        return memo[key]

    assert qn_bdh_fast(tree) == qn_tree(tree)


def test_pendant_pivot_duality():
    rng = random.Random(77)
    done = 0
    while done < 60:
        n = rng.randrange(3, 8)
        vs = [str(i) for i in range(1, n + 1)]
        edges = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
                 if rng.random() < 0.4]
        g = Graph.from_edges(edges + [("w", "1")], vs + ["w"])
        if degree(g, "w") != 1 or degree(g, "1") < 2:
            continue
        v = next(z for z in neighbors(g, "1") if z != "w")
        piv = g.pivot("1", v)
        assert not has_edge(piv, "w", v)
        assert set(neighbors(piv, "w")) - {v} == set(neighbors(piv, v)) - {"w"}
        done += 1


def test_bdh_closed_under_pendant_and_false_twin_removal():
    rng = random.Random(78)
    for _ in range(40):
        g = random_bdh_graph(rng.randrange(3, 10), rng)
        for v in g.ids:
            pend = degree(g, v) == 1
            twin = any(set(neighbors(g, v)) == set(neighbors(g, u))
                       for u in g.ids if u != v and not has_edge(g, u, v))
            if pend or twin:
                assert is_bdh(without(g, v)).value


def test_true_twin_count_peel_order_independent():
    rng = random.Random(79)
    for _ in range(40):
        seq = random_dh_sequence(rng.randrange(2, 11), rng)
        g = apply_dh_sequence(seq)
        assert recognize_dh(g).true_twin_count == seq.true_twin_count
        for _ in range(10):
            # seeded orders of the reference peel draw among all legal removals
            ref = reference_peel(g, rng)
            assert ref.true_twin_count == seq.true_twin_count, g
            assert apply_dh_sequence(ref.sequence) == g


def test_one_point_join_of_bdh_is_bdh():
    rng = random.Random(80)
    for _ in range(30):
        g = random_bdh_graph(rng.randrange(2, 8), rng)
        h = random_bdh_graph(rng.randrange(2, 8), rng)
        u = rng.choice([v for v in g.ids if degree(g, v) > 0])
        v = rng.choice([w for w in h.ids if degree(h, w) > 0])
        assert is_bdh(one_point_join(g, u, h, v)).value
    assert is_bdh(one_point_join(path_graph(3), "1", path_graph(3), "1")).value


def test_every_medial_circuit_of_an_sp_graph_gives_a_bdh_circle_graph():
    # The correspondence theorem, one way: the circle graph of any Euler
    # circuit of the oriented medial of a series-parallel graph is BDH, and
    # its gamma, counted over all vertex subsets, is 2.
    circuits = 0
    for h in medial_circle_graphs(808, 40):
        assert is_bdh(h).value, h
        assert gamma_state_sum(h) == 2, h
        circuits += 1
    assert circuits > 100


def test_every_bdh_graph_is_the_circle_graph_of_a_medial_circuit_of_its_sp_graph():
    # The correspondence theorem, converse: bdh_to_sp's edge_of relabels the
    # circle graph of some Euler circuit of the medial of the built SP graph
    # to G itself.  The other circuits give other graphs with the same q_N.
    rng = random.Random(6020)
    for _ in range(150):
        g = random_bdh_graph(rng.randrange(2, 9), rng)
        sp, edge_of = bdh_to_sp(is_bdh(g).recognition.sequence)
        vertex_of = {e: v for v, e in edge_of.items()}
        med = medial_digraph(build_sp(sp))
        qn = qn_bdh_fast(g)
        found = False
        for circ in all_euler_circuits(med):
            h = circle_graph(chord_diagram_from_circuit(med, circ))
            assert qn_bdh_fast(h) == qn, (g, h)
            found = found or g == Graph.from_edges(
                [(vertex_of[a], vertex_of[b]) for a, b in h.edges()],
                [vertex_of[v] for v in h.ids])
        assert found, g


def _shared_peel_corpus(seed):
    """Shuffled DH graphs of 2-40 vertices with and without true twins, each
    followed by a copy with one vertex pair toggled, which often is not DH."""
    rng = random.Random(seed)
    for twins in (False, True):
        for _ in range(80):
            g = apply_dh_sequence(random_dh_sequence(rng.randrange(2, 41), rng, twins))
            ids = list(g.ids)
            rng.shuffle(ids)
            yield Graph.from_edges(g.edges(), ids)
            pair = {frozenset(rng.sample(ids, 2))}
            yield Graph.from_edges([tuple(e) for e in set(map(frozenset, g.edges())) ^ pair], ids)


def test_shared_peel_matches_reference_and_both_sp_routes():
    # recognize_dh, is_bdh and qn_bdh_fast share one peel, which builds the
    # closed-neighbourhood buckets only once no pendant or false twin is left:
    # every mix of bipartite or not and accepted or not must come out as the
    # slow peel says, and a seeded order of the slow peel must agree
    seen = set()
    for k, g in enumerate(_shared_peel_corpus(85)):
        bipartite = is_bipartite(g)
        rec = recognize_dh(g)
        ref = reference_peel(g)
        seeded = reference_peel(g, random.Random(k))
        assert rec.accepted == ref.accepted == seeded.accepted, g
        seen.add((bipartite, rec.accepted))
        if not is_bdh(g).value:
            with pytest.raises(ValueError):
                qn_bdh_fast(g)
        if not rec.accepted:
            assert rec.residual.n == ref.residual.n, g
            continue
        assert rec.true_twin_count == ref.true_twin_count == seeded.true_twin_count, g
        assert apply_dh_sequence(rec.sequence) == g == apply_dh_sequence(seeded.sequence)
        if rec.true_twin_count:
            continue
        # the seeded order builds another SP graph than qn_bdh_fast's own
        qn = qn_bdh_fast(g)
        for seq in (rec.sequence, seeded.sequence):
            assert qn == sp_diagonal_tutte(bdh_to_sp(seq)[0]), g
        if g.n <= 20:
            assert qn == qn_recursive(g), g
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _late_true_twin_graphs():
    """DH graphs whose deterministic peel takes pendant or false-twin steps
    before its first true twin: a triangle with a 10-vertex path hung on one
    corner, the same with shuffled ids, and a BDH graph with an edge joined
    between two false twins of highest degree, which makes them true twins."""
    path = [("t0", "p1")] + [(f"p{k}", f"p{k + 1}") for k in range(1, 10)]
    tail = Graph.from_edges([("t0", "t1"), ("t1", "t2"), ("t2", "t0")] + path)
    ids = list(tail.ids)
    random.Random(2323).shuffle(ids)
    bdh = random_bdh_graph(30, random.Random(0))
    groups = {}
    for v, r in zip(bdh.ids, bdh.rows):
        groups.setdefault(r, []).append(v)
    u, v = max((vs for vs in groups.values() if len(vs) > 1), key=lambda vs: degree(bdh, vs[0]))[:2]
    return [tail, Graph.from_edges(tail.edges(), ids),
            Graph.from_edges(bdh.edges() + [(u, v)], bdh.ids)]


def test_peel_builds_true_twin_buckets_mid_peel_as_the_reference_does():
    # the closed-neighbourhood buckets are built from the live rows only when
    # no pendant or false twin is left, here after several removals
    for g in _late_true_twin_graphs():
        rec = recognize_dh(g)
        assert _same_recognition(rec, reference_peel(g)), g
        kinds = [op[0] for op in reversed(rec.sequence.ops)]
        assert kinds[0] != "truetwin" and "truetwin" in kinds, g
        assert rec.true_twin_count == 1, g
        assert apply_dh_sequence(rec.sequence) == g


def test_deterministic_peels_run_every_statement_of_the_peel():
    # the peel has one order; these corpora must still reach every bucket
    # update, closed buckets left and joined, a true-twin mask grown and
    # shrunk, a pendant gained mid-peel, and a stuck peel's exit
    code = _peel.__code__
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None

        def line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return line
        return line

    graphs = [*_peel_corpus(82), *_shared_peel_corpus(85), *_late_true_twin_graphs()]
    sys.settrace(trace)
    try:
        for g in graphs:
            recognize_dh(g)
    finally:
        sys.settrace(None)
    statements = {line for _, _, line in code.co_lines() if line is not None}
    missing = statements - ran - {code.co_firstlineno}
    assert not missing, sorted(missing)


def test_qn_bdh_fast_error_messages_on_larger_inputs():
    with pytest.raises(ValueError, match=r"not distance-hereditary \(stuck residual on 5 "):
        qn_bdh_fast(cycle_graph(5))
    # P_4 with a true twin of an inner vertex: DH, not bipartite
    twinned = apply_dh_sequence(SEQ(("root", "a"), ("pendant", "b", "a"), ("pendant", "c", "b"),
                                ("pendant", "d", "c"), ("truetwin", "e", "c")))
    assert twinned.n == 5 and recognize_dh(twinned).accepted
    with pytest.raises(ValueError, match="construction needs 1 true twin"):
        qn_bdh_fast(twinned)
    # a disconnected graph never peels to one vertex, whatever its components are
    for parts in ((path_graph(3), path_graph(2)), (complete_graph(3), complete_graph(3))):
        g = Graph.from_edges([(f"{k}{u}", f"{k}{v}") for k, h in enumerate(parts)
                              for u, v in h.edges()])
        with pytest.raises(ValueError, match="disconnected"):
            qn_bdh_fast(g)


@pytest.mark.parametrize("ops", [200, 400, 800])
def test_qn_bdh_fast_of_a_medial_circle_graph_at_scale(ops):
    # Theorem B at scale: H, the circle graph of an Euler circuit of the
    # medial of G, is BDH with q_N(H) = t(G; x, x).  The peel of H builds
    # another SP graph than the script of G, so the two evaluations check
    # each other, and the coefficients sum to G's spanning-tree count.
    seq = random_sp_sequence(ops, random.Random(8600 + ops))
    g = build_sp(seq)
    med = medial_digraph(g)
    h = circle_graph(chord_diagram_from_circuit(med, euler_circuit(med)))
    assert h.n == ops + 2
    qn = qn_bdh_fast(h)
    assert qn == sp_diagonal_tutte(seq)
    assert sum(qn.terms.values()) == matrix_tree_count(g.vertex_ids, g.edge_list())
