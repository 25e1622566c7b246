import random

import pytest

from builders import chord_count
from state_sum_reference import bollobas_riordan_c_polynomial, reference_c_polynomial
from graphpoly import chords, interlace
from graphpoly.chords import (ChordDiagram, c_polynomial, chord_pivot,
                              chords_cross, circle_graph, verify_c_identity,
                              verify_c_reduction)
from graphpoly.euler import chord_diagram_from_circuit, euler_circuit
from graphpoly.graphs import Graph, complete_graph
from graphpoly.interlace import q_state_sum
from graphpoly.planar import build_sp, medial_digraph
from graphpoly.poly import SparsePoly
from graphpoly.randgen import random_chord_diagram, random_sp_sequence


def D(text):
    return ChordDiagram(text.split())


def _random_diagram(rng, k):
    word = [str(i) for i in range(1, k + 1)] * 2
    rng.shuffle(word)
    return ChordDiagram(word)


def test_word_validation():
    with pytest.raises(ValueError):
        ChordDiagram(["1", "2", "1"])
    with pytest.raises(ValueError):
        ChordDiagram(["1", "1", "1", "1"])


def test_circle_graph_examples():
    assert circle_graph(D("1 2 1 2")) == complete_graph(2)
    assert circle_graph(D("1 2 2 1")).edges() == []
    g = circle_graph(D("1 2 1 3 2 3"))
    assert set(map(frozenset, g.edges())) == {frozenset(("1", "2")), frozenset(("2", "3"))}


def test_circle_graph_rotation_reflection_invariant():
    rng = random.Random(41)
    for _ in range(40):
        d = _random_diagram(rng, rng.randrange(1, 7))
        base = circle_graph(d)
        for k in range(len(d.word)):
            assert circle_graph(ChordDiagram(d.word[k:] + d.word[:k])) == base
        assert circle_graph(ChordDiagram(reversed(d.word))) == base


def reference_circle_graph(d):
    """The pairwise oracle: chords in first-occurrence order, and a, b adjacent
    iff exactly one end of b lies strictly between the two ends of a."""
    labels = []
    for c in d.word:
        if c not in labels:
            labels.append(c)
    pos = {c: d.positions(c) for c in labels}
    edges = []
    for i, a in enumerate(labels):
        p1, p2 = pos[a]
        for b in labels[i + 1:]:
            q1, q2 = pos[b]
            if (p1 < q1 < p2) != (p1 < q2 < p2):
                edges.append((a, b))
    return Graph.from_edges(edges, labels)


def _assert_matches_reference(d):
    g, ref = circle_graph(d), reference_circle_graph(d)
    assert d.labels() == ref.ids
    assert (g.ids, g.rows) == (ref.ids, ref.rows), d


def test_circle_graph_matches_the_pairwise_oracle():
    rng = random.Random(4040)
    _assert_matches_reference(ChordDiagram([]))
    for k in range(41):
        for _ in range(10):
            _assert_matches_reference(_random_diagram(rng, k))


@pytest.mark.parametrize("ops", [200, 400, 800])
def test_circle_graph_matches_the_pairwise_oracle_on_medial_circuits(ops):
    # the scripts of test_dh.py::test_qn_bdh_fast_of_a_medial_circle_graph_at_scale
    med = medial_digraph(build_sp(random_sp_sequence(ops, random.Random(8600 + ops))))
    _assert_matches_reference(chord_diagram_from_circuit(med, euler_circuit(med)))


def test_chord_pivot_examples():
    d = D("1 2 1 2")
    assert circle_graph(chord_pivot(d, "1", "2")) == circle_graph(d)
    p = D("1 2 1 3 2 3")
    piv = chord_pivot(p, "1", "2")
    assert circle_graph(piv) == circle_graph(p).pivot("1", "2")


def test_chord_pivot_requires_crossing():
    with pytest.raises(ValueError):
        chord_pivot(D("1 2 2 1"), "1", "2")
    # verify_c_reduction pivots too, so it raises chord_pivot's error
    for check in (verify_c_reduction, chord_pivot):
        with pytest.raises(ValueError, match=r"^chords '1' and '2' do not cross$"):
            check(D("1 1 2 2"), "1", "2")


def test_chord_pivot_involution_random():
    rng = random.Random(42)
    done = 0
    while done < 100:
        d = _random_diagram(rng, rng.randrange(2, 8))
        g = circle_graph(d)
        if not g.edges():
            continue
        a, b = rng.choice(g.edges())
        dd = chord_pivot(chord_pivot(d, a, b), a, b)
        assert circle_graph(dd) == g
        done += 1


def test_chord_pivot_matches_graph_pivot_random():
    rng = random.Random(43)
    done = 0
    while done < 100:
        d = _random_diagram(rng, rng.randrange(2, 8))
        g = circle_graph(d)
        if not g.edges():
            continue
        a, b = rng.choice(g.edges())
        assert circle_graph(chord_pivot(d, a, b)) == g.pivot(a, b)
        done += 1


def test_c_polynomial_examples():
    YZ = lambda t: SparsePoly(("Y", "Z"), t)
    assert c_polynomial(ChordDiagram([])) == YZ({(0, 0): 1})
    assert c_polynomial(D("1 2 2 1")) == YZ({(0, 0): 1, (1, 0): 2, (2, 0): 1})
    assert c_polynomial(D("1 2 1 2")) == YZ({(0, 0): 1, (1, 0): 2, (2, 1): 1})


def test_c_polynomial_matches_per_subset_reference(no_recursion_kernel):
    rng = random.Random(707)
    for _ in range(40):
        d = _random_diagram(rng, rng.randrange(0, 10))
        assert c_polynomial(d) == reference_c_polynomial(d), d


def test_c_polynomial_is_the_one_vertex_bollobas_riordan_polynomial():
    YZ = lambda t: SparsePoly(("Y", "Z"), t)
    assert bollobas_riordan_c_polynomial(D("1 2 1 2")) == YZ({(0, 0): 1, (1, 0): 2, (2, 1): 1})
    rng = random.Random(7)
    for _ in range(300):
        d = random_chord_diagram(rng.randrange(0, 9), rng)
        assert c_polynomial(d) == bollobas_riordan_c_polynomial(d), d


def test_c_identity_worked_case():
    rep = verify_c_identity(D("1 2 1 2"), [(3, 4)])
    assert rep.values_c == (43,) and rep.values_q == (43,) and rep.ok


def test_c_identity_at_y_zero():
    rng = random.Random(44)
    for _ in range(10):
        d = _random_diagram(rng, rng.randrange(1, 6))
        rep = verify_c_identity(d, [(0, 1)])
        assert rep.values_c == (1,) and rep.ok


def test_c_identity_random_points():
    rng = random.Random(45)
    for _ in range(50):
        d = _random_diagram(rng, rng.randrange(1, 8))
        assert verify_c_identity(d, [(1, 1), (2, 4), (3, 9)]).ok


def test_c_identity_catches_a_wrong_histogram(monkeypatch):
    # one subset of the path 1 - 2 - 3 moves from the top (rank, nullity)
    # bucket to nullity + 2; C read off this histogram is wrong, and so is a
    # q read off the same histogram, so only an independent q can tell
    real = interlace.rank_nullity_histogram

    def wrong(rows):
        hist = real(rows)
        r, nl = max(hist)
        hist[r, nl] -= 1
        hist[r, nl + 2] = hist.get((r, nl + 2), 0) + 1
        return hist

    d, points = D("1 2 1 3 2 3"), [(1, 1), (2, 4), (3, 9)]
    assert verify_c_identity(d, points).ok
    monkeypatch.setattr(interlace, "rank_nullity_histogram", wrong)
    monkeypatch.setattr(chords, "rank_nullity_histogram", wrong)
    assert not verify_c_identity(d, points).ok


def test_c_identity_rejects_non_square():
    with pytest.raises(ValueError):
        verify_c_identity(D("1 2 1 2"), [(1, 2)])


def test_c_reduction_symmetric_case():
    rep = verify_c_reduction(D("1 2 1 2"), "1", "2")
    assert rep.ok


def test_c_reduction_random():
    # the form deleting the other pivot chord is the direct analogue of the
    # two-variable pivot recursion and must always hold; the same-chord form
    # C(D-a) + C(D^ab-a) + (Y^2 Z - 1) C(D^ab-a-b) only holds on symmetric
    # diagrams, so its failures are counted, not asserted
    Y, Z = SparsePoly.var("Y", ("Y", "Z")), SparsePoly.var("Z", ("Y", "Z"))
    rng = random.Random(46)
    done = 0
    minus_a_failures = 0
    while done < 100:
        d = _random_diagram(rng, rng.randrange(2, 8))
        g = circle_graph(d)
        if not g.edges():
            continue
        a, b = rng.choice(g.edges())
        rep = verify_c_reduction(d, a, b)
        assert rep.ok
        piv = chord_pivot(d, a, b)
        pab = c_polynomial(piv.delete(a, b))
        if c_polynomial(d) != (c_polynomial(d.delete(a)) + c_polynomial(piv.delete(a))
                               + Y * Y * Z * pab - pab):
            minus_a_failures += 1
        done += 1
    # asymmetric cases exist in any decent sample
    assert minus_a_failures > 0


def test_c_reduction_requires_crossing():
    with pytest.raises(ValueError):
        verify_c_reduction(D("1 1 2 2"), "1", "2")


def test_isolated_chord_factors():
    rng = random.Random(47)
    y = SparsePoly(("x", "y"), {(0, 1): 1})
    single = c_polynomial(D("e e"))
    for _ in range(20):
        d = _random_diagram(rng, rng.randrange(1, 6))
        with_iso = ChordDiagram(d.word + ("e", "e"))
        h = circle_graph(with_iso)
        assert q_state_sum(h) == y * q_state_sum(circle_graph(d))
        assert c_polynomial(with_iso) == c_polynomial(d) * single


def restrict(d, keep):
    """The subdiagram on the chords in keep."""
    return ChordDiagram(c for c in d.word if c in keep)


def test_diagram_helpers():
    d = D("1 2 1 3 2 3")
    assert chord_count(d) == 3
    assert d.positions("2") == (1, 4)
    assert d.delete("3") == D("1 2 1 2")
    assert restrict(d, ["1"]) == D("1 1")
    assert chords_cross(d, "1", "2")
    assert chords_cross(d, "2", "3")
    assert not chords_cross(d, "1", "3")
    assert str(d) == "1 2 1 3 2 3"


def test_delete_of_an_unknown_chord_is_rejected():
    with pytest.raises(ValueError, match="^unknown chord 'z'$"):
        D("1 2 1 2").delete("z")
