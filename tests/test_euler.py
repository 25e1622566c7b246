import random
from collections import Counter

import pytest

from graphpoly import euler
from graphpoly.euler import (EulerDigraph, _transition_systems,
                             all_euler_circuits, check_circuit,
                             chord_diagram_from_circuit,
                             circuit_partition_polynomial, euler_circuit,
                             verify_circuit_partition_identity)
from graphpoly.poly import SparsePoly
from graphpoly.randgen import random_2in2out

from euler_reference import reference_states


def X(terms):
    return SparsePoly(("x",), terms)


def digon_medial():
    return EulerDigraph.from_pairs([("u", "w"), ("u", "w"), ("w", "u"), ("w", "u")])


def test_degree_validation():
    with pytest.raises(ValueError, match=r"^vertex 'a' has in/out degree 0/1, need 2/2$"):
        EulerDigraph.from_pairs([("a", "b")])
    with pytest.raises(ValueError, match=r"^vertex 'a' has in/out degree 1/1, need 2/2$"):
        EulerDigraph(["a"], [("x", "a", "a")])  # only one loop: in/out degree 1


def test_two_loops_states():
    g = EulerDigraph.from_pairs([("v", "v"), ("v", "v")])
    counts = sorted(c for _, c in _transition_systems(g._slots))
    assert counts == [1, 2]
    assert circuit_partition_polynomial(g) == X({(2,): 1, (1,): 1})


def test_digon_medial_polynomial():
    f = circuit_partition_polynomial(digon_medial())
    assert f == X({(2,): 2, (1,): 2})


def test_edgeless_polynomial_is_one():
    g = EulerDigraph([], [])
    assert circuit_partition_polynomial(g) == X({(0,): 1})
    assert [c for _, c in _transition_systems(g._slots)] == [0]


def walk_corpus():
    """Seeded digraphs of 0-9 vertices, some disconnected, plus fixed loop and digon cases."""
    yield EulerDigraph([], [])
    yield EulerDigraph.from_pairs([("v", "v"), ("v", "v")])
    yield EulerDigraph.from_pairs([("v", "v"), ("v", "w"), ("w", "v"), ("w", "w")])
    yield digon_medial()
    yield EulerDigraph.from_pairs([("a", "a"), ("a", "a"), ("b", "b"), ("b", "b")])
    rng = random.Random(57)
    for n in range(10):
        for _ in range(6):
            yield random_2in2out(n, rng, connected=rng.random() < 0.7)


def test_gray_walk_matches_binary_counter_reference():
    loops = digons = disconnected = 0
    for g in walk_corpus():
        ref = list(reference_states(g))
        slots = g._slots
        # the walk updates succ in place, so each pairing is read before it resumes
        got = [(tuple((v, ((i1, succ[i1]), (i2, succ[i2]))) for v, (i1, i2), _ in slots), c)
               for succ, c in _transition_systems(slots)]
        assert len(got) == 2 ** g.n
        assert Counter(got) == Counter((p, c) for p, _, c in ref)

        first = g.arcs[0][0] if g.arcs else None
        expected = []
        for _, succ, c in ref:
            if c == 1:
                circ = [first]
                while succ[circ[-1]] != first:
                    circ.append(succ[circ[-1]])
                expected.append(tuple(circ))
        circuits = list(all_euler_circuits(g))
        assert len(set(circuits)) == len(circuits)
        assert Counter(circuits) == Counter(expected)
        for circ in circuits:
            check_circuit(g, circ)

        pairs = Counter((t, h) for _, t, h in g.arcs)
        loops += any(t == h for t, h in pairs)
        digons += any(t != h and pairs[(t, h)] + pairs[(h, t)] >= 2 for t, h in pairs)
        disconnected += not g.is_connected()
    assert loops and digons and disconnected


def test_state_count_is_power_of_two():
    rng = random.Random(51)
    for _ in range(20):
        g = random_2in2out(rng.randrange(1, 7), rng)
        f = circuit_partition_polynomial(g)
        assert sum(f.terms.values()) == 2 ** g.n
        assert f.coefficient({"x": 0}) == 0  # no constant term when edges exist


def test_transition_system_walk_refuses_past_its_limit_before_yielding(monkeypatch):
    g = random_2in2out(3, random.Random(52))
    monkeypatch.setattr(euler, "MAX_TRANSITION_SYSTEMS", 7)
    walk = _transition_systems(g._slots)
    with pytest.raises(ValueError, match=r"^walk over 2\^3 transition systems, over the limit of 7$"):
        next(walk)
    with pytest.raises(ValueError, match="over the limit of 7"):
        circuit_partition_polynomial(g)
    with pytest.raises(ValueError, match="over the limit of 7"):
        next(all_euler_circuits(g))
    monkeypatch.setattr(euler, "MAX_TRANSITION_SYSTEMS", 8)
    assert sum(1 for _ in _transition_systems(g._slots)) == 8
    assert sum(circuit_partition_polynomial(g).terms.values()) == 8


def test_euler_circuit_digon_medial():
    g = digon_medial()
    circ = euler_circuit(g)
    check_circuit(g, circ)
    word = [g.arc(a)[1] for a in circ]
    assert sorted(word) == ["u", "u", "w", "w"]
    assert word[0] != word[1]  # forced alternation


def test_euler_circuit_two_loops():
    g = EulerDigraph.from_pairs([("v", "v"), ("v", "v")])
    circ = euler_circuit(g)
    assert sorted(circ) == ["a1", "a2"]
    d = chord_diagram_from_circuit(g, circ)
    assert d.word == ("v", "v")


def test_euler_circuit_validity_random():
    rng = random.Random(53)
    for _ in range(100):
        g = random_2in2out(rng.randrange(1, 8), rng)
        circ = euler_circuit(g)
        check_circuit(g, circ)  # raises on any defect
        d = chord_diagram_from_circuit(g, circ)
        assert len(d.word) == 2 * g.n  # double occurrence by construction


def test_euler_circuit_errors():
    with pytest.raises(ValueError):
        euler_circuit(EulerDigraph([], []))
    disconnected = EulerDigraph.from_pairs(
        [("a", "a"), ("a", "a"), ("b", "b"), ("b", "b")])
    assert not disconnected.is_connected()
    with pytest.raises(ValueError, match="disconnected"):
        euler_circuit(disconnected)


def test_vertexless_digraph_counts_as_connected():
    assert EulerDigraph([], []).is_connected()


def test_check_circuit_rejects_bad_input():
    g = digon_medial()
    circ = list(euler_circuit(g))
    with pytest.raises(ValueError):
        check_circuit(g, circ[:-1])
    with pytest.raises(ValueError):
        check_circuit(g, [circ[0], circ[0], circ[2], circ[3]])


def test_check_circuit_rejects_arcs_that_do_not_meet():
    g = digon_medial()  # a1, a2: u -> w; a3, a4: w -> u
    with pytest.raises(ValueError, match="circuit breaks between arcs 'a1' and 'a2'"):
        check_circuit(g, ["a1", "a2", "a3", "a4"])


def test_duplicate_arc_id_is_rejected():
    with pytest.raises(ValueError, match="duplicate arc id 'x'"):
        EulerDigraph(["v"], [("x", "v", "v"), ("x", "v", "v")])


def test_unknown_arc_id_is_rejected():
    with pytest.raises(ValueError, match="^unknown arc 'zz'$"):
        digon_medial().arc("zz")


def test_all_euler_circuits_vs_f1():
    # transition systems with one cycle are exactly the Euler circuits
    rng = random.Random(54)
    for _ in range(15):
        g = random_2in2out(rng.randrange(1, 6), rng)
        circuits = list(all_euler_circuits(g))
        f = circuit_partition_polynomial(g)
        assert len(circuits) == f.coefficient({"x": 1})
        for circ in circuits:
            check_circuit(g, circ)


def test_identity_digon_medial():
    rep = verify_circuit_partition_identity(digon_medial())
    assert rep.ok
    assert rep.f == X({(2,): 2, (1,): 2})


def test_identity_random_digraphs():
    rng = random.Random(55)
    for _ in range(25):
        n = rng.randrange(1, 8)
        rep = verify_circuit_partition_identity(random_2in2out(n, rng))
        assert rep.ok
        if n > 5:
            assert rep.circuits_checked == 1


def test_identity_exhaustive_circuit_independence():
    rng = random.Random(56)
    for _ in range(10):
        g = random_2in2out(rng.randrange(1, 6), rng)
        rep = verify_circuit_partition_identity(g)
        assert rep.ok and rep.circuits_checked == len(list(all_euler_circuits(g))) >= 1
