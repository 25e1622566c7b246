import random
from collections import Counter
from itertools import combinations

import pytest

from builders import euler_formula_ok, sp_dual
from graphpoly import planar
from graphpoly.chords import circle_graph
from graphpoly.dh import recognize_dh
from graphpoly.euler import all_euler_circuits, chord_diagram_from_circuit
from graphpoly.interlace import gamma_state_sum
from graphpoly.planar import (PlaneMultigraph, SPSequence, beta_invariant,
                              build_sp, diagonal, medial_digraph, sp_diagonal_tutte,
                              tutte_polynomial, verify_medial_tutte_identity)
from graphpoly.poly import SparsePoly
from graphpoly.randgen import random_sp_sequence
from tutte_reference import tutte_by_subsets

K4 = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]


def XY(terms):
    return SparsePoly(("x", "y"), terms)


def X(terms):
    return SparsePoly(("x",), terms)


def SP(*ops):
    return SPSequence((("digon",),) + tuple(ops))


def test_sp_sequence_validation():
    with pytest.raises(ValueError):
        SPSequence((("series", "e1"),))
    with pytest.raises(ValueError):
        SP(("series", "e9"))
    with pytest.raises(ValueError):
        SP(("twist", "e1"))


def test_build_digon():
    g = build_sp(SP())
    assert g.n == 2 and g.m == 2
    assert len(g.faces()) == 2
    assert euler_formula_ok(g)


def test_build_triangle_and_bond():
    c3 = build_sp(SP(("series", "e2")))
    assert c3.n == 3 and c3.m == 3 and euler_formula_ok(c3)
    bond = build_sp(SP(("parallel", "e1")))
    assert bond.n == 2 and bond.m == 3 and euler_formula_ok(bond)
    assert len(bond.faces()) == 3


def test_build_larger_sequences_stay_planar():
    rng = random.Random(61)
    for _ in range(50):
        seq = random_sp_sequence(rng.randrange(1, 11), rng)
        g = build_sp(seq)
        assert g.is_connected()
        assert euler_formula_ok(g)


def test_rotation_validation():
    with pytest.raises(ValueError):
        PlaneMultigraph(["a", "b"], {"a": ["e"], "b": []})
    with pytest.raises(ValueError):
        PlaneMultigraph(["a"], {"a": ["e"], "z": ["e"]})


def test_plane_multigraph_reads_its_edges_off_the_rotation():
    g = PlaneMultigraph([1, 2, 3], {3: ["f", "e"], 1: [7, "f"], 2: ["e", 7]})
    assert g.vertex_ids == ("1", "2", "3")
    assert g.rotation == {"1": ("7", "f"), "2": ("e", "7"), "3": ("f", "e")}
    # ends in listing order, vertices taken in vertex order
    assert g.edge_map == {"7": ("1", "2"), "f": ("1", "3"), "e": ("2", "3")}
    assert euler_formula_ok(g) and len(g.faces()) == 2
    with pytest.raises(ValueError, match="^rotation at unknown vertex 'z'$"):
        PlaneMultigraph(["a"], {"a": ["e"], "z": ["e"]})
    with pytest.raises(ValueError, match=r"^edge 'e' has 1 end\(s\), expected 2$"):
        PlaneMultigraph(["a", "b"], {"a": ["e"]})
    with pytest.raises(ValueError, match=r"^edge 'e' has 3 end\(s\), expected 2$"):
        PlaneMultigraph(["a", "b"], {"a": ["e", "e"], "b": ["e"]})


def test_euler_formula_needs_a_connected_graph():
    g = PlaneMultigraph("abcd", {"a": ["e"], "b": ["e"], "c": ["f"], "d": ["f"]})
    with pytest.raises(ValueError, match="^Euler formula check needs a connected graph$"):
        euler_formula_ok(g)


def test_medial_digon():
    med = medial_digraph(build_sp(SP()))
    assert sorted(med.vertex_ids) == ["e1", "e2"]
    pairs = sorted((t, h) for _, t, h in med.arcs)
    assert pairs == [("e1", "e2"), ("e1", "e2"), ("e2", "e1"), ("e2", "e1")]


def test_medial_triangle():
    med = medial_digraph(build_sp(SP(("series", "e2"))))
    assert med.n == 3 and len(med.arcs) == 6


def test_medial_excludes_single_bridge():
    g = PlaneMultigraph(["a", "b"], {"a": ["e"], "b": ["e"]})
    with pytest.raises(ValueError):
        medial_digraph(g)


def test_medial_rejects_two_components():
    g = PlaneMultigraph("abcd", {"a": ["e", "f"], "b": ["f", "e"],
                                 "c": ["g", "h"], "d": ["h", "g"]})
    assert not g.is_connected()
    assert PlaneMultigraph([], {}).is_connected()
    with pytest.raises(ValueError, match="connected"):
        medial_digraph(g)


def test_medial_rejects_an_edgeless_graph():
    g = PlaneMultigraph(["a"], {})
    assert g.is_connected()
    with pytest.raises(ValueError, match="needs at least one edge"):
        medial_digraph(g)


def test_medial_allows_single_loop():
    g = PlaneMultigraph(["a"], {"a": ["e", "e"]})
    med = medial_digraph(g)
    assert med.n == 1 and len(med.arcs) == 2


def _k4_rotation(order):
    return PlaneMultigraph("abcd", order)


def test_medial_rejects_non_plane_rotation():
    order = {"a": ["ab", "ac", "ad"], "b": ["bc", "ab", "bd"],
             "c": ["cd", "ac", "bc"], "d": ["bd", "ad", "cd"]}
    plane = _k4_rotation(order)
    assert len(plane.faces()) == 4
    assert verify_medial_tutte_identity(plane).ok
    torus = _k4_rotation(dict(order, a=["ac", "ab", "ad"]))  # two darts swapped at a
    assert len(torus.faces()) == 2
    for fn in (medial_digraph, verify_medial_tutte_identity):
        with pytest.raises(ValueError, match="not a plane embedding"):
            fn(torus)


def test_medial_searches_for_components_once(monkeypatch):
    searches = []
    real = planar.label_rows
    monkeypatch.setattr(planar, "label_rows", lambda *a: searches.append(a) or real(*a))
    medial_digraph(_k4_rotation({"a": ["ab", "ac", "ad"], "b": ["bc", "ab", "bd"],
                                 "c": ["cd", "ac", "bc"], "d": ["bd", "ad", "cd"]}))
    assert len(searches) == 1
    two_bridges = PlaneMultigraph("abcd", {"a": ["e"], "b": ["e"], "c": ["f"], "d": ["f"]})
    with pytest.raises(ValueError, match="^medial digraph needs a connected plane graph$"):
        medial_digraph(two_bridges)


def test_every_medial_circuit_of_plane_k4_gives_a_non_dh_circle_graph():
    # The correspondence theorem, "only if": K_4 is plane but not
    # series-parallel (beta = 2), and no circle graph of its medial is BDH,
    # not even DH, while gamma(H) = 2 beta still holds for each circuit.
    order = {"a": ["ab", "ac", "ad"], "b": ["bc", "ab", "bd"],
             "c": ["cd", "ac", "bc"], "d": ["bd", "ad", "cd"]}
    med = medial_digraph(_k4_rotation(order))
    beta = beta_invariant(K4)
    assert beta == 2
    circuits = 0
    for circ in all_euler_circuits(med):
        h = circle_graph(chord_diagram_from_circuit(med, circ))
        rec = recognize_dh(h)
        assert not rec.accepted and rec.residual.n == 6, h
        assert gamma_state_sum(h) == 2 * beta, h
        circuits += 1
    assert circuits == 16


def test_medial_output_always_two_in_two_out():
    # EulerDigraph construction validates degrees, so surviving is the check
    rng = random.Random(62)
    for _ in range(30):
        seq = random_sp_sequence(rng.randrange(1, 9), rng)
        med = medial_digraph(build_sp(seq))
        assert len(med.arcs) == 2 * build_sp(seq).m


def test_tutte_small_cases():
    assert tutte_polynomial(build_sp(SP())) == XY({(1, 0): 1, (0, 1): 1})
    assert tutte_polynomial(build_sp(SP(("series", "e2")))) == \
        XY({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    assert tutte_polynomial(build_sp(SP(("parallel", "e1")))) == \
        XY({(1, 0): 1, (0, 1): 1, (0, 2): 1})


def test_tutte_loops_bridges_and_empty():
    assert tutte_polynomial([]) == XY({(0, 0): 1})
    assert tutte_polynomial([("a", "b")]) == XY({(1, 0): 1})
    assert tutte_polynomial([("a", "a")]) == XY({(0, 1): 1})
    assert tutte_polynomial([("a", "b"), ("b", "c")]) == XY({(2, 0): 1})


def test_tutte_disconnected_multiplies():
    t = tutte_polynomial([("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")])
    assert t == XY({(1, 0): 1, (0, 1): 1}) * XY({(1, 0): 1, (0, 1): 1})
    # integer labels, three components whose edges interleave in the list
    t = tutte_polynomial([(1, 2), (3, 4), (5, 5), (2, 1), (4, 3), (3, 4)])
    assert t == XY({(1, 0): 1, (0, 1): 1}) * XY({(1, 0): 1, (0, 1): 1, (0, 2): 1}) * XY({(0, 1): 1})


def test_tutte_keeps_top_level_bridges_loops_and_components_apart():
    # a 500-vertex path with a loop at every vertex is the single term x^499 y^500
    path = [(i, i + 1) for i in range(499)] + [(i, i) for i in range(500)]
    assert tutte_polynomial(path) == XY({(499, 500): 1})
    triangles = [e for t in range(12) for e in ((f"a{t}", f"b{t}"), (f"b{t}", f"c{t}"),
                                                (f"c{t}", f"a{t}"))]
    assert tutte_polynomial(triangles) == XY({(2, 0): 1, (1, 0): 1, (0, 1): 1}) ** 12
    # components of different sizes, joined to each other by bridges and carrying loops
    rng = random.Random(2024)
    for _ in range(40):
        edges = []
        for k in range(rng.randrange(1, 4)):  # at most 4 edges on at most 3 vertices each
            n = rng.randrange(1, 4)
            edges += [(f"{k}.{rng.randrange(n)}", f"{k}.{rng.randrange(n)}")
                      for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.5:  # a bridge from the first component to each other one
            edges += [(edges[0][0], f"{k}.0") for k in range(1, int(edges[-1][0].split(".")[0]) + 1)]
        assert tutte_polynomial(edges) == tutte_by_subsets(edges), edges


def random_multigraph(rng: random.Random) -> list:
    """Up to 10 edges on up to 6 vertices; loops and parallel edges are common."""
    n = rng.randrange(1, 7)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(11))]


def cactus(k: int) -> list:
    """k triangles in a chain, each sharing one vertex with the next."""
    return [e for t in range(0, 2 * k, 2) for e in ((t, t + 1), (t + 1, t + 2), (t + 2, t))]


def test_tutte_matches_subset_expansion():
    triangle = [(0, 1), (1, 2), (2, 0)]
    k4_chain = [(a + 3 * k, b + 3 * k) for k in range(3) for a, b in combinations(range(4), 2)]
    fixed = [[], [(0, 0)], [(0, 0), (0, 0)], [(0, 1)], [(0, 1), (0, 1)],
             triangle + [(3, 4), (4, 5), (5, 3)],  # two disjoint triangles
             triangle + [(2, 3)] + [(3, 4), (4, 5), (5, 3)] + [(5, 5)],  # bridge between cycles
             [(0, 1), (1, 2), (2, 3), (3, 4)], K4, K4 + [("a", "b"), ("c", "c")],
             triangle + [(2, 3), (3, 4), (4, 2)],  # bowtie
             cactus(6), k4_chain,
             # a triangle and a 4-cycle at vertex 0, a bridge to 6, loops at 0 and 6
             triangle + [(0, 3), (3, 4), (4, 5), (5, 0), (2, 6), (6, 6), (0, 0)],
             # labels of mixed types, which do not sort against each other
             [(1, "a"), ("a", 1), (1, "a")], [(None, 1), (1, None)],
             [((0, 1), "b"), ("b", (0, 1)), ("b", "c")]]
    rng = random.Random(65)
    graphs = fixed + [random_multigraph(rng) for _ in range(300)]
    seen = dict.fromkeys(("loop", "parallel", "bridge", "bridgeless disconnected",
                          "cut vertex, no bridge"), False)
    for edges in graphs:
        assert tutte_polynomial(edges) == tutte_by_subsets(edges), edges
        plain = [e for e in edges if e[0] != e[1]]
        bridges, loops, blocks = planar._blocks(edges)
        assert loops == len(edges) - len(plain)
        assert bridges + sum(map(len, blocks)) == len(plain)
        # how many blocks of two or more edges each vertex lies in
        in_blocks = Counter(z for b in blocks for z in {z for e in b for z in e})
        seen["loop"] |= loops > 0
        seen["parallel"] |= len({frozenset(e) for e in plain}) < len(plain)
        seen["bridge"] |= bridges > 0
        # with no bridge, a component is a tree of blocks that meet at cut vertices
        seen["bridgeless disconnected"] |= (not bridges and len(blocks)
                                            > 1 + sum(c - 1 for c in in_blocks.values()))
        seen["cut vertex, no bridge"] |= not bridges and max(in_blocks.values(), default=0) > 1
    assert all(seen.values()), seen


def test_tutte_splits_every_subproblem_into_its_blocks(monkeypatch):
    # deletion and contraction leave minors with cut vertices and no bridge or loop;
    # each must be solved as the product of its blocks, not deleted and contracted
    calls = []
    solve = planar._tutte

    def spy(edges, memo, w, wd):
        calls.append(edges)
        return solve(edges, memo, w, wd)

    monkeypatch.setattr(planar, "_tutte", spy)
    rng = random.Random(67)
    for edges in [K4, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]] + [
            [(rng.randrange(6), rng.randrange(6)) for _ in range(9)] for _ in range(40)]:
        assert tutte_polynomial(edges) == tutte_by_subsets(edges), edges
    solved = set(calls)
    split = 0
    for edges in solved:
        bridges, loops, blocks = planar._blocks(edges)
        if not bridges and not loops and len(blocks) > 1:
            split += 1
            assert {planar._normalize_edges(b) for b in blocks} <= solved, edges
    assert split


@pytest.mark.parametrize("k", range(3, 7))
def test_tutte_of_a_bond_is_x_plus_the_powers_of_y_in_one_step(k, monkeypatch):
    calls = []
    solve = planar._tutte

    def spy(edges, memo, w, wd):
        calls.append(edges)
        return solve(edges, memo, w, wd)

    monkeypatch.setattr(planar, "_tutte", spy)
    bond = [("a", "b")] * k
    want = XY({(1, 0): 1, **{(0, j): 1 for j in range(1, k)}})
    assert tutte_polynomial(bond) == want == tutte_by_subsets(bond)
    assert len(calls) == 1


def theta(*lengths: int) -> list:
    """Paths of the given lengths between the poles s and t."""
    edges = []
    for p, m in enumerate(lengths):
        path = ["s"] + [f"{p}.{i}" for i in range(1, m)] + ["t"]
        edges += zip(path, path[1:])
    return edges


def test_tutte_takes_parallel_classes_of_three_or_more_copies():
    # theta graphs with three or more direct edges between the poles, a 4-cycle
    # with every edge tripled, and seeded series-parallel multigraphs with some
    # edges repeated two to four times
    graphs = [theta(1, 1, 1, 2), theta(1, 1, 1, 1, 3), theta(1, 1, 1, 2, 2, 3),
              theta(1, 1, 1, 1, 1, 4), theta(2, 2) * 3]
    rng = random.Random(1108)
    for _ in range(24):
        edges = build_sp(random_sp_sequence(rng.randrange(2, 7), rng)).edge_list()
        for e in rng.sample(edges, min(len(edges), 2)):
            edges += [e] * rng.randrange(2, 5)
        graphs.append(edges[:12])
    classes = 0
    for edges in graphs:
        classes += max(Counter(map(frozenset, edges)).values()) >= 3
        assert tutte_polynomial(edges) == tutte_by_subsets(edges), edges
    assert classes >= 20


def test_tutte_of_a_cactus_is_the_product_over_its_triangles():
    expected = XY({(0, 0): 1})
    for _ in range(100):  # one factor at a time: squaring the dense powers is slow
        expected = expected * XY({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    assert tutte_polynomial(cactus(100)) == expected


def test_tutte_of_a_cycle_is_its_closed_form(monkeypatch):
    rng = random.Random(68)
    for n in range(2, 9):
        labels = rng.sample(range(100), n)
        edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
        rng.shuffle(edges)
        assert tutte_polynomial(edges) == tutte_by_subsets(edges), edges
    # a long cycle is one block, solved without deleting or contracting an edge
    calls = []
    solve = planar._tutte

    def spy(edges, memo, w, wd):
        calls.append(len(edges))
        return solve(edges, memo, w, wd)

    monkeypatch.setattr(planar, "_tutte", spy)
    edges = [(i, (i + 1) % 2000) for i in range(2000)]
    assert tutte_polynomial(edges) == XY({(0, 1): 1, **{(i, 0): 1 for i in range(1, 2000)}})
    assert calls == [2000]


def test_tutte_k4():
    t = tutte_polynomial(K4)
    assert t.eval_int({"x": 1, "y": 1}) == 16  # spanning trees of K4
    assert t.coefficient({"x": 1}) == t.coefficient({"y": 1}) == 2


def spanning_tree_count(edges) -> int:
    """Brute-force spanning tree count (oracle for t(G; 1, 1), small inputs only)."""
    edges = [tuple(e) for e in edges]
    verts = sorted({z for e in edges for z in e})
    n = len(verts)
    if n == 0:
        return 1
    idx = {v: i for i, v in enumerate(verts)}
    count = 0
    for sub in combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for k in sub:
            u, v = edges[k]
            ru, rv = find(idx[u]), find(idx[v])
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def test_tutte_counts_spanning_trees():
    rng = random.Random(63)
    for _ in range(25):
        seq = random_sp_sequence(rng.randrange(1, 8), rng)
        g = build_sp(seq)
        t = tutte_polynomial(g)
        assert t.eval_int({"x": 1, "y": 1}) == spanning_tree_count(g.edge_list())
    assert spanning_tree_count(K4) == 16


def test_beta_examples():
    assert beta_invariant(build_sp(SP())) == 1
    assert beta_invariant(build_sp(SP(("series", "e2")))) == 1
    assert beta_invariant(K4) == 2
    assert beta_invariant([(None, 1), (1, None)]) == 1  # labels that do not sort
    with pytest.raises(ValueError):
        beta_invariant([("a", "b")])


def test_beta_one_on_sp_corpus():
    rng = random.Random(64)
    for _ in range(30):
        seq = random_sp_sequence(rng.randrange(1, 10), rng)
        assert beta_invariant(build_sp(seq)) == 1


def test_sp_diagonal_examples():
    assert sp_diagonal_tutte(SP()) == X({(1,): 2})
    assert sp_diagonal_tutte(SP(("series", "e2"))) == X({(2,): 1, (1,): 2})
    assert sp_diagonal_tutte(SP(("parallel", "e1"))) == X({(2,): 1, (1,): 2})


def test_sp_diagonal_matches_deletion_contraction():
    rng = random.Random(65)
    for _ in range(40):
        seq = random_sp_sequence(rng.randrange(1, 11), rng)
        fast = sp_diagonal_tutte(seq)
        slow = diagonal(tutte_polynomial(build_sp(seq)))
        assert fast == slow


def test_sp_diagonal_duality_invariance():
    rng = random.Random(66)
    for _ in range(30):
        seq = random_sp_sequence(rng.randrange(1, 10), rng)
        assert sp_diagonal_tutte(seq) == sp_diagonal_tutte(sp_dual(seq))


def test_sp_diagonal_large_sequences():
    # beyond deletion/contraction: T(G; 2, 2) = 2^|E| and duality still pin it
    rng = random.Random(68)
    for _ in range(8):
        seq = random_sp_sequence(rng.randrange(100, 401), rng)
        t = sp_diagonal_tutte(seq)
        assert t.eval_int({"x": 2}) == 2 ** (len(seq) + 1)
        assert t == sp_diagonal_tutte(sp_dual(seq))


def test_sp_diagonal_raises_when_its_digits_do_not_sum_to_tau(monkeypatch):
    # reading the packed run one bit narrower, as bits = bits(tau) would, must
    # trip the digit-sum check rather than return wrong coefficients
    read = SparsePoly.from_base_digits
    monkeypatch.setattr(SparsePoly, "from_base_digits",
                        lambda variables, value, bits, d=1: read(variables, value, bits - 1, d))
    rng = random.Random(69)
    for _ in range(10):
        seq = random_sp_sequence(rng.randrange(1, 40), rng)
        with pytest.raises(AssertionError, match="sum to tau"):
            sp_diagonal_tutte(seq)


def test_medial_identity_digon_and_triangle():
    rep = verify_medial_tutte_identity(SP())
    assert rep.ok and rep.qn_circle == X({(1,): 2})
    rep = verify_medial_tutte_identity(SP(("series", "e2")))
    assert rep.ok and rep.qn_circle == X({(2,): 1, (1,): 2})


def test_medial_identity_random_sequences():
    rng = random.Random(67)
    for _ in range(30):
        seq = random_sp_sequence(rng.randrange(1, 9), rng)
        rep = verify_medial_tutte_identity(seq)
        assert rep.ok, str(rep)


def test_medial_identity_needs_two_edges():
    g = PlaneMultigraph(["a"], {"a": ["e", "e"]})
    with pytest.raises(ValueError):
        verify_medial_tutte_identity(g)


def test_medial_identity_rejects_what_is_not_a_plane_graph():
    with pytest.raises(TypeError, match="^need a PlaneMultigraph or SPSequence$"):
        verify_medial_tutte_identity(42)


def test_planar_keeps_no_module_level_memo():
    assert not [name for name, value in vars(planar).items()
                if isinstance(value, dict) and name.endswith(("_memo", "_cache"))]
