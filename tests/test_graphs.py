import random

import pytest

from builders import (degree, disjoint_union, has_edge, has_loop, induced, neighbors,
                      one_point_join, two_point_join)
from conftest import all_labeled_graphs
from state_sum_reference import rank_nullity
from graphpoly.graphs import (Graph, bfs_rows, compact_rows, complete_graph, component_masks,
                              cycle_graph, delete_index, path_graph, star_graph)
from graphpoly import fileio
from graphpoly.chords import circle_graph
from graphpoly.dh import apply_dh_sequence, recognize_dh
from graphpoly.randgen import random_chord_diagram, random_dh_sequence, random_graph


def test_rank_examples():
    assert rank_nullity(complete_graph(2)) == (2, 0)
    assert rank_nullity(Graph.edgeless(3)) == (0, 3)
    assert rank_nullity(complete_graph(3)) == (2, 1)


def test_rank_of_subset():
    g = complete_graph(3)
    assert rank_nullity(g, ["1", "2"]) == (2, 0)
    assert rank_nullity(g, []) == (0, 0)
    with pytest.raises(ValueError):
        rank_nullity(g, ["9"])


def test_rank_plus_nullity_and_even_rank_exhaustive():
    # loopless symmetric GF(2) matrices have even rank; every induced
    # subgraph of a graph on <= 6 vertices is itself such a graph, so
    # checking all graphs up to 6 vertices covers all subsets too
    for n in range(7):
        for g in all_labeled_graphs(n):
            r, nl = rank_nullity(g)
            assert r + nl == n
            assert r % 2 == 0


def test_loop_rank_can_be_odd():
    g = Graph.from_edges([("a", "a")])
    assert rank_nullity(g) == (1, 0)


def test_pivot_p3_fixed():
    p3 = path_graph(3)
    assert p3.pivot("1", "2") == p3


def test_pivot_p4_makes_c4():
    p4 = path_graph(4)
    assert p4.pivot("2", "3") == cycle_graph(4)


def test_pivot_requires_edge():
    with pytest.raises(ValueError):
        path_graph(3).pivot("1", "3")


def test_unknown_vertex_is_named():
    k3 = complete_graph(3)
    with pytest.raises(ValueError, match=r"^unknown vertex 'zz'$"):
        k3.pivot("1", "zz")
    with pytest.raises(ValueError, match=r"^unknown vertex 'zz'$"):
        k3.index_of("zz")
    assert k3.index_of(2) == 1  # ids are compared as strings


def test_pivot_involution_random():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randrange(2, 9)
        vs = [str(i) for i in range(1, n + 1)]
        edges = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:] if rng.random() < 0.5]
        g = Graph.from_edges(edges, vs)
        if not g.edges():
            continue
        u, v = rng.choice(g.edges())
        assert g.pivot(u, v).pivot(u, v) == g


def test_true_twins_pivot_fixed():
    # u, v true twins: no toggling occurs
    g = Graph.from_edges([("u", "v"), ("u", "a"), ("v", "a"), ("u", "b"), ("v", "b"),
                          ("a", "b")])
    assert g.pivot("u", "v") == g


def test_induced_and_union_examples():
    assert induced(complete_graph(3), ["1", "2"]) == complete_graph(2)
    assert induced(complete_graph(3), []).n == 0
    e2 = disjoint_union(Graph.edgeless(1), Graph.edgeless(1))
    assert e2.n == 2 and not e2.edges()


def test_induced_rejects_a_repeated_vertex():
    with pytest.raises(ValueError, match="^duplicate vertices in subset$"):
        induced(complete_graph(3), ["1", "2", "1"])


def test_disjoint_union_relabels_collisions():
    g = Graph.from_edges([("a", "b")])
    u = disjoint_union(g, g)
    assert u.n == 4 and len(u.edges()) == 2
    assert set(u.ids) == {"a", "b", "a'", "b'"}


def test_one_point_join_path():
    k2 = complete_graph(2)
    j = one_point_join(k2, "2", complete_graph(2), "1")
    assert j.n == 3 and len(j.edges()) == 2
    degs = sorted(degree(j, v) for v in j.ids)
    assert degs == [1, 1, 2]


def test_one_point_join_isolated_is_disjoint_union():
    g = complete_graph(2)
    h = Graph.from_edges([("x", "y")], ["x", "y", "z"])
    j = one_point_join(g, "1", h, "z")
    assert sorted(len(c) for c in j.components()) == [2, 2]


def test_two_point_join_single_vertex_is_false_twin():
    k2 = Graph.from_edges([("u", "w")])
    k1 = Graph.from_edges([], ["v"])
    j = two_point_join(k2, "u", k1, "v")
    # path with u and v the two leaves
    assert j.n == 3 and len(j.edges()) == 2
    assert degree(j, "u") == 1 and degree(j, "v") == 1 and degree(j, "w") == 2


def test_two_point_join_false_twins():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(2, 6)
        vs = [str(i) for i in range(1, n + 1)]
        edges = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < 0.5]
        g = Graph.from_edges(edges, vs)
        h = Graph.from_edges([("p", "q")])
        j = two_point_join(g, "1", h, "p")
        u, v = "1", [x for x in j.ids if x.startswith("p")][0]
        assert not has_edge(j, u, v)
        assert set(neighbors(j, u)) == set(neighbors(j, v))


def test_star_and_cycle_helpers():
    assert degree(star_graph(3), "c") == 3
    assert len(cycle_graph(5).edges()) == 5


def test_edge_list_stability():
    g = Graph.from_edges([("b", "a"), ("c", "c")])
    assert ("a", "b") in g.edges() or ("b", "a") in g.edges()
    assert has_loop(g, "c")
    assert not g.is_simple()
    with pytest.raises(ValueError):
        g.require_simple()


def test_edges_and_neighbors_match_the_index_scans():
    # the double loop over index pairs and the scan of each row that the
    # set-bit walks replaced, as the reference for order as well as content
    rng = random.Random(3030)
    for n in range(31):
        for _ in range(3):
            g = random_graph(n, rng, rng.random(), loops=True)
            assert g.edges() == [(g.ids[i], g.ids[j]) for i in range(n)
                                 for j in range(i, n) if g.rows[i] >> j & 1]
            for i, v in enumerate(g.ids):
                assert neighbors(g, v) == tuple(g.ids[j] for j in range(n) if g.rows[i] >> j & 1)


def test_constructor_rejects_malformed_adjacency():
    g = Graph(["a", "b", "c"], [0b011, 0b001, 0b100])
    assert g.edges() == [("a", "a"), ("a", "b"), ("c", "c")]
    for ids, rows, error in ((["a", "b", "c"], [0b100, 0, 0], "symmetric"),  # above the diagonal
                             (["a", "b", "c"], [0, 0, 0b001], "symmetric"),  # below the diagonal
                             (["a", "b"], [0b100, 0], "outside"),
                             (["a", "b"], [-1, 0], "outside"),
                             (["a", "a"], [0, 0], "duplicate"),
                             (["a", "b"], [0], "row count")):
        with pytest.raises(ValueError, match=error):
            Graph(ids, rows)


def test_unchecked_builders_pass_the_constructor_checks():
    # each in-package caller of Graph._set skips the checks of Graph(ids, rows);
    # its graphs must pass them unchanged, and a copy with one bit of one row
    # flipped must still be refused at the public constructor
    rng = random.Random(2024)
    built = []
    residuals = 0
    for n in (1, 2, 7, 30, 64):
        g = random_graph(n, rng, rng.random(), loops=True)
        built += [g, fileio.parse_edge_list(fileio.format_edge_list(g)),
                  apply_dh_sequence(random_dh_sequence(n, rng)),
                  circle_graph(random_chord_diagram(n, rng))]
        built += [g.pivot(u, v) for u, v in g.edges() if u != v][:3]
        rec = recognize_dh(random_graph(n, rng))
        if not rec.accepted:
            built.append(rec.residual)
            residuals += 1
    assert residuals >= 2
    for g in built:
        again = Graph(g.ids, g.rows)
        assert (again.ids, again.rows) == (g.ids, g.rows) and again == g
        for _ in range(3):
            i, j = rng.randrange(g.n), rng.randrange(g.n)
            if i != j:
                rows = list(g.rows)
                rows[i] ^= 1 << j
                with pytest.raises(ValueError, match="symmetric"):
                    Graph(g.ids, rows)


def test_compact_rows_keeps_the_masked_rows_in_order():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randrange(0, 40)
        rows = [rng.getrandbits(n) for _ in range(n)]
        mask = rng.getrandbits(n) if rng.random() < 0.6 else ((1 << rng.randrange(n + 1)) - 1) << rng.randrange(3) & ((1 << n) - 1)
        expected = tuple(rows)
        for i in reversed(range(n)):
            if not mask >> i & 1:
                expected = delete_index(expected, i)
        assert compact_rows(rows, mask) == expected


def _reference_bfs_rows(rows):
    """Breadth-first relabelling by sets and a queue, each component from its least degree."""
    n = len(rows)
    nbrs = [[k for k in range(n) if r >> k & 1] for r in rows]
    order, seen = [], set()
    for start in sorted(range(n), key=lambda i: (len(nbrs[i]), i)):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        for v in queue:
            for k in nbrs[v]:
                if k not in seen:
                    seen.add(k)
                    queue.append(k)
        order += queue
    pos = {v: i for i, v in enumerate(order)}
    return tuple(sum(1 << pos[k] for k in nbrs[v]) for v in order)


def test_bfs_rows_matches_a_queue_search():
    rng = random.Random(88)
    for _ in range(300):
        n = rng.randrange(0, 30)
        p = rng.choice((0.05, 0.15, 0.5))
        vs = [str(i) for i in range(n)]
        g = Graph.from_edges([(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                              if rng.random() < p], vs)
        assert bfs_rows(g.rows)[0] == _reference_bfs_rows(g.rows)


def test_bfs_rows_keeps_a_path_and_puts_a_leaf_last():
    for n in (1, 2, 5, 300):
        assert bfs_rows(path_graph(n).rows)[0] == path_graph(n).rows
    rng = random.Random(89)
    for n in range(2, 60):
        vs = [str(i) for i in range(n)]
        rng.shuffle(vs)
        tree = Graph.from_edges([(vs[k], vs[rng.randrange(k)]) for k in range(1, n)], sorted(vs))
        last = bfs_rows(tree.rows)[0][-1]
        assert last and not last & (last - 1), n


def test_bfs_rows_counts_the_components_it_starts():
    # empty, single, looped and isolated vertices, and several pieces whose ids interleave
    rng = random.Random(90)
    graphs = [Graph([], []), Graph(["a"], [0]), Graph(["a"], [1]), Graph.edgeless(5)]
    for _ in range(300):
        vs = [str(i) for i in range(rng.randrange(1, 30))]
        rng.shuffle(vs)
        edges, k = [], 0
        while k < len(vs):
            piece = vs[k:k + rng.randrange(1, 8)]
            k += len(piece)
            edges += [(u, v) for i, u in enumerate(piece) for v in piece[i + 1:]
                      if rng.random() < 0.4]
        edges += [(v, v) for v in vs if rng.random() < 0.2]
        graphs.append(Graph.from_edges(edges, sorted(vs, key=int)))
    for g in graphs:
        rows, components = bfs_rows(g.rows)
        assert components == len(component_masks(g.rows)), g
        assert rows == _reference_bfs_rows(g.rows), g
    assert {bfs_rows(g.rows)[1] for g in graphs} >= {0, 1, 2, 3, 5}
