import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import (chord_count, euler_formula_ok, format_rotation_system, has_edge,
                      parse_dh_sequence)
from edge_list_reference import reference_parse_edge_list
from graphpoly import fileio
from graphpoly.euler import EulerDigraph
from graphpoly.graphs import Graph, cycle_graph
from graphpoly.planar import PlaneMultigraph, build_sp


def test_edge_list_round_trip():
    g = Graph.from_edges([("a", "b"), ("c", "c")], ["a", "b", "c", "iso"])
    back = fileio.parse_edge_list(fileio.format_edge_list(g))
    assert back == g


def test_edge_list_round_trip_keeps_isolated_vertices_first():
    # the isolated vertices are written first, where the parser puts single-token lines
    rng = random.Random(1104)
    graphs = [Graph.from_edges([("a", "b"), ("b", "c")], ["a", "b", "c", "iso"])]
    for n in range(2, 12):
        ids = [f"v{k}" for k in range(n)]
        edges = [(u, v) for u in ids for v in ids if u <= v and rng.random() < 0.15]
        graphs.append(Graph.from_edges(edges, ids))
    assert sum(0 in g.rows for g in graphs) >= 8  # most have an isolated vertex
    for g in graphs:
        back = fileio.parse_edge_list(fileio.format_edge_list(g))
        assert back == g, g
        isolated = [v for v, r in zip(g.ids, g.rows) if not r]
        assert back.ids[:len(isolated)] == tuple(isolated), g
    assert fileio.parse_edge_list(fileio.format_edge_list(graphs[0])).ids == ("iso", "a", "b", "c")


def test_edge_list_comments_and_isolated():
    text = "# a comment\n\na b  # trailing\nc\n"
    g = fileio.parse_edge_list(text)
    assert has_edge(g, "a", "b") and "c" in g.ids and g.n == 3


def test_edge_list_error_carries_line_number():
    with pytest.raises(fileio.FormatError) as exc:
        fileio.parse_edge_list("a b\nx y z\n")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


_TOKENS = st.sampled_from(["a", "b", "c", "d", "v10", "\u00e9", "p#q"])  # "p#q" reads as "p"
_GAPS = st.sampled_from([" ", "\t", "  ", " \t "])
_COMMENTS = st.sampled_from(["", " # note", "#", "\t# a b c"])


@st.composite
def _edge_list_line(draw):
    kind = draw(st.sampled_from(["edge", "loop", "single", "comment", "blank", "long"]))
    gap = draw(_GAPS)
    if kind == "edge":
        body = gap.join(draw(st.lists(_TOKENS, min_size=2, max_size=2)))
    elif kind == "loop":
        body = gap.join([draw(_TOKENS)] * 2)
    elif kind == "single":
        body = draw(_TOKENS)
    elif kind == "long":
        body = gap.join(draw(st.lists(_TOKENS, min_size=3, max_size=4)))
    else:
        body = ""
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + body + (draw(_COMMENTS) if kind != "blank" else draw(st.sampled_from(["", " "])))


_EDGE_LIST_TEXTS = st.builds(lambda lines, eol, last: eol.join(lines) + (eol if last else ""),
                             st.lists(_edge_list_line(), max_size=12),
                             st.sampled_from(["\n", "\r\n"]), st.booleans())


@given(text=_EDGE_LIST_TEXTS)
@example(text="a b\nc\nb\n")  # single-token lines after an edge line go first: c, b, a
@example(text="x\ny\n\ta\tb # c d\r\nb b\nx\n")  # already in order: x, y, a, b
@example(text="a b\n# c d e\nc d e # f\n")  # the third line is malformed
@settings(max_examples=400, deadline=None)
def test_edge_list_parser_matches_the_two_pass_reference(text):
    try:
        want = reference_parse_edge_list(text)
    except fileio.FormatError as exc:
        with pytest.raises(fileio.FormatError) as got:
            fileio.parse_edge_list(text)
        assert (got.value.line, str(got.value)) == (exc.line, str(exc))
        return
    g = fileio.parse_edge_list(text)
    assert (g.ids, g.rows) == (want.ids, want.rows)


def test_multigraph_edges():
    edges = fileio.parse_multigraph_edges("u v\nu v\nw w\n")
    assert edges == [("u", "v"), ("u", "v"), ("w", "w")]
    with pytest.raises(fileio.FormatError):
        fileio.parse_multigraph_edges("")


def test_arc_list_round_trip():
    g = fileio.parse_arc_list("u -> w\nu -> w\nw -> u\nw -> u\n")
    assert g.n == 2 and len(g.arcs) == 4
    assert fileio.parse_arc_list(fileio.format_arc_list(g)).arcs == g.arcs


def test_arc_list_errors():
    with pytest.raises(fileio.FormatError) as exc:
        fileio.parse_arc_list("u w\n")
    assert exc.value.line == 1
    with pytest.raises(fileio.FormatError):
        fileio.parse_arc_list("u -> w\n")  # degree violation


def test_arc_list_keeps_first_seen_order_at_scale():
    rng = random.Random(66)
    names = [f"w{k}" for k in rng.sample(range(10 ** 6), 5000)]
    heads = names * 2
    rng.shuffle(heads)
    pairs = list(zip(names * 2, heads))
    rng.shuffle(pairs)
    g = fileio.parse_arc_list("".join(f"{t} -> {h}\n" for t, h in pairs))
    flat = [z for pair in pairs for z in pair]
    first = {z: i for i, z in reversed(list(enumerate(flat)))}
    assert g.vertex_ids == tuple(sorted(first, key=first.get))
    assert [arc[1:] for arc in g.arcs] == pairs


def test_unknown_and_duplicate_vertices_keep_their_messages():
    with pytest.raises(ValueError, match="^arc 'x' references unknown vertex$"):
        EulerDigraph(["a"], [("x", "a", "b")])
    with pytest.raises(ValueError, match="^duplicate vertex ids$"):
        EulerDigraph(["a", "a"], [])
    with pytest.raises(ValueError, match="^duplicate vertex ids$"):
        PlaneMultigraph(["a", "a"], {})


def test_rotation_system_round_trip():
    # endpoint order inside an edge is side bookkeeping; the embedding is
    # what must survive the round trip
    g = build_sp(fileio.parse_sp_sequence("digon\nseries e2\nparallel e1\n"))
    back = fileio.parse_rotation_system(format_rotation_system(g))
    assert {e: frozenset(uv) for e, uv in back.edge_map.items()} == \
        {e: frozenset(uv) for e, uv in g.edge_map.items()}
    for v in g.vertex_ids:
        assert back.rotation[v] == g.rotation[v]
    assert len(back.faces()) == len(g.faces())
    assert euler_formula_ok(back)


def test_rotation_system_loop():
    g = fileio.parse_rotation_system("a: e e\n")
    assert g.edge_map == {"e": ("a", "a")}
    assert len(g.faces()) == 2


def test_rotation_system_errors():
    with pytest.raises(fileio.FormatError) as exc:
        fileio.parse_rotation_system("a e1 e2\n")
    assert exc.value.line == 1
    with pytest.raises(fileio.FormatError):
        fileio.parse_rotation_system("a: e1\n")  # e1 has one end


def test_rotation_system_line_errors_carry_the_line():
    with pytest.raises(fileio.FormatError, match="^line 2: empty vertex name$") as exc:
        fileio.parse_rotation_system("a: e e\n : f\n")
    assert exc.value.line == 2
    with pytest.raises(fileio.FormatError, match="^line 3: vertex 'a' listed twice$") as exc:
        fileio.parse_rotation_system("a: e\nb: e\na: f f\n")
    assert exc.value.line == 3
    with pytest.raises(fileio.FormatError, match="^edge 'e' has 3 end\\(s\\), expected 2$") as exc:
        fileio.parse_rotation_system("a: e e\nb: e\n")
    assert exc.value.line is None


def test_sp_sequence_round_trip():
    seq = fileio.parse_sp_sequence("digon\nseries e2\nparallel e3\n")
    assert fileio.parse_sp_sequence(seq.to_text()) == seq
    with pytest.raises(fileio.FormatError) as exc:
        fileio.parse_sp_sequence("digon\nseries\n")
    assert exc.value.line == 2
    with pytest.raises(fileio.FormatError):
        fileio.parse_sp_sequence("series e1\n")  # missing digon


def test_dh_sequence_round_trip():
    text = "root a\npendant b on a\nfalsetwin c of b\ntruetwin d of c\n"
    seq = parse_dh_sequence(text)
    assert parse_dh_sequence(seq.to_text()) == seq
    with pytest.raises(fileio.FormatError) as exc:
        parse_dh_sequence("root a\npendant b from a\n")
    assert exc.value.line == 2


def test_chord_word():
    d = fileio.parse_chord_word("1 2 1 2")
    assert chord_count(d) == 2
    with pytest.raises(fileio.FormatError):
        fileio.parse_chord_word("")
    with pytest.raises(fileio.FormatError):
        fileio.parse_chord_word("1 2 1")


def test_c6_file_parses_to_cycle():
    text = "".join(f"{i} {i % 6 + 1}\n" for i in range(1, 7))
    assert fileio.parse_edge_list(text) == cycle_graph(6)
