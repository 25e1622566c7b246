import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from builders import path_qn, poly_from_json_obj
from graphpoly import cli, dh, euler, fileio, interlace, planar, randgen
from graphpoly.cli import main
from graphpoly.poly import SparsePoly
from tutte_reference import tutte_by_subsets

C6 = "".join(f"{i} {i % 6 + 1}\n" for i in range(1, 7))


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "c6.edges": C6,
        "k2.edges": "a b\n",
        "k3.edges": "a b\nb c\nc a\n",
        "digon.sp": "digon\n",
        "c3.sp": "digon\nseries e2\n",
        "digon.arcs": "u -> w\nu -> w\nw -> u\nw -> u\n",
        "multi.edges": "u v\nu v\n",
        "bad.edges": "x y z\n",
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_qn_c6(files, capsys):
    code, out, _ = run(capsys, "qn", "--edges", files["c6.edges"])
    assert code == 0 and out == "2*x^3 + 10*x^2 + 4*x"


def test_qn_methods_agree(files, capsys):
    results = set()
    for method in ("recursion", "specialize"):
        code, out, _ = run(capsys, "qn", "--edges", files["c6.edges"], "--method", method)
        assert code == 0
        results.add(out)
    assert len(results) == 1


def test_qn_bdh_fast_on_non_bdh_is_usage_error(files, capsys):
    code, _, err = run(capsys, "qn", "--edges", files["k3.edges"], "--method", "bdh-fast")
    assert code == 2 and "true twin" in err


def test_broken_internal_invariant_exits_3(files, capsys, monkeypatch):
    def broken(g):
        raise AssertionError("x and y coefficients differ: 1 vs 2")

    monkeypatch.setattr(cli, "circuit_partition_polynomial", broken)
    code, out, err = run(capsys, "cpp", "--arcs", files["digon.arcs"])
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: internal invariant broken: x and y coefficients differ: 1 vs 2"]
    assert "Traceback" not in err


def test_gamma_k2(files, capsys):
    code, out, _ = run(capsys, "gamma", "--edges", files["k2.edges"])
    assert code == 0 and out == "2"


def test_q_both_methods(files, capsys):
    code, out, _ = run(capsys, "q", "--edges", files["k2.edges"])
    assert code == 0 and out == "x^2 - 2*x + 2*y"
    code, out2, _ = run(capsys, "q", "--edges", files["k2.edges"], "--method", "recursion")
    assert code == 0 and out2 == out


def test_tutte_multigraph(files, capsys):
    code, out, _ = run(capsys, "tutte", "--edges", files["multi.edges"])
    assert code == 0 and out == "x + y"


def test_tutte_diag_sp(files, capsys):
    code, out, _ = run(capsys, "tutte-diag-sp", "--sp", files["c3.sp"])
    assert code == 0 and out == "x^2 + 2*x"


def test_beta(files, capsys):
    code, out, _ = run(capsys, "beta", "--edges", files["multi.edges"])
    assert code == 0 and out == "1"


def test_tutte_json_on_loop_bridge_and_two_bridgeless_components(tmp_path, capsys):
    # bridgeless: triangle a-b-c with a loop at a, digon x-y; and a lone bridge p-q
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a"), ("p", "q"), ("x", "y"), ("y", "x")]
    path = tmp_path / "mixed.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    code, out, _ = run(capsys, "--format", "json", "tutte", "--edges", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "deletion-contraction"
    assert poly_from_json_obj(("x", "y"), doc["result"]) == tutte_by_subsets(edges)


def test_beta_k4(tmp_path, capsys):
    path = tmp_path / "k4.edges"
    path.write_text("a b\na c\na d\nb c\nb d\nc d\n")
    assert run(capsys, "beta", "--edges", str(path)) == (0, "2", "")


def test_cpp(files, capsys):
    code, out, _ = run(capsys, "cpp", "--arcs", files["digon.arcs"])
    assert code == 0 and out == "2*x^2 + 2*x"


def test_euler_circuit(files, capsys):
    code, out, _ = run(capsys, "euler-circuit", "--arcs", files["digon.arcs"])
    assert code == 0 and "a1" in out


def test_circle_graph_word(capsys):
    code, out, _ = run(capsys, "circle-graph", "--word", "1 2 1 3 2 3")
    assert code == 0 and set(out.splitlines()) == {"1 2", "2 3"}


def test_circle_graph_from_arcs(files, capsys):
    code, out, _ = run(capsys, "circle-graph", "--arcs", files["digon.arcs"])
    assert code == 0 and out == "u w"


def test_circle_graph_json_lists_vertices_and_edges(capsys):
    code, out, err = run(capsys, "--format", "json", "circle-graph", "--word", "1 2 1 3 2 3")
    doc = json.loads(out)
    assert code == 0 and err == "" and doc["method"] == "interleaving"
    assert doc["result"] == {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}


def test_medial_from_a_rotation_system(tmp_path, capsys):
    # the digon of digon.sp, given by its rotation system, has the same medial
    path = tmp_path / "digon.rot"
    path.write_text("s: e1 e2\nt: e2 e1\n")
    code, out, err = run(capsys, "medial", "--rotation", str(path))
    assert code == 0 and err == ""
    assert sorted(out.splitlines()) == ["e1 -> e2", "e1 -> e2", "e2 -> e1", "e2 -> e1"]


def test_medial(files, capsys):
    code, out, _ = run(capsys, "medial", "--sp", files["digon.sp"])
    assert code == 0
    assert sorted(out.splitlines()) == ["e1 -> e2", "e1 -> e2", "e2 -> e1", "e2 -> e1"]


def test_dh_recognize_accept(files, capsys):
    code, out, _ = run(capsys, "dh", "recognize", "--edges", files["k3.edges"])
    assert code == 0 and out.startswith("root")


def test_dh_recognize_reject_exits_1(files, capsys):
    code, out, _ = run(capsys, "dh", "recognize", "--edges", files["c6.edges"])
    assert code == 1 and "not distance-hereditary" in out


def test_dh_is_bdh(files, capsys):
    code, out, _ = run(capsys, "dh", "is-bdh", "--edges", files["k2.edges"])
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "dh", "is-bdh", "--edges", files["k3.edges"])
    assert code == 1 and out.startswith("no")


def test_dh_to_sp(files, capsys):
    code, out, _ = run(capsys, "dh", "to-sp", "--edges", files["k2.edges"])
    assert code == 0 and out.splitlines()[0] == "digon"


def test_dh_to_sp_single_vertex_exits_1(tmp_path, capsys):
    single = tmp_path / "single.edges"
    single.write_text("a\n")
    assert run(capsys, "dh", "is-bdh", "--edges", str(single))[0] == 0
    code, out, err = run(capsys, "dh", "to-sp", "--edges", str(single))
    assert code == 1 and err == ""
    assert out == "no series-parallel form: a single vertex has no edge to build"


def test_gamma_json_names_pivot_recursion(files, capsys):
    code, out, _ = run(capsys, "--format", "json", "gamma", "--edges", files["c6.edges"])
    assert code == 0 and json.loads(out)["method"] == "pivot-recursion"
    assert json.loads(out)["result"] == 4


def test_dh_empty_graph_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.edges"
    empty.write_text("# no vertices\n")
    for action in ("recognize", "is-bdh", "to-sp"):
        code, out, err = run(capsys, "dh", action, "--edges", str(empty))
        assert code == 2 and out == "" and err == "error: empty graph"


def test_verify_theorem_b_single(files, capsys):
    code, out, _ = run(capsys, "verify", "theorem-b", "--sp", files["digon.sp"])
    assert code == 0 and "2*x" in out


def test_verify_random_suites(files, capsys):
    assert run(capsys, "verify", "theorem-a", "--seed", "3", "--count", "5")[0] == 0
    assert run(capsys, "verify", "theorem-b", "--seed", "3", "--count", "5",
               "--max-size", "6")[0] == 0
    assert run(capsys, "verify", "cpoly", "--seed", "3", "--count", "5")[0] == 0
    assert run(capsys, "verify", "identities", "--seed", "3", "--count", "10")[0] == 0


def test_verify_requires_seed(capsys):
    code, _, err = run(capsys, "verify", "identities")
    assert code == 2 and "--seed" in err


def test_format_error_exits_2(files, capsys):
    code, _, err = run(capsys, "qn", "--edges", files["bad.edges"])
    assert code == 2 and "line 1" in err


def test_qn_recursion_solves_a_2500_vertex_path(tmp_path, capsys):
    # the hanging-path rule takes the whole path in one step, however long
    path = tmp_path / "p2500.edges"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 2500)))
    code, out, err = run(capsys, "qn", "--edges", str(path), "--method", "recursion")
    assert code == 0 and err == "" and out == str(path_qn(2500))


def test_recursion_too_deep_exits_2(tmp_path, capsys):
    # a cycle recurses about n deep through the pivot; a path would take one step
    path = tmp_path / "c1200.edges"
    path.write_text("".join(f"{i} {i % 1200 + 1}\n" for i in range(1, 1201)))
    code, out, err = run(capsys, "qn", "--edges", str(path), "--method", "recursion")
    assert code == 2 and out == ""
    assert err == "error: input too large for qn recursion (RecursionError)"


@pytest.mark.parametrize("argv, faster", [
    (("q", "--edges", "c6.edges", "--method", "state-sum"), "use --method recursion"),
    (("qn", "--edges", "c6.edges", "--method", "specialize"), "use --method recursion"),
    (("cpp", "--arcs", "digon.arcs"), "use qn --method recursion on the circle graph"),
])
def test_state_enumeration_over_budget_exits_2(files, capsys, monkeypatch, argv, faster):
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""
    monkeypatch.setattr(cli, "MAX_STATES", 3)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and faster in err
    assert "over the limit of 3" in err
    monkeypatch.setattr(cli, "MAX_STATES", 64)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv, states", [
    (("verify", "theorem-a", "--arcs", "digon.arcs"), 4),
    (("verify", "theorem-b", "--sp", "c3.sp"), 8),
])
def test_single_instance_theorem_check_over_budget_exits_2(files, capsys, monkeypatch,
                                                            argv, states):
    argv = [files.get(a, a) for a in argv]
    monkeypatch.setattr(cli, "MAX_STATES", states - 1)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"{argv[1]} --" in err and f"over the limit of {states - 1}" in err
    monkeypatch.setattr(cli, "MAX_STATES", states)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""


def test_theorem_b_script_of_25_edges_is_refused_at_the_default(tmp_path, capsys):
    path = tmp_path / "long.sp"
    path.write_text("digon\n" + "series e1\n" * 23)
    code, out, err = run(capsys, "verify", "theorem-b", "--sp", str(path))
    assert code == 2 and out == "" and "2^25 states" in err


def test_randomized_theorem_b_of_24_ops_is_refused_before_any_state_sum(capsys,
                                                                         monkeypatch):
    drawn = []
    monkeypatch.setattr(randgen, "random_sp_sequence", lambda *a: drawn.append(a))

    def forbidden(rows):
        raise AssertionError("a state sum was started")

    monkeypatch.setattr(interlace, "rank_nullity_histogram", forbidden)
    code, out, err = run(capsys, "verify", "theorem-b", "--seed", "20", "--count", "1",
                         "--max-size", "24")
    assert code == 2 and out == "" and drawn == []
    assert len(err.splitlines()) == 1 and "theorem-b --max-size" in err
    assert "2^26 states" in err and "use tutte-diag-sp" in err


@pytest.mark.parametrize("what, max_size, states", [
    ("theorem-a", 3, 8),
    ("theorem-b", 2, 16),
])
def test_randomized_theorem_check_over_budget_exits_2(capsys, monkeypatch, what,
                                                      max_size, states):
    argv = ("verify", what, "--seed", "4", "--count", "3", "--max-size", str(max_size))
    monkeypatch.setattr(cli, "MAX_STATES", states - 1)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"{what} --max-size" in err and f"over the limit of {states - 1}" in err
    monkeypatch.setattr(cli, "MAX_STATES", states)
    code, out, err = run(capsys, *argv)
    assert code == 0 and "holds on 3 random" in out and err == ""


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("what", ["theorem-a", "theorem-b", "cpoly", "identities"])
def test_randomized_verify_below_one_instance_exits_2(capsys, what, count):
    code, out, err = run(capsys, "verify", what, "--seed", "1", "--count", str(count))
    assert code == 2 and out == ""
    assert err == "error: verify --count must be at least 1"


@pytest.mark.parametrize("what, single", [
    ("theorem-a", "--sp"), ("theorem-b", "--arcs"), ("cpoly", "--arcs"), ("identities", "--sp"),
])
def test_input_file_of_another_action_still_needs_seed_and_count(files, capsys, what, single):
    path = files["digon.arcs" if single == "--arcs" else "c3.sp"]
    code, out, err = run(capsys, "verify", what, single, path)
    assert code == 2 and out == "" and "--seed" in err
    code, out, err = run(capsys, "verify", what, single, path, "--seed", "1", "--count", "0")
    assert code == 2 and out == "" and err == "error: verify --count must be at least 1"


@pytest.mark.parametrize("what, sizes, least, draw", [
    ("theorem-a", (1, 0, -2), "2 vertices", "random_2in2out"),
    ("theorem-b", (0, -1, -3), "1 op", "random_sp_sequence"),
])
def test_randomized_theorem_check_below_smallest_size_exits_2(capsys, monkeypatch, what,
                                                              sizes, least, draw):
    drawn = []
    real = getattr(randgen, draw)
    monkeypatch.setattr(randgen, draw, lambda *a: drawn.append(a[0]) or real(*a))
    for size in sizes:
        code, out, err = run(capsys, "verify", what, "--seed", "1", "--count", "3",
                             "--max-size", str(size))
        assert code == 2 and out == "" and drawn == []
        assert err == f"error: verify {what} --max-size must be at least {least}"
    smallest = least.split()[0]
    code, out, err = run(capsys, "verify", what, "--seed", "1", "--count", "3",
                         "--max-size", smallest)
    assert code == 0 and "holds on 3 random" in out and err == ""
    assert drawn == [int(smallest)] * 3


@pytest.mark.parametrize("what, least, draw", [
    ("cpoly", "1 chord", "random_chord_diagram"),
    ("identities", "1 vertex", "random_graph"),
])
def test_randomized_state_sum_check_draws_up_to_max_size(capsys, monkeypatch, what, least,
                                                         draw):
    drawn = []
    real = getattr(randgen, draw)
    monkeypatch.setattr(randgen, draw, lambda *a: drawn.append(a[0]) or real(*a))
    argv = ("verify", what, "--seed", "1", "--count", "3", "--max-size")
    for size in (0, -5):
        code, out, err = run(capsys, *argv, str(size))
        assert code == 2 and out == "" and drawn == []
        assert err == f"error: verify {what} --max-size must be at least {least}"
    code, out, err = run(capsys, *argv, "1")
    assert code == 0 and "on 3 random" in out and err == "" and drawn == [1] * 3
    drawn.clear()
    monkeypatch.setattr(cli, "MAX_STATES", 16)
    code, out, err = run(capsys, "verify", what, "--seed", "2", "--count", "40",
                         "--max-size", "4")
    assert code == 0 and err == "" and set(drawn) == {1, 2, 3, 4}
    drawn.clear()
    code, out, err = run(capsys, "verify", what, "--seed", "2", "--count", "40",
                         "--max-size", "5")
    assert code == 2 and out == "" and drawn == []
    assert len(err.splitlines()) == 1 and f"{what} --max-size" in err
    assert "2^5 states" in err and "use q --method recursion" in err


@pytest.mark.parametrize("what, name, wrong, failing", [
    ("identities", "qn_recursive", lambda real: lambda g: real(g).scale(2),
     "0: q_N route mismatch"),
    ("theorem-a", "verify_circuit_partition_identity",
     lambda real: lambda g: real(g)._replace(identity_ok=False), "instance 0: "),
    ("theorem-b", "verify_medial_tutte_identity",
     lambda real: lambda seq: real(seq)._replace(gamma=0), "instance 0: "),
    # a wrong q_N from q also differs from the recursion, so the route mismatch comes first
    ("identities", "qn_of_q", lambda real: lambda q: real(q).scale(-1),
     "0: q_N route mismatch; 0: non-positive q_N coefficient"),
    ("identities", "qn_of_q", lambda real: lambda q: real(q) * SparsePoly.var("x"),
     "0: q_N route mismatch; 0: lowest degree is not the component count"),
    ("identities", "coefficient_checks",
     lambda real: lambda g, q: real(g, q)._replace(ok=False), "0: a10=0 a01=1 FAIL"),
    ("cpoly", "verify_c_identity",
     lambda real: lambda d, points: real(d, points)._replace(values_q=(0,) * len(points)),
     "diagram 1 1: "),
    # the first diagram at seed 1 has no interlaced pair, so no reduction to check
    ("cpoly", "verify_c_reduction",
     lambda real: lambda d, a, b: real(d, a, b)._replace(ok=False),
     "diagram 2 1 2 1: "),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_randomized_verify_that_finds_a_failure_exits_1(capsys, monkeypatch, what, name, wrong,
                                                        failing, fmt):
    monkeypatch.setattr(cli, name, wrong(getattr(cli, name)))
    max_size = cli._SUITES[what][1] + 1
    code, out, err = run(capsys, "--format", fmt, "verify", what, "--seed", "1", "--count", "2",
                         "--max-size", str(max_size))
    assert code == 1 and err == "" and len(out.splitlines()) == 1
    result = json.loads(out)["result"] if fmt == "json" else out
    assert result.startswith(failing), result


def test_verify_identities_reports_a_pivot_that_changes_q_n(capsys, monkeypatch):
    # the first graph at seed 5 is the path v2 - v1 - v3, so one pivot is checked
    argv = ("verify", "identities", "--seed", "5", "--count", "1", "--max-size", "3")
    assert run(capsys, *argv) == (0, "identity suite passed on 1 random graphs", "")
    monkeypatch.setattr(cli, "qn_from_q", lambda g: interlace.qn_from_q(g).scale(2))
    assert run(capsys, *argv) == (1, "0: q_N not pivot-invariant", "")


def test_verify_identities_runs_one_state_sum_per_graph_and_pivot(capsys, monkeypatch):
    calls = []
    histogram = interlace.rank_nullity_histogram
    monkeypatch.setattr(interlace, "rank_nullity_histogram",
                        lambda rows: calls.append(rows) or histogram(rows))
    assert run(capsys, "verify", "identities", "--seed", "3", "--count", "30")[0] == 0
    rng = random.Random(3)
    graphs = [randgen.random_graph(rng.randrange(1, 9), rng) for _ in range(30)]
    assert len(calls) == len(graphs) + sum(1 for g in graphs if g.edges())


P25 = "".join(f"{i} {i + 1}\n" for i in range(1, 25))
DOUBLED_C25 = "".join(f"{i} -> {(i + 1) % 25}\n" * 2 for i in range(25))


@pytest.mark.parametrize("command, text", [
    (("q", "--edges", "{}", "--method", "state-sum"), P25),
    (("qn", "--edges", "{}", "--method", "specialize"), P25),
    (("cpp", "--arcs", "{}"), DOUBLED_C25),
])
def test_state_enumeration_of_25_vertices_is_refused_at_the_default(tmp_path, capsys,
                                                                   command, text):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run(capsys, *(a.format(path) for a in command))
    assert code == 2 and out == "" and "2^25 states" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "qn", "--edges", "/nonexistent/file.edges")
    assert code == 2 and "cannot read" in err


def test_unknown_flag_exits_2(files, capsys):
    assert run(capsys, "qn", "--edges", files["k2.edges"], "--bogus")[0] == 2


def test_json_output(files, capsys):
    code, out, _ = run(capsys, "--format", "json", "qn", "--edges", files["c6.edges"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"input", "method", "result", "elapsed_ms"}
    assert doc["method"] == "recursion"
    assert {"exps": {"x": 3}, "coeff": "2"} in doc["result"]


def test_json_and_text_agree(files, capsys):
    _, text_out, _ = run(capsys, "qn", "--edges", files["c6.edges"])
    _, json_out, _ = run(capsys, "--format", "json", "qn", "--edges", files["c6.edges"])
    poly = poly_from_json_obj(("x",), json.loads(json_out)["result"])
    assert str(poly) == text_out


BDH_TAILED_C4 = "a b\nb c\nc d\nd a\nd e\n"  # bipartite distance-hereditary
TRIANGLE_DOUBLED = "u v\nu v\nv w\nw u\n"
THREE_ARCS = "a -> b\nb -> c\nc -> a\na -> c\nc -> b\nb -> a\n"
C4_SP = "digon\nseries e2\nparallel e1\n"


LIBRARY_CALLS = [
    (("q", "--edges", "--method", "state-sum"), BDH_TAILED_C4,
     fileio.parse_edge_list, interlace.q_state_sum, "state-sum"),
    (("q", "--edges", "--method", "recursion"), BDH_TAILED_C4,
     fileio.parse_edge_list, interlace.q_recursive, "recursion"),
    (("qn", "--edges", "--method", "recursion"), BDH_TAILED_C4,
     fileio.parse_edge_list, interlace.qn_recursive, "recursion"),
    (("qn", "--edges", "--method", "specialize"), BDH_TAILED_C4,
     fileio.parse_edge_list, interlace.qn_from_q, "specialize"),
    (("qn", "--edges", "--method", "bdh-fast"), BDH_TAILED_C4,
     fileio.parse_edge_list, dh.qn_bdh_fast, "bdh-fast"),
    (("gamma", "--edges"), BDH_TAILED_C4,
     fileio.parse_edge_list, interlace.gamma_invariant, "pivot-recursion"),
    (("tutte", "--edges"), TRIANGLE_DOUBLED,
     fileio.parse_multigraph_edges, planar.tutte_polynomial, "deletion-contraction"),
    (("tutte-diag-sp", "--sp"), C4_SP,
     fileio.parse_sp_sequence, planar.sp_diagonal_tutte, "two-terminal-dp"),
    (("beta", "--edges"), TRIANGLE_DOUBLED,
     fileio.parse_multigraph_edges, planar.beta_invariant, "deletion-contraction"),
    (("cpp", "--arcs"), THREE_ARCS,
     fileio.parse_arc_list, euler.circuit_partition_polynomial, "state-enumeration"),
]


@pytest.mark.parametrize("argv, text, parse, function, method", LIBRARY_CALLS,
                         ids=[f"{argv[0]}-{method}" for argv, *_, method in LIBRARY_CALLS])
def test_library_call_command_prints_its_function_of_the_parsed_file(tmp_path, capsys, argv,
                                                                      text, parse, function,
                                                                      method):
    path = tmp_path / "input"
    path.write_text(text)
    argv = (*argv[:2], str(path), *argv[2:])
    result = function(parse(text))
    assert run(capsys, *argv) == (0, str(result), "")
    code, out, err = run(capsys, "--format", "json", *argv)
    doc = json.loads(out)
    assert code == 0 and err == ""
    assert doc["method"] == method and doc["input"] == str(path)
    assert doc["result"] == (result.to_json_obj() if isinstance(result, SparsePoly) else result)


# an input of each verify suite that checks a single file
SINGLE_INSTANCES = {"theorem-a": THREE_ARCS, "theorem-b": C4_SP}


@pytest.mark.parametrize("what", sorted(SINGLE_INSTANCES))
@pytest.mark.parametrize("holds", [True, False])
def test_single_instance_verify_prints_its_report_as_its_str(tmp_path, capsys, monkeypatch,
                                                             what, holds):
    assert set(SINGLE_INSTANCES) == {w for w, suite in cli._SUITES.items() if suite[-1]}
    option, parse, _, name = cli._SUITES[what][-1]
    real = getattr(cli, name)
    if not holds:  # the report of a failed identity, as a wrong route would give
        wrong = {"theorem-a": {"identity_ok": False}, "theorem-b": {"gamma": 0}}[what]
        monkeypatch.setattr(cli, name, lambda instance: real(instance)._replace(**wrong))
    path = tmp_path / "input"
    path.write_text(SINGLE_INSTANCES[what])
    report = getattr(cli, name)(parse(SINGLE_INSTANCES[what]))
    assert report.ok is holds
    argv = ("verify", what, f"--{option}", str(path))
    assert run(capsys, *argv) == (0 if holds else 1, str(report), "")
    code, out, err = run(capsys, "--format", "json", *argv)
    doc = json.loads(out)
    assert code == (0 if holds else 1) and err == ""
    assert doc["result"] == str(report)
    assert doc["method"] == what and doc["input"] == str(path)


@pytest.mark.parametrize("argv", [
    ("q", "--edges"), ("qn", "--edges"), ("gamma", "--edges"), ("dh", "recognize", "--edges"),
    ("dh", "is-bdh", "--edges"), ("dh", "to-sp", "--edges"), ("tutte", "--edges"),
    ("beta", "--edges"), ("tutte-diag-sp", "--sp"), ("medial", "--sp"), ("cpp", "--arcs"),
    ("euler-circuit", "--arcs"), ("circle-graph", "--arcs"), ("medial", "--rotation"),
    ("verify", "theorem-a", "--arcs"), ("verify", "theorem-b", "--sp"),
], ids=" ".join)
def test_missing_file_of_every_file_option_exits_2_in_one_line(tmp_path, capsys, argv):
    path = tmp_path / "absent"
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read {path}: ")



# every action that reads a file, the file option last
FILE_ACTIONS = [
    *[("q", "--method", m, "--edges") for m in ("state-sum", "recursion")],
    *[("qn", "--method", m, "--edges") for m in ("recursion", "specialize", "bdh-fast")],
    ("gamma", "--edges"), ("tutte", "--edges"), ("tutte-diag-sp", "--sp"), ("beta", "--edges"),
    ("cpp", "--arcs"), ("euler-circuit", "--arcs"), ("circle-graph", "--arcs"),
    ("medial", "--sp"), *[("dh", action, "--edges") for action in ("recognize", "is-bdh", "to-sp")],
    ("verify", "theorem-a", "--arcs"), ("verify", "theorem-b", "--sp"),
]
# lines of node names, arrows, series-parallel words, numbers and junk, or whole well-formed lines
_TOKENS = st.sampled_from(["a", "b", "c", "u", "1", "2", "->", "digon", "series", "parallel",
                           "e0", "e1", "e2", "e3", "e9", "0", "-1", "3.5", "#", "->->", "\t",
                           "\u00e9", ","])
_LINES = st.one_of(st.lists(_TOKENS, max_size=4).map(" ".join),
                   st.sampled_from(["u -> w", "w -> u", "a b", "digon", "series e1",
                                    "parallel e2"]))
# or a well-formed file of each format with one such line appended
_FILES = st.one_of(st.lists(_LINES, max_size=6).map("\n".join),
                   st.tuples(st.sampled_from([BDH_TAILED_C4, THREE_ARCS, C4_SP,
                                              "u -> w\nu -> w\nw -> u\nw -> u\n"]),
                             _LINES).map("".join))


@given(text=_FILES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_file_reading_action_exits_with_a_defined_code(tmp_path, capsys, text):
    # a result (0), a failed check (1), a usage or input error (2) or a broken
    # invariant (3), and never an exception out of main
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    for argv in FILE_ACTIONS:
        for fmt in ((), ("--format", "json")):
            assert main([*fmt, *argv, str(path)]) in (0, 1, 2, 3), (argv, text)
            capsys.readouterr()
