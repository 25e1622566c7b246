"""Tests of the benchmark's own code: generators, checks and layer attribution.

Each check must reject an answer with one coefficient (or one field) corrupted.
Run with ``python3 -m pytest perfbench``.
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402

from graphpoly import (qn_bdh_fast, qn_recursive, verify_circuit_partition_identity,  # noqa: E402
                       verify_medial_tutte_identity)
from graphpoly import fileio  # noqa: E402


def instance(family, size, seed=1):
    return gen.make_instance(family, size, random.Random(seed))


def qn_output(rec, text):
    g = fileio.parse_edge_list(text)
    fn = qn_bdh_fast if rec["call"] == "qn_bdh_fast" else qn_recursive
    return worker.poly_terms(fn(g))


def corrupted(terms, changes):
    out = {int(d): c for d, c in terms.items()}
    for d, delta in changes.items():
        out[d] = out.get(d, 0) + delta
    return {str(d): c for d, c in out.items() if c}


def test_generation_is_fixed_by_the_seed():
    for workload in gen.PASSES:
        assert gen.generate(workload, 3) == gen.generate(workload, 3)
        assert gen.generate(workload, 3) != gen.generate(workload, 4)
        sizes = [r["size"] for r, _ in gen.generate(workload, 3)]
        assert sizes == [size for _, size, _ in gen.PASSES[workload]]


def test_generated_graphs_have_the_stated_shape():
    for rec, text in gen.generate("qn_sparse", 2) + gen.generate("bdh_fast", 2):
        _, rows = checks.parse_edges(text)
        assert len(rows) == rec["n"]
        assert checks.component_count(rows) == 1
        if rec["family"] in ("path", "tree"):
            assert sum(bin(r).count("1") for r in rows) == 2 * (rec["n"] - 1)


@pytest.mark.parametrize("family,size,changes,message", [
    ("bdh", 30, {2: 1}, "q_N(2)"),
    ("bdh", 30, {3: 1, 2: -2}, "q_N(-1)"),
    ("bdh", 30, {0: 1}, "lowest degree"),
    ("bdh", 30, {1: 2, 2: -1}, "x^1 coefficient"),
    ("dh", 16, {1: 2, 2: -1}, "x^1 coefficient"),
    ("path", 20, {5: 2, 6: -1}, "pendant recurrence"),
    ("dense", 10, {30: -1}, "non-positive"),
])
def test_qn_checks_reject_a_corrupted_answer(family, size, changes, message):
    rec, text = instance(family, size)
    good = qn_output(rec, text)
    assert checks.check_instance(rec, text, good) == []
    bad = checks.check_instance(rec, text, corrupted(good, changes))
    assert any(message in b for b in bad), bad


def test_subset_expansion_alone_catches_a_change_invisible_at_2_and_minus_1():
    rec, text = instance("dense", 10)
    good = qn_output(rec, text)
    # adds x^2 (x - 2)(x + 1), which vanishes at x = 2 and x = -1
    bad = checks.check_instance(rec, text, corrupted(good, {4: 1, 3: -1, 2: -2}))
    assert bad == ["differs from the subset expansion"]


def test_sweep_checks_reject_corrupted_reports():
    instances = gen.generate("verify_sweep", 1)
    rec, text = next((r, t) for r, t in instances if r["family"] == "cpp")
    rep = verify_circuit_partition_identity(fileio.parse_arc_list(text))
    good = {"ok": rep.ok, "f": worker.poly_terms(rep.f)}
    assert checks.check_instance(rec, text, good) == []
    bad = checks.check_instance(rec, text, dict(good, f=corrupted(good["f"], {1: 1})))
    assert any("f(G; 1)" in b for b in bad)
    assert checks.check_instance(rec, text, dict(good, ok=False)) == ["report is not ok"]

    rec, text = next((r, t) for r, t in instances if r["family"] == "sp")
    rep = verify_medial_tutte_identity(fileio.parse_sp_sequence(text))
    good = {"ok": rep.ok, "diag": worker.poly_terms(rep.tutte_diagonal),
            "qn": worker.poly_terms(rep.qn_circle), "gamma": rep.gamma, "beta": rep.beta}
    assert checks.check_instance(rec, text, good) == []
    for field, value, message in (("beta", 2, "beta"), ("gamma", 4, "gamma"),
                                  ("diag", corrupted(good["diag"], {1: 1}), "spanning-tree"),
                                  ("qn", corrupted(good["qn"], {1: 1}), "q_N(H; 2)")):
        bad = checks.check_instance(rec, text, dict(good, **{field: value}))
        assert any(message in b for b in bad), (field, bad)


def test_independent_oracles_agree_with_each_other():
    rng = random.Random(0)
    for n in range(1, 8):
        rows = checks.parse_edges(gen.edge_text(gen.path_edges(n)) or "p1\n")[1]
        assert checks.subset_expansion(rows) == checks.path_qn(n)
    for _ in range(30):
        adj = gen.dense_graph(rng.randrange(2, 8), rng)
        _, rows = checks.parse_edges(gen.edge_text(gen.edges_of(adj)))
        qn = checks.subset_expansion(rows)
        assert checks.check_qn(qn, rows, "dense", None) == []
    assert checks.spanning_tree_count([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                                       ("a", "c"), ("b", "d")]) == 16
    assert checks.spanning_tree_count([("a", "b"), ("a", "b"), ("b", "c"), ("c", "a")]) == 5


def test_builtin_time_is_charged_to_the_calling_layer():
    pkg = "/pkg/graphpoly"
    f_planar = (f"{pkg}/planar.py", 10, "sp_diagonal_tutte")
    f_poly = (f"{pkg}/poly.py", 20, "interpolate_integer")
    f_frac = ("/lib/fractions.py", 30, "_add")
    f_builtin = ("~", 0, "<built-in method builtins.isinstance>")
    f_bench = ("/bench/worker.py", 1, "main")
    stats = {
        f_bench: (1, 1, 0.5, 4.0, {}),
        f_planar: (1, 1, 1.0, 3.5, {f_bench: (1, 1, 1.0, 3.5)}),
        f_poly: (1, 1, 0.5, 1.0, {f_planar: (1, 1, 0.5, 1.0)}),
        f_frac: (4, 4, 1.0, 1.5, {f_planar: (3, 3, 0.75, 1.0), f_poly: (1, 1, 0.25, 0.5)}),
        f_builtin: (8, 8, 0.5, 0.5, {f_frac: (8, 8, 0.5, 0.5), f_builtin: (2, 2, 0.1, 0.1)}),
    }
    out = layers.reduce_stats(stats, pkg)
    assert out["planar.self_ms"] == pytest.approx(1000 * (1.0 + 0.75 + 0.375))
    assert out["poly.self_ms"] == pytest.approx(1000 * (0.5 + 0.25 + 0.125))
    assert out["planar.calls"] == 1 and out["dh.calls"] == 0
    assert out["planar.sp_diagonal_tutte_ms"] == pytest.approx(3500)
    assert out["dh.qn_bdh_fast_ms"] == 0.0


def test_memo_clearing_empties_module_level_memos():
    class Mod:
        pass

    mod = Mod()
    mod._q_memo = {1: 2}
    mod.table = {1: 2}
    worker.clear_program_memos([mod])
    assert mod._q_memo == {} and mod.table == {1: 2}
