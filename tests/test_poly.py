import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import poly_from_json_obj
from graphpoly import (ChordDiagram, DHSequence, EulerDigraph, SPSequence, build_sp,
                       complete_graph)
from graphpoly.poly import SparsePoly, VariableMismatchError


def P(variables, terms):
    return SparsePoly(variables, terms)


def test_add_cancellation():
    x_plus_1 = P(("x",), {(1,): 1, (0,): 1})
    x_minus_1 = P(("x",), {(1,): 1, (0,): -1})
    assert x_plus_1 + x_minus_1 == P(("x",), {(1,): 2})


def test_add_identity_and_merge():
    p = P(("x",), {(2,): 1, (1,): 2})
    assert SparsePoly(("x",)) + p == p
    assert p + P(("x",), {(1,): 2}) == P(("x",), {(2,): 1, (1,): 4})


def test_mul_difference_of_squares():
    x_plus_1 = P(("x",), {(1,): 1, (0,): 1})
    x_minus_1 = P(("x",), {(1,): 1, (0,): -1})
    assert x_plus_1 * x_minus_1 == P(("x",), {(2,): 1, (0,): -1})
    assert P(("x",), {(1,): 2}) * P(("x",), {(1,): 2}) == P(("x",), {(2,): 4})
    one = SparsePoly.const(("x",), 1)
    assert x_plus_1 * one == x_plus_1


def test_variable_mismatch_errors():
    p = P(("x",), {(1,): 1})
    q = P(("x", "y"), {(1, 0): 1})
    with pytest.raises(VariableMismatchError):
        p + q
    with pytest.raises(VariableMismatchError):
        p * q


def test_eval_int():
    p = P(("x",), {(2,): 1, (1,): 2})
    assert p.eval_int({"x": 3}) == 15
    assert p.eval_int({"x": 0}) == 0
    q = P(("Y", "Z"), {(2, 1): 1, (1, 0): 2, (0, 0): 1})
    assert q.eval_int({"Y": 3, "Z": 4}) == 43
    with pytest.raises(ValueError):
        p.eval_int({})


def test_eval_at_zero_gives_constant_term():
    p = P(("x", "y"), {(0, 0): 7, (1, 2): 5})
    assert p.eval_int({"x": 0, "y": 0}) == 7


def test_coefficient():
    p = P(("x",), {(1,): 4, (2,): 10, (3,): 2})
    assert p.coefficient({"x": 1}) == 4
    assert p.coefficient((5,)) == 0
    q = P(("x", "y"), {(2, 0): 1, (1, 0): -2, (0, 1): 2})
    assert q.coefficient({"x": 1}) == -2
    r = P(("x", "y"), {(0, 0): 5, (1, 0): 2})
    assert r.coefficient({"x": 1.9}) == 0  # no term x^1.9; not truncated to x^1
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        r.coefficient({"z": 1})
    with pytest.raises(ValueError, match="need 2 exponents"):
        r.coefficient((1,))


def test_subs_int_and_rename():
    q = P(("x", "y"), {(2, 0): 1, (1, 0): -2, (0, 1): 2})
    qn = q.subs_int("x", 2).rename_var("y", "x")
    assert qn == P(("x",), {(1,): 2})


def test_shift():
    p = P(("x",), {(2,): 1})  # x^2
    assert p.shift(1) == P(("x",), {(2,): 1, (1,): 2, (0,): 1})
    assert p.shift(-1) == P(("x",), {(2,): 1, (1,): -2, (0,): 1})
    q = P(("x",), {(3,): 2, (1,): -1, (0,): 5})
    assert q.shift(0) == q and q.shift(3).shift(-3) == q
    assert all(q.shift(c).eval_int({"x": v}) == q.eval_int({"x": v + c})
               for c in (-2, 1, 4) for v in range(-3, 4))
    assert SparsePoly(("x",)).shift(5) == SparsePoly(("x",))
    with pytest.raises(ValueError):
        P(("x", "y"), {(1, 0): 1}).shift(1)


def test_str_canonical_order():
    p = P(("x",), {(1,): 4, (3,): 2, (2,): 10})
    assert str(p) == "2*x^3 + 10*x^2 + 4*x"
    q = P(("x", "y"), {(2, 0): 1, (1, 0): -2, (0, 1): 2})
    assert str(q) == "x^2 - 2*x + 2*y"
    assert str(SparsePoly(("x",))) == "0"
    assert str(SparsePoly.const(("x",), -3)) == "-3"


def test_json_round_trip():
    p = P(("x", "y"), {(2, 0): 1, (1, 0): -2, (0, 1): 2})
    blob = json.dumps(p.to_json_obj())
    back = poly_from_json_obj(("x", "y"), json.loads(blob))
    assert back == p
    assert p.to_json_obj()[0]["coeff"] == "1"


# -- property tests -------------------------------------------------------------

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
coeffs = st.integers(-50, 50)
polys = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda d: SparsePoly(("x", "y"), d))


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys, polys, st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_eval_is_ring_homomorphism(p, q, xv, yv):
    at = {"x": xv, "y": yv}
    assert (p * q).eval_int(at) == p.eval_int(at) * q.eval_int(at)
    assert (p + q).eval_int(at) == p.eval_int(at) + q.eval_int(at)


# -- Kronecker readout ------------------------------------------------------------


def _pack(digits, bits):
    return sum(c << k * bits for k, c in enumerate(digits))


def test_from_base_digits_round_trips_signed_digits():
    rng = random.Random(4040)
    for bits in range(1, 41):
        half = 1 << bits - 1
        low = 0 if bits == 1 else -half + 1
        for _ in range(10):
            digits = [rng.randint(low, half) for _ in range(rng.randint(0, 30))]
            # the top of the range is a digit; so is a negative top digit when bits > 1
            digits.insert(rng.randint(0, len(digits)), half)
            if bits > 1:
                digits.append(rng.randint(low, -1))
            value = _pack(digits, bits)
            assert SparsePoly.from_base_digits(("x",), value, bits) == P(
                ("x",), {(k,): c for k, c in enumerate(digits)}), (bits, digits)
            d = rng.randint(1, 6)
            assert SparsePoly.from_base_digits(("x", "y"), value, bits, d) == P(
                ("x", "y"), {(k % d, k // d): c for k, c in enumerate(digits)}), (bits, d, digits)


def test_from_base_digits_edge_cases():
    assert SparsePoly.from_base_digits(("x",), 0, 5) == SparsePoly(("x",))
    assert SparsePoly.from_base_digits(("x", "y"), 0, 5, 3) == SparsePoly(("x", "y"))
    # two variables with d = 1: every digit is a power of y (q of the empty graph is 1)
    assert SparsePoly.from_base_digits(("x", "y"), 1, 2, 1) == SparsePoly.const(("x", "y"), 1)
    assert SparsePoly.from_base_digits(("x", "y"), _pack([1, -1, 2], 3), 3, 1) == P(
        ("x", "y"), {(0, 0): 1, (0, 1): -1, (0, 2): 2})
    # one-bit digits are 0 or 1: the top digit 2^(bits-1) of (-2^(bits-1), 2^(bits-1)]
    assert SparsePoly.from_base_digits(("x",), 0b101, 1) == P(("x",), {(0,): 1, (2,): 1})
    for bits in (0, -3):
        with pytest.raises(ValueError):
            SparsePoly.from_base_digits(("x",), 5, bits)
    with pytest.raises(ValueError):
        SparsePoly.from_base_digits(("x",), -1, 1)


def test_constructor_takes_int_terms_as_they_are_and_rejects_others():
    terms = {(1, 2): 3, (0, 0): 0}
    p = P(("x", "y"), terms)
    assert p.terms == {(1, 2): 3} and terms == {(1, 2): 3, (0, 0): 0}
    for variables, terms in ((("x",), {(1, 2): 1}), (("x", "y"), {(1,): 1}),
                             (("x", "y"), {(1, -1): 1})):
        with pytest.raises(ValueError, match="non-negative exponents"):
            P(variables, terms)
    # bools and floats are not converted: (1.5,) would silently become (1,)
    for terms in ({(True,): 2}, {(1.5,): 3}, {(2.0,): -1}, {(-2.0,): 1}, {(1,): 2.0},
                  {(1,): True}, {1: 1}):
        with pytest.raises(TypeError, match="int exponents and int coefficients"):
            P(("x",), terms)


@pytest.mark.parametrize("build, slot", [
    (lambda: complete_graph(3), "rows"),
    (lambda: SparsePoly.var("x"), "terms"),
    (lambda: build_sp(SPSequence([("digon",)])), "rotation"),
    (lambda: EulerDigraph.from_pairs([("a", "a"), ("a", "a")]), "arcs"),
    (lambda: ChordDiagram("1 2 1 2".split()), "word"),
    (lambda: SPSequence([("digon",), ("series", "e1")]), "ops"),
    (lambda: DHSequence([("root", "a"), ("pendant", "b", "a")]), "ops"),
], ids=["Graph", "SparsePoly", "PlaneMultigraph", "EulerDigraph", "ChordDiagram",
        "SPSequence", "DHSequence"])
def test_value_classes_share_one_immutability_guard(build, slot):
    value = build()
    before = getattr(value, slot)
    for name in (slot, "extra"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)
    assert getattr(value, slot) is before
    assert not hasattr(value, "__dict__")
