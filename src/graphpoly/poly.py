"""Exact sparse multivariate polynomials over the integers.

A polynomial carries a fixed, ordered tuple of variable names (at most a
handful in practice) and a dict mapping exponent tuples to non-zero int
coefficients.  All arithmetic is exact; coefficients are arbitrary
precision.  Values are immutable once constructed, so they can be shared
freely between threads.  Every value class of the package derives from
``Immutable``, defined here.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from typing import Iterable, Mapping


class VariableMismatchError(ValueError):
    """Raised when combining polynomials over different variable tuples."""


class Immutable:
    """Base of the package's value classes: slots set once by ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class SparsePoly(Immutable):
    """Immutable sparse polynomial with named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, int] | None = None):
        object.__setattr__(self, "vars", tuple(variables))
        terms = terms or {}
        if not (set(map(type, terms)) <= {tuple} and set(map(type, chain.from_iterable(terms)))
                | set(map(type, terms.values())) <= {int}):
            raise TypeError("need tuples of int exponents and int coefficients")
        if set(map(len, terms)) - {len(self.vars)} or min(chain(*terms), default=0) < 0:
            raise ValueError(f"need non-negative exponents, one per variable of {self.vars}")
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "SparsePoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Iterable[str], value: int) -> "SparsePoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): int(value)})

    @classmethod
    def var(cls, name: str, variables: Iterable[str] | None = None) -> "SparsePoly":
        variables = (name,) if variables is None else tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): 1})

    @classmethod
    def from_base_digits(cls, variables: tuple[str, ...], value: int, bits: int,
                         d: int = 1) -> "SparsePoly":
        """Undo a Kronecker substitution: digit k of value in base 2^bits, taken in
        (-2^(bits-1), 2^(bits-1)], is the coefficient of x^k, or with two variables of
        x^(k mod d) y^(k div d).  An offset with every digit 2^(bits-1) - 1 makes
        the digits non-negative, so all are cut from one byte string in linear time.
        """
        if bits < 1 or d < 1 or value < 0 and bits == 1:
            raise ValueError("need bits >= 1, d >= 1 and a non-negative value at bits = 1")
        count = abs(value).bit_length() // bits + 2
        half, mask = (1 << bits - 1) - 1, (1 << bits) - 1
        offset, width = half, bits
        while width < bits * count:
            offset |= offset << width
            width *= 2
        raw = (value + offset).to_bytes(width // 8 + 1, "little")
        digits = [(int.from_bytes(raw[k >> 3:(k + bits + 7) >> 3], "little") >> (k & 7) & mask)
                  - half for k in range(0, bits * count, bits)]
        return cls(variables, {(k,) if len(variables) == 1 else (k % d, k // d): c
                               for k, c in enumerate(digits) if c})

    # -- ring operations -------------------------------------------------

    def _check_vars(self, other: "SparsePoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SparsePoly(self.vars, out)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + -other

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_vars(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SparsePoly(self.vars, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, k: int) -> "SparsePoly":
        return SparsePoly(self.vars, {e: c * k for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative power")
        out = SparsePoly.const(self.vars, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- queries ----------------------------------------------------------

    def eval_int(self, assignment: Mapping[str, int]) -> int:
        """Evaluate at integer values for every variable."""
        for v in self.vars:
            if v not in assignment:
                raise ValueError(f"missing value for variable {v!r}")
        total = 0
        for exps, coeff in self.terms.items():
            t = coeff
            for v, e in zip(self.vars, exps):
                if e:
                    t *= assignment[v] ** e
            total += t
        return total

    def coefficient(self, exps) -> int:
        """Coefficient of a given exponent vector (mapping or tuple); 0 if absent."""
        if isinstance(exps, Mapping):
            for v in exps:
                if v not in self.vars:
                    raise ValueError(f"unknown variable {v!r}, not one of {self.vars}")
            key = tuple(exps.get(v, 0) for v in self.vars)
        else:
            key = tuple(exps)
            if len(key) != len(self.vars):
                raise ValueError(f"need {len(self.vars)} exponents, one per variable of "
                                 f"{self.vars}, not {len(key)}")
        return self.terms.get(key, 0)

    def degree(self, name: str) -> int:
        if not self.terms:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def min_total_degree(self) -> int:
        if not self.terms:
            return 0
        return min(sum(e) for e in self.terms)

    # -- substitution -----------------------------------------------------

    def subs_int(self, name: str, value: int) -> "SparsePoly":
        """Substitute an integer for one variable, dropping it from the tuple."""
        i = self.vars.index(name)
        new_vars = self.vars[:i] + self.vars[i + 1:]
        out: dict = {}
        for exps, coeff in self.terms.items():
            e = exps[:i] + exps[i + 1:]
            c = coeff * value ** exps[i]
            if c:
                out[e] = out.get(e, 0) + c
        return SparsePoly(new_vars, out)

    def shift(self, c: int) -> "SparsePoly":
        """p(x + c) for a polynomial p in one variable x."""
        if len(self.vars) != 1:
            raise ValueError(f"shift needs one variable, not {self.vars}")
        out: dict = {}
        for (k,), a in self.terms.items():
            for i in range(k + 1):
                out[(i,)] = out.get((i,), 0) + a * comb(k, i) * c ** (k - i)
        return SparsePoly(self.vars, out)

    def rename_var(self, old: str, new: str) -> "SparsePoly":
        i = self.vars.index(old)
        new_vars = self.vars[:i] + (new,) + self.vars[i + 1:]
        return SparsePoly(new_vars, dict(self.terms))

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparsePoly)
                and self.vars == other.vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- serialization ------------------------------------------------------

    def _sorted_terms(self):
        # graded lexicographic, largest first: deterministic canonical order
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mag = abs(coeff)
            if factors:
                body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SparsePoly({self.vars!r}, {self!s})"

    def to_json_obj(self) -> list:
        """Canonical JSON form: list of {"exps": {var: int}, "coeff": str}."""
        out = []
        for exps, coeff in self._sorted_terms():
            out.append({"exps": {v: e for v, e in zip(self.vars, exps) if e},
                        "coeff": str(coeff)})
        return out


def _packed_product(parts: list, solve, widths, shift: tuple[int, int]) -> SparsePoly:
    """x^shift[0] y^shift[1] times the product of the parts' polynomials in x and y.

    ``solve(part, w, d)`` is a part's polynomial at x = 2^w, y = 2^(w*d), and
    ``widths(parts)`` the (w, d) that hold their product.  The largest part is
    packed at the widths of all parts, each other one at its own, read back and
    multiplied in by one shift and add per term: an int product would pay for
    every empty digit of a small part laid out at the wide widths.
    """
    parts = sorted(parts, key=len, reverse=True)
    w, d = widths(parts)
    packed = solve(parts[0], w, d) if parts else 1
    for part in parts[1:]:
        pw, pd = widths([part])
        terms = SparsePoly.from_base_digits(("x", "y"), solve(part, pw, pd), pw, pd).terms
        packed = sum(c * packed << w * (i + d * j) for (i, j), c in terms.items())
    terms = SparsePoly.from_base_digits(("x", "y"), packed, w, d).terms
    return SparsePoly(("x", "y"), {(i + shift[0], j + shift[1]): c for (i, j), c in terms.items()})
