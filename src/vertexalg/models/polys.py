"""Exact polynomial scratchpads: one and two variables, plus Fraction
Gaussian elimination, a tiny named-variable polynomial for relation
checking, and parse_poly, which reads Poly1 and Poly2 from text.
Dict-backed, no dense arrays, no floats.

Coefficients.  The public constructors, const, mono and scalar * store
each coefficient through terms.as_coeff, the package's one coefficient
rule, and drop zeros.  column_rank reads its entries through the same
rule before it eliminates over Fractions.

Trusted construction.  cls._trusted(c) wraps the dict c without copying or
checking it; every result of +, -, negation, *, diff and substitute is
built that way.  _add_into accumulates (key, coefficient) pairs into such a
dict and deletes a key as soon as it cancels, so the dict stays trusted.
"""

import re
from fractions import Fraction
from operator import add

from ..parsing import DIGITS
from ..terms import as_coeff

Q = Fraction


def _add_into(acc: dict, items) -> None:
    """acc[k] += v for each (k, v) in items; cancelled keys are deleted."""
    get = acc.get
    for k, v in items:
        old = get(k)
        if old is None:
            acc[k] = v
        else:
            v += old
            if v:
                acc[k] = v
            else:
                del acc[k]


class _Poly:
    """Construction, comparison and the ring operations.  Each subclass
    defines + and * itself, as calls of _plus and _times with its own rule
    for multiplying monomial keys."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        clean = {}
        for k, v in (c or {}).items():
            v = as_coeff(v)
            if v:
                clean[k] = v
        self.c = clean

    @classmethod
    def _trusted(cls, c: dict):
        """Wrap c as it is: every value must be a nonzero int or Fraction."""
        out = object.__new__(cls)
        out.c = c
        return out

    def _plus(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if not other.c:
            return self
        if not self.c:
            return other
        out = dict(self.c)
        _add_into(out, other.c.items())
        return self._trusted(out)

    def _times(self, other, merge):
        """self * other, where merge(k1, k2) is the key of the product of
        two monomials; a number other scales self."""
        if other.__class__ is not self.__class__:
            return self._scaled(other)
        if not self.c:
            return self
        if not other.c:
            return other
        out = {}
        _add_into(out, (
            (merge(k1, k2), v1 * v2)
            for k1, v1 in self.c.items()
            for k2, v2 in other.c.items()
        ))
        return self._trusted(out)

    def _scaled(self, v):
        v = as_coeff(v)
        if v == 1 or not self.c:
            return self
        if not v:
            return self._trusted({})
        return self._trusted({k: c * v for k, c in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self.c:
            return self
        return self._trusted({k: -v for k, v in self.c.items()})

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))


class Poly1(_Poly):
    """Polynomial in one variable over Q, as {exponent: coefficient}."""

    __slots__ = ()

    @staticmethod
    def const(v) -> "Poly1":
        return Poly1({0: v})

    @staticmethod
    def mono(k: int, v=1) -> "Poly1":
        return Poly1({k: v})

    def __add__(self, other):
        return self._plus(other)

    def __mul__(self, other):
        return self._times(other, add)

    __rmul__ = __mul__

    def diff(self, var: int = 0) -> "Poly1":
        """d/dx; var is 0, the only variable, so Poly1 and Poly2 both
        answer diff(i)."""
        return Poly1._trusted({k - 1: v * k for k, v in self.c.items() if k != 0})

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"{v}*x^{k}" for k, v in sorted(self.c.items()))


class Poly2(_Poly):
    """Polynomial in two variables over Q, as {(i, j): coefficient}."""

    __slots__ = ()

    @staticmethod
    def const(v) -> "Poly2":
        return Poly2({(0, 0): v})

    @staticmethod
    def mono(i: int, j: int, v=1) -> "Poly2":
        return Poly2({(i, j): v})

    def __add__(self, other):
        return self._plus(other)

    def __mul__(self, other):
        return self._times(other, _add_pairs)

    __rmul__ = __mul__

    def diff(self, var: int) -> "Poly2":
        out = {}
        for (i, j), v in self.c.items():
            if var == 0 and i != 0:
                out[(i - 1, j)] = v * i
            elif var == 1 and j != 0:
                out[(i, j - 1)] = v * j
        return Poly2._trusted(out)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.c), default=-1)

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(
            f"{v}*x^{i}y^{j}" for (i, j), v in sorted(self.c.items())
        )


class PolyVars(_Poly):
    """Polynomial over named commuting variables, for relation checking.

    Monomial keys are sorted tuples of (name, exponent).
    """

    __slots__ = ()

    @staticmethod
    def const(v) -> "PolyVars":
        return PolyVars({(): v})

    @staticmethod
    def var(name: str) -> "PolyVars":
        return PolyVars._trusted({((name, 1),): 1})

    def __add__(self, other):
        return self._plus(other)

    def __mul__(self, other):
        return self._times(other, _merge_mono)

    __rmul__ = __mul__

    def substitute(self, name: str, value: "PolyVars") -> "PolyVars":
        out = {}
        for k, v in self.c.items():
            piece = PolyVars._trusted({tuple(p for p in k if p[0] != name): v})
            power = sum(e for nm, e in k if nm == name)
            for _ in range(power):
                piece = piece * value
            _add_into(out, piece.c.items())
        return PolyVars._trusted(out)

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"{v}*{dict(k)}" for k, v in self.c.items())


def parse_poly(text: str, variables: tuple):
    """Parse 'b1*b2 + 3/2*b1^2 - 1' into Poly1 or Poly2.

    variables is ('b',) or ('b1', 'b2'); the grammar is sums of products of
    powers with a leading rational coefficient.  Digits follow the term
    grammar's rule, parsing.DIGITS: a power is a run of ASCII digits, and
    a coefficient is one such run, or two joined by "/" with the second
    nonzero.
    """
    total = Poly1() if len(variables) == 1 else Poly2()
    text = text.replace(" ", "")
    if text in ("", "0"):
        return total
    signed = text if text[0] in "+-" else "+" + text
    # a sign right after ^ belongs to the power, so b1^-1 reads as a bad power
    for sign, piece in re.findall(r"([+-])((?:\^[+-]|[^+-])*)", signed):
        coeff = Q(-1 if sign == "-" else 1)
        exps = [0] * len(variables)
        for factor in piece.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0] == "/" or DIGITS.match(factor):
                num, slash, den = factor.partition("/")
                if not (DIGITS.fullmatch(num)
                        and (not slash or DIGITS.fullmatch(den) and int(den))):
                    raise ValueError(f"bad coefficient {factor!r} in {text!r}")
                coeff *= Q(int(num), int(den or 1))
                continue
            var, caret, power = factor.partition("^")
            if caret and not DIGITS.fullmatch(power):
                raise ValueError(f"bad power {power!r} in {text!r}")
            power = int(power) if caret else 1
            if var not in variables:
                raise ValueError(f"unknown variable {var!r} in {text!r}")
            exps[variables.index(var)] += power
        total = total + type(total).mono(*exps, coeff)
    return total


def _add_pairs(k1: tuple, k2: tuple) -> tuple:
    return (k1[0] + k2[0], k1[1] + k2[1])


def _merge_mono(k1: tuple, k2: tuple) -> tuple:
    if not k1:
        return k2
    if not k2:
        return k1
    acc = {}
    for nm, e in k1 + k2:
        acc[nm] = acc.get(nm, 0) + e
    return tuple(sorted((nm, e) for nm, e in acc.items() if e != 0))


def column_rank(rows) -> int:
    """Column rank of a matrix of exact numbers, by Fraction Gaussian
    elimination; a float entry raises TypeError."""
    mat = [[Q(as_coeff(v)) for v in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == len(mat):
            break
    return rank
