"""Exact polynomial scratchpads: one and two variables, plus Fraction
Gaussian elimination and a tiny named-variable polynomial for relation
checking.  Dict-backed, no dense arrays, no floats.
"""

from fractions import Fraction

Q = Fraction


class Poly1:
    """Polynomial in one variable over Q, as {exponent: coefficient}."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {k: Q(v) for k, v in (c or {}).items() if v != 0}

    @staticmethod
    def const(v) -> "Poly1":
        return Poly1({0: Q(v)})

    @staticmethod
    def mono(k: int, v=1) -> "Poly1":
        return Poly1({k: Q(v)})

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Q(0)) + v
        return Poly1(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly1({k: -v for k, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, Poly1):
            out = {}
            for k1, v1 in self.c.items():
                for k2, v2 in other.c.items():
                    k = k1 + k2
                    out[k] = out.get(k, Q(0)) + v1 * v2
            return Poly1(out)
        return Poly1({k: v * Q(other) for k, v in self.c.items()})

    __rmul__ = __mul__

    def diff(self) -> "Poly1":
        return Poly1({k - 1: v * k for k, v in self.c.items() if k != 0})

    def degree(self) -> int:
        return max(self.c) if self.c else -1

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other):
        return isinstance(other, Poly1) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"{v}*x^{k}" for k, v in sorted(self.c.items()))


class Poly2:
    """Polynomial in two variables over Q, as {(i, j): coefficient}."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {k: Q(v) for k, v in (c or {}).items() if v != 0}

    @staticmethod
    def const(v) -> "Poly2":
        return Poly2({(0, 0): Q(v)})

    @staticmethod
    def mono(i: int, j: int, v=1) -> "Poly2":
        return Poly2({(i, j): Q(v)})

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Q(0)) + v
        return Poly2(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly2({k: -v for k, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, Poly2):
            out = {}
            for (i1, j1), v1 in self.c.items():
                for (i2, j2), v2 in other.c.items():
                    k = (i1 + i2, j1 + j2)
                    out[k] = out.get(k, Q(0)) + v1 * v2
            return Poly2(out)
        return Poly2({k: v * Q(other) for k, v in self.c.items()})

    __rmul__ = __mul__

    def diff(self, var: int) -> "Poly2":
        out = {}
        for (i, j), v in self.c.items():
            if var == 0 and i != 0:
                out[(i - 1, j)] = v * i
            elif var == 1 and j != 0:
                out[(i, j - 1)] = v * j
        return Poly2(out)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.c), default=-1)

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(
            f"{v}*x^{i}y^{j}" for (i, j), v in sorted(self.c.items())
        )


class PolyVars:
    """Polynomial over named commuting variables, for relation checking.

    Monomial keys are sorted tuples of (name, exponent).
    """

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {k: Q(v) for k, v in (c or {}).items() if v != 0}

    @staticmethod
    def const(v) -> "PolyVars":
        return PolyVars({(): Q(v)})

    @staticmethod
    def var(name: str) -> "PolyVars":
        return PolyVars({((name, 1),): Q(1)})

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Q(0)) + v
        return PolyVars(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyVars({k: -v for k, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, PolyVars):
            out = {}
            for k1, v1 in self.c.items():
                for k2, v2 in other.c.items():
                    k = _merge_mono(k1, k2)
                    out[k] = out.get(k, Q(0)) + v1 * v2
            return PolyVars(out)
        return PolyVars({k: v * Q(other) for k, v in self.c.items()})

    __rmul__ = __mul__

    def substitute(self, name: str, value: "PolyVars") -> "PolyVars":
        out = PolyVars()
        for k, v in self.c.items():
            piece = PolyVars({tuple(p for p in k if p[0] != name): v})
            power = sum(e for nm, e in k if nm == name)
            for _ in range(power):
                piece = piece * value
            out = out + piece
        return out

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other):
        return isinstance(other, PolyVars) and self.c == other.c

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"{v}*{dict(k)}" for k, v in self.c.items())


def _merge_mono(k1: tuple, k2: tuple) -> tuple:
    acc = {}
    for nm, e in k1 + k2:
        acc[nm] = acc.get(nm, 0) + e
    return tuple(sorted((nm, e) for nm, e in acc.items() if e != 0))


def column_rank(rows) -> int:
    """Column rank of a matrix of Fractions, by exact Gaussian elimination."""
    mat = [list(map(Q, row)) for row in rows]
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
