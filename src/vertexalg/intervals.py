"""Exact interval algebra over the rationals.

Support sets are finite unions of intervals with Fraction endpoints and
open/closed endpoint flags, normalized to sorted disjoint pieces.  All
operations are exact; nothing here ever touches a float.
"""

from dataclasses import dataclass
from fractions import Fraction


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Piece:
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return not (self.lo_closed and self.hi_closed)
        return False

    def contains_point(self, p) -> bool:
        p = _frac(p)
        if self.lo < p < self.hi:
            return True
        if p == self.lo and self.lo_closed:
            return True
        if p == self.hi and self.hi_closed:
            return True
        return False

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


def piece(lo, hi, lo_closed=True, hi_closed=True) -> Piece:
    return Piece(_frac(lo), _frac(hi), lo_closed, hi_closed)


def _can_merge(a: Piece, b: Piece) -> bool:
    # b starts at or after a (sorted); merge on overlap or closed touch
    if b.lo < a.hi:
        return True
    if b.lo == a.hi and (a.hi_closed or b.lo_closed):
        return True
    return False


def _merge(a: Piece, b: Piece) -> Piece:
    # b starts at or after a (sorted)
    if a.lo < b.lo:
        lo, lc = a.lo, a.lo_closed
    else:
        lo, lc = a.lo, a.lo_closed or b.lo_closed
    if a.hi > b.hi:
        hi, hc = a.hi, a.hi_closed
    elif b.hi > a.hi:
        hi, hc = b.hi, b.hi_closed
    else:
        hi, hc = a.hi, a.hi_closed or b.hi_closed
    return Piece(lo, hi, lc, hc)


def _normalize(pieces) -> tuple:
    kept = [p for p in pieces if not p.is_empty()]
    kept.sort(key=lambda p: (p.lo, not p.lo_closed, p.hi, p.hi_closed))
    out = []
    for p in kept:
        if out and _can_merge(out[-1], p):
            out[-1] = _merge(out[-1], p)
        else:
            out.append(p)
    return tuple(out)


def _intersect_pieces(a: Piece, b: Piece) -> Piece:
    if a.lo > b.lo:
        lo, lc = a.lo, a.lo_closed
    elif b.lo > a.lo:
        lo, lc = b.lo, b.lo_closed
    else:
        lo, lc = a.lo, a.lo_closed and b.lo_closed
    if a.hi < b.hi:
        hi, hc = a.hi, a.hi_closed
    elif b.hi < a.hi:
        hi, hc = b.hi, b.hi_closed
    else:
        hi, hc = a.hi, a.hi_closed and b.hi_closed
    return Piece(lo, hi, lc, hc)


def _complement_pieces(p: Piece, universe: Piece) -> list:
    # universe minus p, as pieces
    out = []
    left = Piece(universe.lo, p.lo, universe.lo_closed, not p.lo_closed)
    right = Piece(p.hi, universe.hi, not p.hi_closed, universe.hi_closed)
    for q in (left, right):
        if not q.is_empty():
            out.append(_intersect_pieces(q, universe))
    return out


@dataclass(frozen=True)
class SupportSet:
    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "pieces", _normalize(self.pieces))

    @staticmethod
    def empty() -> "SupportSet":
        return SupportSet(())

    @staticmethod
    def closed(lo, hi) -> "SupportSet":
        return SupportSet((piece(lo, hi, True, True),))

    @staticmethod
    def open(lo, hi) -> "SupportSet":
        return SupportSet((piece(lo, hi, False, False),))

    @staticmethod
    def point(p) -> "SupportSet":
        return SupportSet((piece(p, p, True, True),))

    def is_empty(self) -> bool:
        return not self.pieces

    def union(self, other: "SupportSet") -> "SupportSet":
        return SupportSet(self.pieces + other.pieces)

    def intersect(self, other: "SupportSet") -> "SupportSet":
        out = []
        for a in self.pieces:
            for b in other.pieces:
                c = _intersect_pieces(a, b)
                if not c.is_empty():
                    out.append(c)
        return SupportSet(tuple(out))

    def minus(self, other: "SupportSet") -> "SupportSet":
        result = [self]
        for b in other.pieces:
            nxt = []
            for s in result:
                for a in s.pieces:
                    nxt.extend(_complement_pieces(b, a))
            result = [SupportSet(tuple(nxt))]
        return result[0]

    def interior(self) -> "SupportSet":
        opened = tuple(Piece(p.lo, p.hi, False, False) for p in self.pieces)
        return SupportSet(opened)

    def closure(self) -> "SupportSet":
        closed = tuple(Piece(p.lo, p.hi, True, True) for p in self.pieces)
        return SupportSet(closed)

    def subset_of(self, other: "SupportSet") -> bool:
        return self.minus(other).is_empty()

    def contains_point(self, p) -> bool:
        return any(q.contains_point(p) for q in self.pieces)

    def breakpoints(self) -> list:
        vals = set()
        for p in self.pieces:
            vals.add(p.lo)
            vals.add(p.hi)
        return sorted(vals)

    def __str__(self) -> str:
        if not self.pieces:
            return "{}"
        return " u ".join(str(p) for p in self.pieces)


def overlap_core(a: SupportSet, b: SupportSet) -> SupportSet:
    """Closure of the intersection of interiors.

    This is the support rule for a product of two local factors: touching
    boundaries contribute nothing, interior overlap survives closed.
    """
    return a.interior().intersect(b.interior()).closure()
