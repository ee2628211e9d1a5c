"""Exact closed-interval algebra over the rationals.

Every set the package keeps is closed: the sheaf's universe, windows,
bump supports and plateaus, and cells.  A support set is a finite union
of closed intervals [lo, hi] with Fraction endpoints and lo <= hi, where
lo == hi is a point, normalized to sorted pieces that neither overlap nor
touch.  The one operation whose exact result need not be closed, minus,
returns the closure of the difference.  All operations are exact; nothing
here ever touches a float.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Piece:
    """The closed interval [lo, hi]; a point when lo == hi."""

    lo: Fraction
    hi: Fraction

    def contains_point(self, p) -> bool:
        return self.lo <= p <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _normalize(pieces) -> tuple:
    """The pieces with lo <= hi, sorted, overlapping or touching ones merged."""
    out = []
    for p in sorted((p for p in pieces if p.lo <= p.hi), key=lambda p: p.lo):
        if out and p.lo <= out[-1].hi:
            if p.hi > out[-1].hi:
                out[-1] = Piece(out[-1].lo, p.hi)
        else:
            out.append(p)
    return tuple(out)


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
        """[lo, hi]; empty when lo > hi."""
        return SupportSet((Piece(Fraction(lo), Fraction(hi)),))

    def is_empty(self) -> bool:
        return not self.pieces

    def has_interior(self) -> bool:
        """Whether some piece has positive length."""
        return any(p.lo < p.hi for p in self.pieces)

    def union(self, other: "SupportSet") -> "SupportSet":
        return SupportSet(self.pieces + other.pieces)

    def intersect(self, other: "SupportSet") -> "SupportSet":
        return SupportSet(tuple(Piece(max(a.lo, b.lo), min(a.hi, b.hi))
                                for a in self.pieces for b in other.pieces))

    def minus(self, other: "SupportSet") -> "SupportSet":
        """The closure of the difference.  Each piece b of other leaves of
        every piece a the part below b, closed at b.lo, when a reaches
        below b.lo, and the part above b, closed at b.hi, when a reaches
        above b.hi."""
        pieces = self.pieces
        for b in other.pieces:
            cut = []
            for a in pieces:
                if a.lo < b.lo:
                    cut.append(Piece(a.lo, min(a.hi, b.lo)))
                if a.hi > b.hi:
                    cut.append(Piece(max(a.lo, b.hi), a.hi))
            pieces = cut
        return SupportSet(tuple(pieces))

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
    """The pieces of a cap b with positive length: the closure of the
    intersection of the interiors.

    This is the support rule for a product of two local factors: touching
    boundaries contribute nothing, interior overlap survives closed.
    """
    return SupportSet(tuple(p for p in a.intersect(b).pieces if p.lo < p.hi))
