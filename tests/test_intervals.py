"""Exact interval arithmetic on rational support sets."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from vertexalg.intervals import Piece, SupportSet, overlap_core, piece

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)


def spans(lo, hi):
    return SupportSet.closed(Q(lo), Q(hi))


@st.composite
def support_sets(draw):
    n = draw(st.integers(0, 3))
    pieces = []
    for _ in range(n):
        a = draw(rationals)
        b = draw(rationals)
        lo, hi = (a, b) if a <= b else (b, a)
        pieces.append(
            Piece(lo, hi, draw(st.booleans()), draw(st.booleans()))
        )
    return SupportSet(tuple(pieces))


class TestNormalization:
    def test_overlapping_pieces_merge(self):
        s = SupportSet((piece(0, 2), piece(1, 3)))
        assert s == spans(0, 3)
        assert len(s.pieces) == 1

    def test_touching_closed_pieces_merge(self):
        s = SupportSet((piece(0, 1), piece(1, 2)))
        assert len(s.pieces) == 1

    def test_touching_open_pieces_stay_separate(self):
        s = SupportSet.open(0, 1).union(SupportSet.open(1, 2))
        assert len(s.pieces) == 2
        assert not s.contains_point(Q(1))

    def test_empty_pieces_dropped(self):
        assert SupportSet((Piece(Q(1), Q(1), False, False),)).is_empty()
        assert SupportSet.open(2, 2).is_empty()

    def test_point(self):
        p = SupportSet.point(Q(1, 2))
        assert p.contains_point(Q(1, 2))
        assert p.interior().is_empty()

    @given(support_sets())
    def test_normalization_idempotent(self, s):
        assert SupportSet(s.pieces) == s


class TestAlgebra:
    def test_union_intersect_basic(self):
        a, b = spans(0, 2), spans(1, 3)
        assert a.union(b) == spans(0, 3)
        assert a.intersect(b) == spans(1, 2)

    def test_minus(self):
        got = spans(0, 3).minus(spans(1, 2))
        assert got.contains_point(Q(1, 2))
        assert not got.contains_point(Q(3, 2))
        # removal is exact: the cut endpoints leave open edges
        assert not got.contains_point(Q(1))
        assert got.contains_point(Q(3))

    def test_interior_closure(self):
        s = spans(0, 1)
        assert s.interior() == SupportSet.open(0, 1)
        assert s.interior().closure() == s

    def test_subset(self):
        assert spans(1, 2).subset_of(spans(0, 3))
        assert not spans(0, 3).subset_of(spans(1, 2))
        assert SupportSet.empty().subset_of(spans(0, 1))

    @given(support_sets(), support_sets())
    def test_union_commutes(self, a, b):
        assert a.union(b) == b.union(a)

    @given(support_sets(), support_sets())
    def test_intersect_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(support_sets(), support_sets())
    def test_minus_disjoint_from_subtrahend(self, a, b):
        assert a.minus(b).intersect(b).is_empty()

    @given(support_sets())
    def test_interior_inside_closure(self, s):
        assert s.interior().subset_of(s.closure())


class TestOverlapCore:
    def test_positive_overlap(self):
        # closure((0,2) cap (1,3)) = [1,2]
        assert overlap_core(spans(0, 2), spans(1, 3)) == spans(1, 2)

    def test_touching_intervals_have_empty_core(self):
        # interiors (0,1) and (1,2) miss each other
        assert overlap_core(spans(0, 1), spans(1, 2)).is_empty()

    def test_disjoint(self):
        assert overlap_core(spans(0, 1), spans(2, 3)).is_empty()


class TestBreakpoints:
    def test_collects_endpoints(self):
        s = SupportSet((piece(0, 1), piece(2, 3)))
        assert set(s.breakpoints()) == {Q(0), Q(1), Q(2), Q(3)}

    def test_str_roundtrip_is_readable(self):
        assert str(spans(0, 2)) == "[0, 2]"
        assert str(SupportSet.empty()) == "{}"
        assert str(SupportSet.open(0, 1)) == "(0, 1)"
