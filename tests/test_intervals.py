"""Exact closed-interval arithmetic on rational support sets."""

from fractions import Fraction as Q

from hypothesis import given, strategies as st

from vertexalg.intervals import Piece, SupportSet, overlap_core

# endpoints on a coarse grid, so drawn pieces often share or touch ends
rationals = st.integers(-12, 12).map(lambda k: Q(k, 4))


def spans(lo, hi):
    return SupportSet.closed(Q(lo), Q(hi))


@st.composite
def raw_pieces(draw):
    """Up to four (lo, hi) pairs with lo <= hi, a point about one time in
    three."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        a = draw(rationals)
        b = a if draw(st.integers(0, 2)) == 0 else draw(rationals)
        out.append((min(a, b), max(a, b)))
    return out


def support_sets():
    return raw_pieces().map(lambda raw: SupportSet(tuple(Piece(*p) for p in raw)))


# -- the pointwise oracle -------------------------------------------------------
#
# A drawn set is read as its raw pairs, without the algebra: membership of a
# point is lo <= x <= hi for some pair.  Between consecutive endpoints of
# the drawn sets membership is constant, so the endpoints (the breakpoints)
# and one midpoint per cell between them decide every set operation.


def _member(raw, x) -> bool:
    return any(lo <= x <= hi for lo, hi in raw)


def _grid(*raws):
    """(breakpoints, cells): the sorted endpoints of the raw sets, with
    one point outside them at each end, and the midpoint of each gap
    between consecutive points, keyed by the point to its left."""
    pts = sorted({e for raw in raws for p in raw for e in p} | {Q(-10), Q(10)})
    return pts, {lo: (lo + hi) / 2 for lo, hi in zip(pts, pts[1:])}


def _neighbour_cells(pts, cells, i):
    """The midpoints of the cells left and right of breakpoint i."""
    return [cells[pts[j]] for j in (i - 1, i) if 0 <= j < len(pts) - 1]


def _expected(raw_a, raw_b):
    """{op: expected membership at each grid point}, computed pointwise."""
    pts, cells = _grid(raw_a, raw_b)

    def both(x):
        return _member(raw_a, x) and _member(raw_b, x)

    def only_a(x):
        return _member(raw_a, x) and not _member(raw_b, x)

    want = {"union": {}, "intersect": {}, "minus": {}, "overlap_core": {}}
    for x in list(pts) + list(cells.values()):
        want["union"][x] = _member(raw_a, x) or _member(raw_b, x)
        want["intersect"][x] = both(x)
    for mid in cells.values():
        # a cell lies wholly in or out of each set, so it is interior
        want["minus"][mid] = only_a(mid)
        want["overlap_core"][mid] = both(mid)
    for i, p in enumerate(pts):
        near = _neighbour_cells(pts, cells, i)
        # a breakpoint is in a closure when a cell next to it is in the set
        want["minus"][p] = only_a(p) or any(only_a(m) for m in near)
        want["overlap_core"][p] = any(both(m) for m in near)
    return want


def _is_normal(s: SupportSet) -> bool:
    return (all(p.lo <= p.hi for p in s.pieces)
            and all(p.hi < q.lo for p, q in zip(s.pieces, s.pieces[1:])))


@given(raw_pieces(), raw_pieces())
def test_operations_match_pointwise_membership(raw_a, raw_b):
    a = SupportSet(tuple(Piece(*p) for p in raw_a))
    b = SupportSet(tuple(Piece(*p) for p in raw_b))
    got = {"union": a.union(b), "intersect": a.intersect(b),
           "minus": a.minus(b), "overlap_core": overlap_core(a, b)}
    for op, want in _expected(raw_a, raw_b).items():
        assert _is_normal(got[op]), op
        assert {x: got[op].contains_point(x) for x in want} == want, op
    pts, cells = _grid(raw_a, raw_b)
    samples = list(pts) + list(cells.values())
    assert a.subset_of(b) == all(_member(raw_b, x) for x in samples
                                 if _member(raw_a, x))
    assert a.has_interior() == any(_member(raw_a, m) for m in cells.values())


class TestNormalization:
    def test_overlapping_pieces_merge(self):
        s = SupportSet((Piece(Q(0), Q(2)), Piece(Q(1), Q(3))))
        assert s == spans(0, 3)
        assert len(s.pieces) == 1

    def test_touching_closed_pieces_merge(self):
        s = SupportSet((Piece(Q(0), Q(1)), Piece(Q(1), Q(2))))
        assert len(s.pieces) == 1
        # a point on an end is absorbed
        assert spans(0, 1).union(spans(1, 1)) == spans(0, 1)

    def test_empty_pieces_dropped(self):
        # a reversed pair is no piece
        assert SupportSet((Piece(Q(1), Q(0)),)).is_empty()
        assert spans(2, 0).is_empty()

    def test_point(self):
        p = spans(Q(1, 2), Q(1, 2))
        assert p.contains_point(Q(1, 2))
        assert not p.contains_point(Q(1, 3))
        assert not p.is_empty()
        assert not p.has_interior()

    @given(support_sets())
    def test_normalization_idempotent(self, s):
        assert SupportSet(s.pieces) == s


class TestAlgebra:
    def test_union_intersect_basic(self):
        a, b = spans(0, 2), spans(1, 3)
        assert a.union(b) == spans(0, 3)
        assert a.intersect(b) == spans(1, 2)
        # closed sets that touch meet in a point
        assert spans(0, 1).intersect(spans(1, 2)) == spans(1, 1)

    def test_minus(self):
        # the closure of the difference keeps the cut endpoints
        assert spans(0, 3).minus(spans(1, 2)) == SupportSet(
            (Piece(Q(0), Q(1)), Piece(Q(2), Q(3))))
        # removing a point leaves no gap to close
        assert spans(0, 3).minus(spans(1, 1)) == spans(0, 3)
        # a point inside the subtrahend goes
        assert spans(1, 1).minus(spans(0, 3)).is_empty()

    def test_has_interior(self):
        assert spans(0, 1).has_interior()
        assert not SupportSet.empty().has_interior()
        assert not SupportSet((Piece(Q(0), Q(0)), Piece(Q(1), Q(1)))).has_interior()

    def test_subset(self):
        assert spans(1, 2).subset_of(spans(0, 3))
        assert not spans(0, 3).subset_of(spans(1, 2))
        assert SupportSet.empty().subset_of(spans(0, 1))
        assert spans(1, 1).subset_of(spans(0, 1))
        assert not spans(0, 1).subset_of(spans(1, 1))

    @given(support_sets(), support_sets())
    def test_union_commutes(self, a, b):
        assert a.union(b) == b.union(a)

    @given(support_sets(), support_sets())
    def test_intersect_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(support_sets(), support_sets())
    def test_minus_disjoint_from_subtrahend(self, a, b):
        # the closure of a - b meets b only in the cut points
        assert not a.minus(b).intersect(b).has_interior()


class TestOverlapCore:
    def test_positive_overlap(self):
        # closure((0,2) cap (1,3)) = [1,2]
        assert overlap_core(spans(0, 2), spans(1, 3)) == spans(1, 2)

    def test_touching_intervals_have_empty_core(self):
        # interiors (0,1) and (1,2) miss each other
        assert overlap_core(spans(0, 1), spans(1, 2)).is_empty()
        # a point has no interior
        assert overlap_core(spans(1, 1), spans(0, 2)).is_empty()

    def test_disjoint(self):
        assert overlap_core(spans(0, 1), spans(2, 3)).is_empty()


class TestBreakpoints:
    def test_collects_endpoints(self):
        s = SupportSet((Piece(Q(0), Q(1)), Piece(Q(2), Q(3))))
        assert set(s.breakpoints()) == {Q(0), Q(1), Q(2), Q(3)}

    def test_str_roundtrip_is_readable(self):
        assert str(spans(0, 2)) == "[0, 2]"
        assert str(SupportSet.empty()) == "{}"
        assert str(spans(0, 1).union(spans(Q(3, 2), Q(3, 2)))) == "[0, 1] u [3/2, 3/2]"
