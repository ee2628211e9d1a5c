"""Interval sheaves: restriction, projection and supports, on deep towers
and as properties of random tagged elements."""

import random
from fractions import Fraction as Q

from hypothesis import assume, given, settings, strategies as st

from vertexalg.intervals import SupportSet
from vertexalg.models.morphisms import random_tree
from vertexalg.sheaf import (
    _class_key,
    make_cover_three,
    make_cover_two,
    pi,
    restrict,
    semantic_support,
    sigma_star,
    support,
)
from vertexalg.suites import _tagged_pool
from vertexalg.terms import Element, Leaf

DEPTH = 1500


def test_restrict_deep_tower():
    # restriction rewindows leaves and keeps the unit, so it commutes with D
    ctx, cover = make_cover_two()
    f = Element.sym(ctx.alphabet, "f")
    window = cover[0].window
    want = restrict(f, window, ctx).D_pow(DEPTH)
    assert restrict(f.D_pow(DEPTH), window, ctx) == want


def test_restrict_drops_a_deep_tower_whose_leaf_dies():
    # h lives on [1, 3], so every monomial holding h dies on [0, 1/2]
    ctx, _ = make_cover_two()
    f, h = (Element.sym(ctx.alphabet, n) for n in ("f", "h"))
    window = SupportSet.closed(0, Q(1, 2))
    got = restrict(f.D_pow(DEPTH) + h.D_pow(DEPTH), window, ctx)
    assert got == restrict(f, window, ctx).D_pow(DEPTH)


def test_sigma_star_deep_tower():
    # dressing multiplies every slot, the unit slot included, by the bump
    ctx, cover = make_cover_two()
    al = ctx.alphabet
    sigma = cover[0].sigma
    f = Element.sym(al, "f")
    bump = sigma_star(sigma, Element.unit(al), ctx)
    want = sigma_star(sigma, f, ctx)
    for _ in range(DEPTH):
        want = want.o(-2, bump)
    assert sigma_star(sigma, f.D_pow(DEPTH), ctx) == want


def test_cells_follow_every_declaration():
    # each step adds a breakpoint, so a cells() memo left stale would differ
    ctx, _ = make_cover_three()
    assert ctx.cells() == ctx._cells_raw()
    steps = (
        lambda: ctx.declare_section("k", SupportSet.closed(Q(1, 5), 4)),
        lambda: ctx.declare_bump("s4", SupportSet.closed(Q(1, 7), 4)),
        lambda: ctx.restricted_symbol("f", SupportSet.closed(Q(1, 9), Q(7, 2))),
    )
    for step in steps:
        before = ctx.cells()
        step()
        assert ctx.cells() == ctx._cells_raw() != before


def test_semantic_support_and_pi_of_a_deep_tower():
    # f lives on the whole universe and the unit slots are 1 everywhere, so
    # the tower's one class is alive on every cell
    ctx, _ = make_cover_two()
    f = Element.sym(ctx.alphabet, "f")
    deep = f.D_pow(DEPTH)
    assert semantic_support(deep, ctx) == SupportSet.closed(0, 3)
    assert pi(deep, ctx) == deep


# -- random tagged elements on the three-patch cover -----------------------------

EXAMPLES = settings(max_examples=40, deadline=None)


@st.composite
def tagged(draw, max_terms=3, max_len=4):
    """A fresh cover_three context and a sum of random_tree monomials over
    the sheaf suite's tagged pool.  The pool holds no bare unit: restrict
    keeps the unit whole, so the unit alone lives on the whole universe."""
    ctx, cover = make_cover_three()
    pool = _tagged_pool(ctx, cover)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    x = Element.zero(ctx.alphabet)
    for _ in range(draw(st.integers(1, max_terms))):
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        x = x + c * random_tree(ctx.alphabet, pool, rng, rng.randint(1, max_len), -3, 3)
    return ctx, x


@st.composite
def windows(draw):
    """A closed interval inside the universe [0, 4] with endpoints in 1/6."""
    lo = draw(st.integers(0, 23))
    hi = draw(st.integers(lo + 1, 24))
    return SupportSet.closed(Q(lo, 6), Q(hi, 6))


def _class_key_ref(t, ctx):
    if isinstance(t, Leaf):
        return ("s", ctx.info(t.symbol).base)
    return ("n", t.index) + _class_key_ref(t.left, ctx) + _class_key_ref(t.right, ctx)


@EXAMPLES
@given(tagged(max_len=6))
def test_class_key_matches_recursive_reference(cx):
    ctx, x = cx
    for t in x.terms:
        assert _class_key(t, ctx) == _class_key_ref(t, ctx)


@EXAMPLES
@given(tagged())
def test_pi_is_idempotent(cx):
    ctx, x = cx
    p = pi(x, ctx)
    assert pi(p, ctx) == p


@EXAMPLES
@given(tagged(), windows(), windows())
def test_restricting_twice_is_restricting_to_the_meet(cx, u, v):
    ctx, x = cx
    meet = u.intersect(v)
    assume(not meet.interior().is_empty())
    assert restrict(restrict(x, u, ctx), v, ctx) == restrict(x, meet, ctx)


@EXAMPLES
@given(tagged(), windows())
def test_restriction_lives_inside_its_window(cx, u):
    ctx, x = cx
    assert semantic_support(restrict(x, u, ctx), ctx).subset_of(u)


@EXAMPLES
@given(tagged())
def test_semantic_support_inside_support(cx):
    ctx, x = cx
    assert semantic_support(x, ctx).subset_of(support(x, ctx))
