"""Interval sheaves: restriction and bump dressing on deep towers."""

from fractions import Fraction as Q

from vertexalg.intervals import SupportSet
from vertexalg.sheaf import make_cover_three, make_cover_two, restrict, sigma_star
from vertexalg.terms import Element

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
