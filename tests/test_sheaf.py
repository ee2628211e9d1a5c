"""Interval sheaves: restriction and bump dressing on deep towers."""

from fractions import Fraction as Q

from vertexalg.intervals import SupportSet
from vertexalg.sheaf import make_cover_two, restrict, sigma_star
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
