"""Interval sheaves: restriction, projection and supports, on deep towers
and as properties of random tagged elements."""

import random
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from vertexalg.intervals import SupportSet
from vertexalg.models.morphisms import random_tree
from vertexalg.models.polys import PolyVars
from vertexalg.parsing import parse, to_text
from vertexalg.rewrite import ReductionReport
from vertexalg.sheaf import (
    BumpDeclaration,
    SectionDeclaration,
    SheafContext,
    SupportError,
    _CellTable,
    _class_key,
    check_cover,
    glue,
    make_cover_three,
    make_cover_two,
    pi,
    restrict,
    semantic_support,
    sheaf_axiom_check,
    sigma_star,
    support,
)
from vertexalg.suites import _tagged_pool
from vertexalg.terms import Element, Symbol

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


def _value_at(ctx, name, mid):
    """name's value at mid, read off the declarations."""
    info = ctx.info(name)
    if not info.window.contains_point(mid):
        return PolyVars.const(0)
    out = PolyVars.const(1)
    for b in info.bumps:
        bd = ctx._bumps[b]
        if bd.plateau.contains_point(mid):
            continue
        if not bd.support.contains_point(mid):
            return PolyVars.const(0)
        out = out * PolyVars.var(b)
    return out


def _plan_at(ctx, mid):
    """One (eliminated bump, replacement) per partition family with a free
    member at mid: the last free member is 1 - ones - the other free ones."""
    plan = []
    for fam in ctx._partitions:
        ones = [m for m in fam if ctx._bumps[m].plateau.contains_point(mid)]
        free = [m for m in fam
                if m not in ones and ctx._bumps[m].support.contains_point(mid)]
        if free:
            repl = PolyVars.const(1 - len(ones))
            for m in free[:-1]:
                repl = repl - PolyVars.var(m)
            plan.append((free[-1], repl))
    return tuple(plan)


def _assert_table_is_fresh(ctx):
    table = ctx._cell_table()
    assert table.points == ctx._breakpoints()
    assert table.cells == ctx.cells() == ctx._cut_cells(table.points)
    mids = [(lo + hi) / 2 for lo, hi in table.cells]
    assert table.plans == tuple(_plan_at(ctx, m) for m in mids)
    for name in ctx._tags:
        assert table.values(name) == tuple(_value_at(ctx, name, m) for m in mids), name


def test_restricting_the_bare_unit_cuts_it_to_the_window():
    # the unit alone is the unit section on U, so it lives inside U; a
    # unit leaf inside a product stays whole for the unit rules
    ctx, _ = make_cover_three()
    one, f = Element.unit(ctx.alphabet), Element.sym(ctx.alphabet, "f")
    u = SupportSet.closed(0, Q(1, 6))
    cut = restrict(-2 * one, u, ctx)
    assert cut == -2 * Element.sym(ctx.alphabet, "1|0..1/6")
    assert semantic_support(cut, ctx) == support(cut, ctx) == u
    assert restrict(cut, SupportSet.closed(0, 4), ctx) == cut
    assert restrict(-2 * one, ctx.universe, ctx) == -2 * one
    (t,) = restrict(f.o(-1, one), u, ctx).terms
    assert t.right is ctx.alphabet.unit


@pytest.mark.parametrize("section", ["1", "f + 1"])
def test_the_unit_as_every_section_passes_the_axiom_check(section):
    # restrict cuts the section's bare unit to the window, while the unit
    # that unit_left lifts out of 1 o_{-1} 1 is whole; the unit-strip hop
    # must still see the two as equal on the window
    ctx, cover = make_cover_three()
    one, f = Element.unit(ctx.alphabet), Element.sym(ctx.alphabet, "f")
    x = one if section == "1" else f + one
    checks = sheaf_axiom_check(cover, [x] * len(cover), ctx)
    assert [c["id"] for c in checks if c["status"] != "pass"] == []
    assert {f"unit-strip-{p.name}" for p in cover} <= {c["id"] for c in checks}


def test_restricts_to_fails_with_its_unit_strip_hop(monkeypatch):
    # a unit strip that never reaches a normal form fails each patch's
    # unit-strip hop, and restricts-to that patch with it
    ctx, cover = make_cover_two()
    f = Element.sym(ctx.alphabet, "f")
    monkeypatch.setattr("vertexalg.sheaf.reduce_element",
                        lambda x, rules: ReductionReport(x, 0, "budget-exhausted"))
    checks = sheaf_axiom_check(cover, [restrict(f, p.window, ctx) for p in cover], ctx)
    assert {c["id"] for c in checks if c["status"] == "fail"} == {
        f"{hop}-{p.name}" for p in cover for hop in ("unit-strip", "restricts-to")}


def test_restricted_names_parse_back():
    ctx, _ = make_cover_three()
    x = parse("o{-1}(f, g)", ctx.alphabet)
    got = restrict(x, SupportSet.closed(0, Q(5, 3)), ctx)
    assert to_text(got) == "o{-1}('f|0..5/3', 'g|0..5/3')"
    assert parse(to_text(got), ctx.alphabet) == got


def test_dressed_names_parse_back():
    ctx, _ = make_cover_three()
    got = sigma_star("s1", Element.sym(ctx.alphabet, "f"), ctx)
    assert to_text(got) == "'s1*f'"
    assert parse(to_text(got), ctx.alphabet) == got


def _three_with(sections=(), bumps=(), partitions=(), flat=()):
    """cover_three's context built with more declarations; each bump
    named in flat has a plateau over its whole support."""
    ctx, _ = make_cover_three()
    declared = [SectionDeclaration(n, ctx.window_of(n)) for n in ("f", "g", "h")]
    kept = [replace(b, plateau=b.support) if b.name in flat else b
            for b in ctx._bumps.values()]
    return SheafContext(ctx.universe, declared + list(sections), kept + list(bumps),
                        ctx._partitions + tuple(partitions))


def test_cells_follow_every_declaration():
    # each context adds a breakpoint or a partition family to the one
    # before, so a cell table that missed a declaration would differ from
    # the midpoint evaluation
    k = SectionDeclaration("k", SupportSet.closed(Q(1, 5), 4))
    s4 = BumpDeclaration("s4", SupportSet.closed(Q(1, 7), 4), SupportSet.empty())
    contexts = (
        _three_with(),
        _three_with((k,)),
        _three_with((k,), (s4,)),
        _three_with((k,), (s4,), (("s1", "s4"),)),
    )
    for before, ctx in zip(contexts, contexts[1:]):
        assert (ctx.cells(), ctx._cell_table().plans) != (
            before.cells(), before._cell_table().plans)
        _assert_table_is_fresh(ctx)
    # a minted window that adds a breakpoint drops the table
    ctx = contexts[-1]
    before = ctx.cells()
    ctx.restricted_symbol("f", SupportSet.closed(Q(1, 9), Q(7, 2)))
    assert ctx.cells() != before
    _assert_table_is_fresh(ctx)


def test_a_window_on_the_breakpoints_keeps_the_cell_table():
    # each patch window is a sigma's support, so f restricted to it mints a
    # symbol whose window adds no breakpoint
    ctx, cover = make_cover_three()
    table = ctx._cell_table()
    for p in cover:
        tags = len(ctx._tags)
        ctx.restricted_symbol("f", p.window)
        assert len(ctx._tags) == tags + 1
        assert ctx._cell_table() is table
        _assert_table_is_fresh(ctx)


def test_a_window_with_a_new_breakpoint_drops_the_cell_table():
    ctx, _ = make_cover_three()
    table = ctx._cell_table()
    ctx.restricted_symbol("f", SupportSet.closed(Q(1, 9), Q(5, 3)))
    assert ctx._table is None
    assert Q(1, 9) in ctx._cell_table().points - table.points
    _assert_table_is_fresh(ctx)


@pytest.mark.parametrize("members,error", (
    (("r1", "f"), "partition member f is not a declared bump"),
    (("r1", "r2"), "partition members do not cover the universe"),
), ids=("section-as-member", "gap-after-5/2"))
def test_declare_partition_refusals(members, error):
    # f is a section, not a bump; r1 and r2 are the cores of U1 and U2,
    # which leave (5/2, 4] uncovered
    with pytest.raises(SupportError) as info:
        _three_with(partitions=(members,))
    assert str(info.value) == error


_ZERO_THREE = SupportSet.closed(0, 3)


def _sections(*sections):
    return lambda: SheafContext(_ZERO_THREE, [SectionDeclaration(*s) for s in sections])


def _bumps(*bumps, partitions=()):
    return lambda: SheafContext(
        _ZERO_THREE, (), [BumpDeclaration(*b) for b in bumps], partitions)


def _restrict_past_the_universe():
    ctx, _ = make_cover_three()
    restrict(Element.sym(ctx.alphabet, "f"), SupportSet.closed(0, 5), ctx)


def _dress_by_a_section():
    ctx, _ = make_cover_three()
    sigma_star("f", Element.sym(ctx.alphabet, "f"), ctx)


def _span(lo, hi):
    return SupportSet.closed(lo, hi)


_NONE = SupportSet.empty()


@pytest.mark.parametrize("refused,error", (
    (lambda: SheafContext(SupportSet.empty()), "universe {} has no interior"),
    (lambda: SheafContext(SupportSet.closed(1, 1)), "universe [1, 1] has no interior"),
    (_sections(("p", _span(1, 1))), "support [1, 1] of p has no interior"),
    (_bumps(("s", _span(1, 1), _NONE)), "support [1, 1] of bump s has no interior"),
    (lambda: SheafContext(_ZERO_THREE, [SectionDeclaration("s1", _span(0, 2))],
                          [BumpDeclaration("s1", _span(0, 2), _span(0, 1))]),
     "s1 is declared twice"),
    (_bumps(("s1", _span(0, 2), _span(0, 1)), ("s1", _span(0, 2), _span(0, 1))),
     "s1 is declared twice"),
    (_sections(("f", _span(0, 3)), ("f", _span(0, 2))), "f is declared twice"),
    (_sections(("1", _span(0, 3))), "1 is declared twice"),
    (_sections(("g|1..2", _span(1, 2), 1)), "name g|1..2 holds '|', which minted names use"),
    (_bumps(("s1*f", _span(0, 2), _NONE)),
     "bump name s1*f holds '*', which minted names use"),
    (_sections(("f", _span(0, 4))), "support of f leaves the universe"),
    (_bumps(("s", _span(-1, 3), _NONE)), "support of bump s leaves the universe"),
    (_bumps(("s", _span(0, 1), _span(0, 2))), "plateau of bump s leaves its support"),
    (lambda: SheafContext(_ZERO_THREE).info("nobody"), "leaf nobody carries no support tag"),
    # r3 sits on its plateau everywhere, and r1 on its own over [0, 1]:
    # two members equal to 1 there cannot sum to 1
    (_bumps(("r1", _span(0, 1), _span(0, 1)), ("r3", _span(0, 3), _span(0, 3)),
            partitions=(("r1", "r3"),)),
     "partition ('r1', 'r3') cannot sum to 1 near 1/2"),
    (_restrict_past_the_universe, "restriction target leaves the universe"),
    (_dress_by_a_section, "f is not a declared bump"),
), ids=("empty-universe", "point-universe", "point-section", "point-bump",
        "bump-named-like-a-section", "bump-named-twice", "section-named-twice", "section-named-like-the-unit",
        "section-named-like-a-restriction", "bump-named-like-a-dressing",
        "section-support", "bump-support",
        "plateau", "untagged-leaf", "partition-two-ones", "restrict-outside",
        "sigma-not-a-bump"))
def test_sheaf_refusals_name_the_problem(refused, error):
    with pytest.raises(SupportError) as info:
        refused()
    assert str(info.value) == error


def test_a_plateau_may_be_empty_or_a_point():
    ctx = _bumps(("s", _span(0, 2), _NONE), ("t", _span(0, 2), _span(1, 1)))()
    assert ctx._bumps["t"].plateau == SupportSet.closed(1, 1)


def test_restricted_symbol_comes_from_the_mint_memo(monkeypatch):
    ctx, _ = make_cover_three()
    minted = []
    mint = ctx._mint_uncached
    monkeypatch.setattr(ctx, "_mint_uncached", lambda *key: minted.append(key) or mint(*key))
    u = SupportSet.closed(Q(1, 3), Q(5, 2))
    first = ctx.restricted_symbol("g", u)
    assert first is not None and ctx.restricted_symbol("g", u) is first
    # g lives on [0, 8/3], so it meets [8/3, 4] in one point only
    degenerate = SupportSet.closed(Q(8, 3), 4)
    assert ctx.restricted_symbol("g", degenerate) is None
    assert ctx.restricted_symbol("g", degenerate) is None
    assert len(minted) == 2


def test_a_mint_memo_hit_intersects_no_window(monkeypatch):
    # the memo is keyed on the caller's arguments, so restriction and
    # bump dressing find a minted symbol without cutting any window
    ctx, cover = make_cover_three()
    x = Element.sym(ctx.alphabet, "g").o(-1, Element.sym(ctx.alphabet, "f"))
    u = SupportSet.closed(Q(1, 3), Q(5, 2))
    first = (ctx.restricted_symbol("g", u), sigma_star(cover[1].sigma, x, ctx))
    calls = []
    meet = SupportSet.intersect
    monkeypatch.setattr(SupportSet, "intersect",
                        lambda a, b: calls.append(1) or meet(a, b))
    again = (ctx.restricted_symbol("g", u), sigma_star(cover[1].sigma, x, ctx))
    assert again == first
    assert calls == []


def test_mint_memo_follows_declare_bump():
    # s2 varies on [4/3, 3/2) unless it is declared with a plateau over
    # its whole support, and then it is 1 on the window and drops out
    window = SupportSet.closed(Q(4, 3), 2)
    ctx, _ = make_cover_three()
    assert ctx._mint("f", ("s2",), window).name == "s2*f|4/3..2"
    flat = _three_with(flat=("s2",))
    assert flat._mint("f", ("s2",), window).name == "f|4/3..2"


def test_semantic_support_and_pi_of_a_deep_tower():
    # f lives on the whole universe and the unit slots are 1 everywhere, so
    # the tower's one class is alive on every cell
    ctx, _ = make_cover_two()
    f = Element.sym(ctx.alphabet, "f")
    deep = f.D_pow(DEPTH)
    assert semantic_support(deep, ctx) == SupportSet.closed(0, 3)
    assert pi(deep, ctx) == deep


# -- cover geometry and gluing on the three-patch cover -------------------------

# U1 has window [0, 5/3] and core [0, 3/2]; s1 lives on U1's window with
# plateau its core, r1 on its core; U2 and U3 carry s2/r2 and s3/r3
_BROKEN_COVERS = (
    (lambda c: (replace(c[0], core=SupportSet.closed(0, 2)),) + c[1:],
     ["U1: core not inside window", "U1: sigma is not 1 on the core"]),
    (lambda c: (replace(c[0], sigma="nope"),) + c[1:], ["U1: undeclared bump"]),
    (lambda c: (replace(c[0], window=SupportSet.closed(0, Q(3, 2))),) + c[1:],
     ["U1: sigma spills out of the window"]),
    (lambda c: (replace(c[0], sigma="r1"),) + c[1:], ["U1: sigma is not 1 on the core"]),
    (lambda c: (replace(c[0], rho="s1"),) + c[1:],
     ["U1: rho spills out of the core",
      "the rhos are not a declared partition of unity"]),
    (lambda c: c[:2],
     ["cores do not cover the universe",
      "the rhos are not a declared partition of unity"]),
)


@pytest.mark.parametrize("broken,problems", _BROKEN_COVERS, ids=(
    "core-outside-window", "undeclared-bump", "sigma-spills", "sigma-not-one",
    "rho-spills", "cores-short"))
def test_check_cover_names_each_problem(broken, problems):
    ctx, cover = make_cover_three()
    assert check_cover(cover, ctx) == []
    bad = broken(cover)
    assert check_cover(bad, ctx) == problems
    with pytest.raises(SupportError, match="; ".join(problems)):
        glue(bad, [Element.sym(ctx.alphabet, "f")] * len(bad), ctx)


def test_glue_refuses_disagreeing_sections():
    # f and h differ on U2's overlap with U3, [7/3, 8/3]
    ctx, cover = make_cover_three()
    f, h = (Element.sym(ctx.alphabet, n) for n in ("f", "h"))
    with pytest.raises(SupportError,
                       match=r"overlap disagreement between U2 and U3 on \[7/3, 8/3\]"):
        glue(cover, [f, f, h], ctx)
    with pytest.raises(SupportError, match="one section per patch"):
        glue(cover, [f, f], ctx)
    assert not glue(cover, [f, f, f], ctx).is_zero()


# -- random tagged elements on the three-patch cover -----------------------------

EXAMPLES = settings(max_examples=40, deadline=None)


@st.composite
def recipes(draw, max_terms=3):
    """A seed and one coefficient per monomial for _tagged_on."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, max_terms))
    return seed, [draw(st.sampled_from((-2, -1, 1, 2))) for _ in range(n)]


def _tagged_on(ctx, cover, recipe, max_len=4):
    """A sum of random_tree monomials over the sheaf suite's tagged pool.
    The pool holds no unit, so no product holds a unit leaf: restrict
    keeps those whole, and a product of units alone would live on the
    whole universe."""
    seed, coeffs = recipe
    pool = _tagged_pool(ctx, cover)
    rng = random.Random(seed)
    x = Element.zero(ctx.alphabet)
    for c in coeffs:
        x = x + c * random_tree(ctx.alphabet, pool, rng, rng.randint(1, max_len), -3, 3)
    return x


@st.composite
def tagged(draw, max_terms=3, max_len=4, unit=False):
    """A fresh cover_three context and a tagged element on it; with unit,
    plus a drawn multiple (maybe 0) of the bare unit, which restrict cuts
    to its window like any section."""
    ctx, cover = make_cover_three()
    x = _tagged_on(ctx, cover, draw(recipes(max_terms)), max_len)
    if unit:
        x = x + draw(st.sampled_from((0, -2, -1, 1, 2))) * Element.unit(ctx.alphabet)
    return ctx, x


@st.composite
def windows(draw):
    """A closed interval inside the universe [0, 4] with endpoints in 1/6."""
    lo = draw(st.integers(0, 23))
    hi = draw(st.integers(lo + 1, 24))
    return SupportSet.closed(Q(lo, 6), Q(hi, 6))


def _class_key_ref(t, ctx):
    if isinstance(t, Symbol):
        return ("s", ctx.info(t).base)
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
@given(tagged(unit=True), windows(), windows())
def test_restricting_twice_is_restricting_to_the_meet(cx, u, v):
    ctx, x = cx
    meet = u.intersect(v)
    assume(meet.has_interior())
    assert restrict(restrict(x, u, ctx), v, ctx) == restrict(x, meet, ctx)


@EXAMPLES
@given(tagged(unit=True), windows())
def test_restriction_lives_inside_its_window(cx, u):
    ctx, x = cx
    assert semantic_support(restrict(x, u, ctx), ctx).subset_of(u)


@EXAMPLES
@given(tagged())
def test_semantic_support_inside_support(cx):
    ctx, x = cx
    assert semantic_support(x, ctx).subset_of(support(x, ctx))


@EXAMPLES
@given(recipes(), recipes(), windows())
def test_a_built_cell_table_agrees_with_a_fresh_context(rx, ry, u):
    # evaluate y and restrict it, which may mint symbols and drop the
    # table, then build the table; x must read as on a context that saw
    # only x
    ctx, cover = make_cover_three()
    x, y = _tagged_on(ctx, cover, rx), _tagged_on(ctx, cover, ry)
    semantic_support(y, ctx)
    restrict(y, u, ctx)
    ctx.cells()
    got = semantic_support(x, ctx), pi(x, ctx).terms
    fresh, fresh_cover = make_cover_three()
    x0 = _tagged_on(fresh, fresh_cover, rx)
    assert got == (semantic_support(x0, fresh), pi(x0, fresh).terms)


@EXAMPLES
@given(tagged(unit=True), st.lists(
    st.one_of(windows(), st.sampled_from(("s1", "s2", "s3"))), min_size=1, max_size=6))
def test_a_kept_cell_table_agrees_with_a_new_one(cx, steps):
    # each step restricts to a window or dresses by a bump, and may mint
    # symbols that keep the table or drop it; either way it must read as a
    # table built on the context as it now stands
    ctx, x = cx
    for step in steps:
        if isinstance(step, SupportSet):
            x = x + restrict(x, step, ctx)
        else:
            x = x + sigma_star(step, x, ctx)
        _assert_table_is_fresh(ctx)
        table, new = ctx._cell_table(), _CellTable(ctx)
        assert (table.points, table.cells, table.plans) == (new.points, new.cells, new.plans)
        for name in ctx._tags:
            assert table.values(name) == new.values(name), name


@EXAMPLES
@given(tagged(unit=True), windows(), st.sampled_from(("s1", "s2", "s3")))
def test_minted_names_round_trip(cx, u, sigma):
    # restricted, dressed and windowed-unit leaves all print as names the
    # parser finds in the context's alphabet
    ctx, x = cx
    y = x + restrict(x, u, ctx) + sigma_star(sigma, x, ctx)
    y = y + sigma_star(sigma, restrict(x, u, ctx), ctx)
    assert parse(to_text(y), ctx.alphabet) == y
