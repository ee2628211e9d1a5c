"""Exact polynomials: every operation matches a reference fold over
Fraction dicts, stored coefficients are nonzero ints or Fractions, and an
int coefficient is indistinguishable from the equal Fraction."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from vertexalg.models.factory import shipped_model
from vertexalg.models.polys import Poly1, Poly2, PolyVars, column_rank, parse_poly
from vertexalg.terms import Alphabet, Element, Symbol

# -- reference arithmetic over {key: Fraction} dicts ---------------------------


def ref_clean(d):
    return {k: Q(v) for k, v in d.items() if v != 0}


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Q(0)) + sign * v
    return ref_clean(out)


def ref_mul(a, b, merge):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = merge(k1, k2)
            out[k] = out.get(k, Q(0)) + Q(v1) * Q(v2)
    return ref_clean(out)


def merge_vars(k1, k2):
    exps = {}
    for name, e in k1 + k2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


KINDS = {
    "Poly1": (
        Poly1,
        st.integers(0, 4),
        lambda k1, k2: k1 + k2,
    ),
    "Poly2": (
        Poly2,
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        lambda k1, k2: (k1[0] + k2[0], k1[1] + k2[1]),
    ),
    "PolyVars": (
        PolyVars,
        st.dictionaries(st.sampled_from("xyz"), st.integers(1, 2)).map(
            lambda d: tuple(sorted(d.items()))
        ),
        merge_vars,
    ),
}

ints = st.integers(-5, 5)
fractions = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))
coeffs = st.one_of(ints, fractions)


def raw(kind, values=coeffs):
    _, keys, _ = KINDS[kind]
    return st.dictionaries(keys, values, max_size=4)


def assert_clean(p):
    for v in p.c.values():
        assert v != 0
        assert type(v) is int or type(v) is Q


def assert_int_only(p):
    assert all(type(v) is int for v in p.c.values())


# -- properties -----------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestAgainstReference:
    @given(data=st.data())
    def test_ring_operations(self, kind, data):
        cls, _, merge = KINDS[kind]
        a, b = data.draw(raw(kind)), data.draw(raw(kind))
        pa, pb = cls(a), cls(b)
        ra, rb = ref_clean(a), ref_clean(b)
        for got, want in (
            (pa, ra),
            (pa + pb, ref_add(ra, rb)),
            (pa - pb, ref_add(ra, rb, -1)),
            (-pa, ref_add({}, ra, -1)),
            (pa * pb, ref_mul(ra, rb, merge)),
        ):
            assert got.c == want
            assert_clean(got)

    @given(data=st.data())
    def test_scalar_multiplication(self, kind, data):
        cls = KINDS[kind][0]
        a = data.draw(raw(kind))
        c = data.draw(coeffs)
        want = ref_clean({k: Q(v) * c for k, v in a.items()})
        for got in (cls(a) * c, c * cls(a)):
            assert got.c == want
            assert_clean(got)

    @given(data=st.data())
    def test_int_coefficients_stay_int(self, kind, data):
        cls, _, _ = KINDS[kind]
        pa, pb = cls(data.draw(raw(kind, ints))), cls(data.draw(raw(kind, ints)))
        c = data.draw(ints)
        for got in (pa + pb, pa - pb, -pa, pa * pb, pa * c, c * pb):
            assert_int_only(got)

    @given(data=st.data())
    def test_int_and_fraction_coefficients_agree(self, kind, data):
        cls = KINDS[kind][0]
        a = data.draw(raw(kind, ints))
        as_int = cls(a)
        as_fraction = cls({k: Q(v) for k, v in a.items()})
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)
        assert repr(as_int) == repr(as_fraction)


@given(raw("Poly1"))
def test_poly1_diff(a):
    want = ref_clean({k - 1: Q(v) * k for k, v in ref_clean(a).items() if k})
    got = Poly1(a).diff()
    assert got.c == want
    assert_clean(got)


@pytest.mark.parametrize("var", (0, 1))
@given(a=raw("Poly2"))
def test_poly2_diff(var, a):
    want = {}
    for (i, j), v in ref_clean(a).items():
        e = (i, j)[var]
        if e:
            key = (i - 1, j) if var == 0 else (i, j - 1)
            want[key] = Q(v) * e
    got = Poly2(a).diff(var)
    assert got.c == ref_clean(want)
    assert_clean(got)


@given(a=raw("PolyVars"), value=raw("PolyVars"), name=st.sampled_from("xyz"))
def test_polyvars_substitute(a, value, name):
    ref_value = ref_clean(value)
    want = {}
    for k, v in ref_clean(a).items():
        piece = {tuple(p for p in k if p[0] != name): v}
        for nm, e in k:
            if nm == name:
                for _ in range(e):
                    piece = ref_mul(piece, ref_value, merge_vars)
        want = ref_add(want, piece)
    got = PolyVars(a).substitute(name, PolyVars(value))
    assert got.c == want
    assert_clean(got)


# -- floats are refused at every entry point ------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poly1({0: 0.5}),
        lambda: Poly2({(0, 0): 0.1}),
        lambda: Poly2({(0, 0): 0.0}),
        lambda: PolyVars({(): 0.5}),
        lambda: Poly1.const(0.5),
        lambda: Poly2.const(0.5),
        lambda: PolyVars.const(0.5),
        lambda: Poly1.mono(1, 0.5),
        lambda: Poly2.mono(1, 0, 0.25),
        lambda: Poly1.mono(1) * 0.5,
        lambda: Poly2.mono(1, 0) * 0.25,
        lambda: 0.25 * Poly2.mono(1, 0),
        lambda: Poly2() * 0.25,
        lambda: PolyVars.var("x") * 0.5,
        lambda: Poly2.mono(1, 0) + 0.5,
        lambda: Poly2.mono(1, 0) - 0.5,
        lambda: column_rank([[0.5, 1], [1, 2]]),
    ],
)
def test_float_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_exact_non_int_input_becomes_fraction():
    assert Poly1.const("3/2").c == {0: Q(3, 2)}
    assert type(Poly1.const(True).c[0]) is int


# -- one coefficient rule: terms.as_coeff ---------------------------------------

_AL = Alphabet()
_AL.add(Symbol("x", 0, Q(0), "generic"))

# each builder stores the one coefficient c of a single monomial
STORES = {
    "Element": lambda c: Element.sym(_AL, "x", c).terms.values(),
    "Poly1": lambda c: Poly1.mono(2, c).c.values(),
    "Poly2": lambda c: Poly2.mono(1, 2, c).c.values(),
    "PolyVars": lambda c: PolyVars.const(c).c.values(),
}


@pytest.mark.parametrize("kind", sorted(STORES))
@pytest.mark.parametrize("given,want", ((Q(4, 2), 2), (True, 1), (Q(3, 2), Q(3, 2))))
def test_every_builder_stores_by_one_rule(kind, given, want):
    (got,) = STORES[kind](given)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("kind", sorted(STORES))
def test_every_builder_refuses_a_float(kind):
    with pytest.raises(TypeError, match="float"):
        STORES[kind](2.0)


def test_parsed_connections_have_int_coefficients():
    for name in ("derham2_b2", "derham2_lin"):
        got = [v for a in shipped_model(name).meta["connection"] for v in a.c.values()]
        assert got and all(type(v) is int for v in got), (name, got)


# -- text -------------------------------------------------------------------------

B12 = ("b1", "b2")


@pytest.mark.parametrize("text,variables,want", (
    ("3/2*b1^2 - b1*b2 + 1", B12, {(2, 0): Q(3, 2), (1, 1): -1, (0, 0): 1}),
    ("-b^3 + 2*b", ("b",), {3: -1, 1: 2}),
    ("+b * b^2 - 1/3", ("b",), {3: 1, 0: Q(-1, 3)}),
    ("2*3*b2^0 + b2^2*b1", B12, {(0, 0): 6, (1, 2): 1}),
    ("b1 - b1", B12, {}),
    ("0", B12, {}),
    ("", ("b",), {}),
), ids=("coefficient-power", "signs", "product-of-powers", "several-factors",
        "cancel", "zero", "empty"))
def test_parse_poly_reads_the_grammar(text, variables, want):
    got = parse_poly(text, variables)
    assert type(got) is (Poly1 if len(variables) == 1 else Poly2)
    assert got.c == want


@pytest.mark.parametrize("text,error", (
    ("b1 + x", "unknown variable 'x' in 'b1\\+x'"),
    ("b1^2*b3", "unknown variable 'b3'"),
    ("b1**2", "empty factor in 'b1\\*\\*2'"),
    ("b1 +", "empty factor in 'b1\\+'"),
    ("--b1", "empty factor"),
    ("1/0*b1", "bad coefficient '1/0' in '1/0\\*b1'"),
    ("b1^x", "bad power 'x' in 'b1\\^x'"),
    ("b1^-1", "bad power '-1' in 'b1\\^-1'"),
    ("3/2/5*b1", "bad coefficient '3/2/5'"),
    ("1.5*b1", "bad coefficient '1.5'"),
    # ASCII digits only, as in the term grammar
    ("b1^٣", "bad power '٣' in 'b1\\^٣'"),
    ("b1^²", "bad power '²' in 'b1\\^²'"),
    ("²*b1", "unknown variable '²' in '²\\*b1'"),
    ("3٣*b1", "bad coefficient '3٣'"),
), ids=("unknown", "unknown-in-product", "double-star", "trailing-sign",
        "double-sign", "zero-denominator", "power-text", "negative-power",
        "double-slash", "decimal", "arabic-indic-power", "superscript-power",
        "superscript-coefficient", "arabic-indic-coefficient"))
def test_parse_poly_refusals(text, error):
    with pytest.raises(ValueError, match=error):
        parse_poly(text, B12)


# -- column rank --------------------------------------------------------------------


def test_column_rank_known_answers():
    assert column_rank([]) == 0
    assert column_rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
    assert column_rank([[Q(1, 2), 1], [1, 2]]) == 1
    assert column_rank([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 3
