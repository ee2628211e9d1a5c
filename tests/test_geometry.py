"""The exterior algebra Forms(n): random sparse forms over small Poly1 and
Poly2 coefficients obey the identities that fix every sign table.  The
operator path: Op commutators are graded antisymmetric and obey the graded
Jacobi identity, an Op's memo hands back what fresh Ops compute, and each
geometry check fails, naming its input, when the statement it probes is
broken."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from vertexalg.models import geometry
from vertexalg.models.base import Model
from vertexalg.models.factory import make_model, shipped_model
from vertexalg.models.geometry import F1, F2, Forms, Op, w1_lie_oracle
from vertexalg.models.polys import Poly1, Poly2
from vertexalg.suites import run_suite

ALGEBRAS = {1: Forms(1), 2: Forms(2)}

_COEFF = st.integers(-3, 3)
_POLYS = {
    1: st.dictionaries(st.integers(0, 2), _COEFF, max_size=3).map(Poly1),
    2: st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), _COEFF, max_size=3
    ).map(Poly2),
}


def forms(n, degree=None):
    """Sparse forms over n coordinates, homogeneous of `degree` if given."""
    masks = [a for a in range(1 << n) if degree in (None, a.bit_count())]
    return st.dictionaries(st.sampled_from(masks), _POLYS[n], max_size=3).map(
        lambda d: {a: p for a, p in d.items() if p.c}
    )


def fields(n):
    return st.tuples(*[_POLYS[n]] * n)


def homogeneous(n):
    return st.integers(0, n).flatmap(lambda r: st.tuples(st.just(r), forms(n, r)))


def clean(n, form):
    """form is a stored Forms(n) value: known masks, no zero coefficient."""
    assert all(0 <= a < 1 << n and p.c for a, p in form.items()), form
    return form


N = st.sampled_from((1, 2))
EXAMPLES = settings(max_examples=60, deadline=None)


@EXAMPLES
@given(st.data())
def test_d_squared_is_zero(data):
    n = data.draw(N)
    F = ALGEBRAS[n]
    u = data.draw(forms(n))
    assert clean(n, F.d(clean(n, F.d(u)))) == {}


@EXAMPLES
@given(st.data())
def test_iota_squared_is_zero(data):
    n = data.draw(N)
    F = ALGEBRAS[n]
    x, u = data.draw(fields(n)), data.draw(forms(n))
    assert clean(n, F.iota(x, clean(n, F.iota(x, u)))) == {}


@EXAMPLES
@given(st.data())
def test_graded_leibniz(data):
    # d(u ^ v) = du ^ v + (-1)^|u| u ^ dv, and the same for iota_X
    n = data.draw(N)
    F = ALGEBRAS[n]
    r, u = data.draw(homogeneous(n))
    v, x = data.draw(forms(n)), data.draw(fields(n))
    uv = clean(n, F.wedge(u, v))
    for op in (F.d, lambda w: F.iota(x, w)):
        rhs = F.add(F.wedge(op(u), v), F.scale((-1) ** r, F.wedge(u, op(v))))
        assert clean(n, op(uv)) == clean(n, rhs)


@EXAMPLES
@given(st.data())
def test_wedge_associative(data):
    n = data.draw(N)
    F = ALGEBRAS[n]
    u, v, w = (data.draw(forms(n)) for _ in range(3))
    left = F.wedge(clean(n, F.wedge(u, v)), w)
    assert clean(n, left) == clean(n, F.wedge(u, clean(n, F.wedge(v, w))))


@EXAMPLES
@given(st.data())
def test_wedge_graded_commutative(data):
    n = data.draw(N)
    F = ALGEBRAS[n]
    (r, u), (s, v) = data.draw(homogeneous(n)), data.draw(homogeneous(n))
    swapped = F.scale((-1) ** (r * s), F.wedge(v, u))
    assert clean(n, F.wedge(u, v)) == clean(n, swapped)


@EXAMPLES
@given(forms(1), _POLYS[1])
def test_lie_matches_the_oracle_on_a_line(u, p):
    assert clean(1, ALGEBRAS[1].lie((p,), u)) == w1_lie_oracle(p, u)


@EXAMPLES
@given(st.data())
def test_results_store_no_zero(data):
    n = data.draw(N)
    F = ALGEBRAS[n]
    u, v, x = data.draw(forms(n)), data.draw(forms(n)), data.draw(fields(n))
    c = data.draw(_COEFF)
    for got in (
        F.add(u, v),
        F.add(u, F.scale(-1, u)),
        F.scale(c, u),
        F.wedge(u, v),
        F.d(u),
        F.iota(x, u),
        F.lie(x, u),
    ):
        clean(n, got)


def test_signs_on_the_plane():
    # db1 ^ db2 = -(db2 ^ db1); d(f db1) = -f_2 db1 ^ db2; iota_{d/db2} of
    # db1 ^ db2 is -db1
    F = ALGEBRAS[2]
    one = Poly2.const(1)
    assert F.wedge({1: one}, {2: one}) == {3: one}
    assert F.wedge({2: one}, {1: one}) == {3: -one}
    assert F.d({1: Poly2.mono(0, 1)}) == {3: -one}
    assert F.iota((Poly2(), one), {3: one}) == {1: -one}


# -- the operator path ------------------------------------------------------------


def operators():
    """d, iota_X or L_X on Forms(2) values, X a random polynomial field."""
    return st.one_of(
        st.just(Op("d", 1, lambda k, v: F2.d(v))),
        fields(2).map(lambda x: Op("iota", 1, lambda k, v: F2.iota(x, v))),
        fields(2).map(lambda x: Op("lie", 0, lambda k, v: F2.lie(x, v))),
    )


SECTIONS = st.tuples(st.integers(0, 3), forms(2))


@EXAMPLES
@given(operators(), operators(), SECTIONS)
def test_commutator_is_graded_antisymmetric(a, b, section):
    # [A, B] = -(-1)^{|A||B|} [B, A], with parity |A| + |B|
    ab, ba = a.commutator(b), b.commutator(a)
    assert ab.parity == ba.parity == (a.parity + b.parity) % 2
    sign = (-1) ** (a.parity * b.parity)
    assert clean(2, ab(*section)) == clean(2, Forms.scale(-sign, ba(*section)))


@EXAMPLES
@given(operators(), operators(), operators(), SECTIONS)
def test_commutator_obeys_graded_jacobi(a, b, c, section):
    # [A, [B, C]] = [[A, B], C] + (-1)^{|A||B|} [B, [A, C]]
    lhs = a.commutator(b.commutator(c))(*section)
    sign = (-1) ** (a.parity * b.parity)
    rhs = Forms.add(
        a.commutator(b).commutator(c)(*section),
        Forms.scale(sign, b.commutator(a.commutator(c))(*section)),
    )
    assert clean(2, lhs) == clean(2, rhs)


def _fresh(op):
    return Op(op.name, op.parity, op.fn)


@EXAMPLES
@given(operators(), operators(), operators(), SECTIONS)
def test_memoised_images_equal_fresh_ones(a, b, c, section):
    # the memo is keyed by content: a second evaluation, and one on a deep
    # copy of the section, read stored images; the operator "d" is one
    # object across examples, so its memo also holds earlier sections
    nested = a.commutator(b.commutator(c))
    want = clean(2, _fresh(a).commutator(_fresh(b).commutator(_fresh(c)))(*section))
    for k, v in (section, section, copy.deepcopy(section)):
        assert nested(k, v) == want
        assert nested.image(k, v) == want


def test_a_call_computes_and_image_stores_once():
    runs = []
    op = Op("d", 1, lambda k, v: runs.append(k) or F2.d(v))
    v = {0: Poly2.mono(1, 2)}
    assert op(0, v) == F2.d(v) and not op.memo
    assert op.image(0, v) == op.image(0, copy.deepcopy(v)) == F2.d(v)
    assert op.image(1, v) == F2.d(v)
    assert runs == [0, 0, 1] and len(op.memo) == 2
    # a memo=False Op, as a test field's contraction is, computes on every
    # image call and stores nothing
    bare = Op("d", 1, op.fn, memo=False)
    assert bare.image(0, v) == bare.image(0, v) == F2.d(v) and bare.memo is None
    assert runs == [0, 0, 1, 0, 0]


def test_the_zero_form_is_its_own_image():
    # every Op is linear, so image hands {} back without calling fn, with
    # or without a memo, and stores nothing; a commutator is such an Op
    def fn(k, v):
        raise AssertionError(f"fn called on {v}")

    zero = {}
    for op in (Op("boom", 1, fn), Op("boom", 1, fn, memo=False)):
        assert op.image(2, zero) is zero
        assert not op.memo
        assert op.commutator(op).image(0, zero) is zero


def test_content_keys_sections_by_value():
    x, y = Poly2.mono(1, 0), Poly2.mono(0, 2)

    def section():
        return 1, {1: x + y * 3, 2: Poly2.const(1)}

    key = geometry._content(*section())
    assert key == geometry._content(*section())
    assert hash(key) == hash(geometry._content(*copy.deepcopy(section())))
    changed = [
        (2, {1: x + y * 3, 2: Poly2.const(1)}),  # the e-power
        (1, {1: x + y * 3, 3: Poly2.const(1)}),  # a mask
        (1, {1: x + y * 2, 2: Poly2.const(1)}),  # a coefficient
        (1, {1: x, 2: y * 3 + Poly2.const(1)}),  # the split across slots
    ]
    assert all(geometry._content(k, v) != key for k, v in changed)


def test_a_form_multiple_wedges_once_per_section(monkeypatch):
    # "bdd" is b ^ dd: six reads of one section's image, half of them on
    # copies, wedge once
    v = {0: Poly1.mono(2)}
    want = F1.wedge({0: Poly1.mono(1)}, F1.d(v))
    wedges = []
    monkeypatch.setattr(F1, "wedge", lambda u, w: wedges.append(w) or Forms.wedge(F1, u, w))
    basic = {name: Op(name, parity, lambda k, v: F1.d(v))
             for name, parity in geometry.OPS1.items()}
    multiple = geometry._operators(shipped_model("derham1"), basic)["bdd"]
    for _ in range(3):
        assert multiple.image(0, v) == multiple.image(0, copy.deepcopy(v)) == want
    assert len(wedges) == 1


def test_geometry_refusals_name_their_input():
    with pytest.raises(ValueError, match="connection coefficients exceed the degree cap"):
        make_model("DeRham2Conn", {"connection": ["b1^3", "0"], "max_degree": 2})
    with pytest.raises(ValueError, match="geometry checks apply to the differential-form models"):
        geometry.classical_geometry_checks(shipped_model("weyl1"))


def test_no_memo_outlives_a_run(monkeypatch):
    # the unpatched run fills memos first; one that outlived it would hand
    # the patched run images of the true Lie derivative
    assert run_suite("geometry")["status"] == "pass"
    monkeypatch.setattr(F2, "lie", lambda field, u: {})
    checks = {c["id"]: c for c in run_suite("geometry")["checks"]}
    for name in ("derham2_b2", "derham2_lin"):
        assert checks[f"{name}-twisted-derivative-variants"]["status"] == "fail"


# -- geometry mutants -------------------------------------------------------------
#
# Each row monkeypatches one fault into the geometry layer at runtime and
# names the checks of `vertexalg verify geometry` that must fail under it.


def _lie_oracle_without_p_prime_g(p, u):
    # L_{p d/db}(f + g db) with the p' g term of the db slot dropped
    f, g = u.get(0, Poly1()), u.get(1, Poly1())
    out = {0: p * f.diff(), 1: p * g.diff()}
    return {mask: c for mask, c in out.items() if c.c}


def _wrap(monkeypatch, owner, name, wrapper):
    orig = getattr(owner, name)
    monkeypatch.setattr(owner, name, wrapper(orig))


GEOMETRY_MUTANTS = [
    ("w1_lie_oracle drops p' g",
     lambda mp: mp.setattr(geometry, "w1_lie_oracle", _lie_oracle_without_p_prime_g),
     ["derham1-cartan"]),
    ("curvature_oracle negated",
     lambda mp: _wrap(mp, geometry, "curvature_oracle", lambda f: lambda a1, a2: {
         mask: -p for mask, p in f(a1, a2).items()}),
     ["derham2_b2-curvature", "derham2_lin-curvature"]),
    ("field_bracket with its arguments swapped",
     lambda mp: _wrap(mp, geometry, "field_bracket", lambda f: lambda x, y: f(y, x)),
     ["derham2_b2-twisted-contraction-bracket",
      "derham2_lin-twisted-contraction-bracket"]),
    ("bracket table doubled",
     lambda mp: _wrap(mp, Model, "bracket", lambda f: lambda self, s, t: 2 * f(self, s, t)),
     ["derham1-bracket-table-vs-operators", "derham2_b2-bracket-table-vs-operators",
      "derham2_lin-bracket-table-vs-operators"]),
    # a wedge with no Koszul sign and no db ^ db = 0 commutes on odd forms
    ("wedge on a line commutes",
     lambda mp: mp.setattr(F1, "_wedge_sign", [[1, 1], [1, 1]]),
     ["derham1-koszul-odd-pairs"]),
    # a product that commutes on odd forms: the pair multiplied in name order
    ("products commute",
     lambda mp: _wrap(mp, Model, "mul", lambda f: lambda self, a, b: f(
         self, *sorted((a, b), key=lambda s: s.name))),
     ["derham2_b2-koszul-odd-pairs", "derham2_lin-koszul-odd-pairs"]),
    ("F1.iota is the identity",
     lambda mp: mp.setattr(F1, "iota", lambda field, u: u),
     ["derham1-iota-squared"]),
    ("F2.lie is zero",
     lambda mp: mp.setattr(F2, "lie", lambda field, u: {}),
     ["derham2_b2-twisted-derivative-variants",
      "derham2_lin-twisted-derivative-variants"]),
]


@pytest.mark.parametrize("label,patch,killed", GEOMETRY_MUTANTS,
                         ids=[row[0] for row in GEOMETRY_MUTANTS])
def test_geometry_mutant_fails_with_a_witness(monkeypatch, label, patch, killed):
    patch(monkeypatch)
    checks = {c["id"]: c for c in run_suite("geometry")["checks"]}
    for cid in killed:
        rec = checks[cid]
        assert rec["status"] == "fail", rec
        assert isinstance(rec["witness"], str) and rec["witness"], rec


def test_every_geometry_check_has_a_mutant():
    ids = {c["id"].split("-", 1)[1] for c in run_suite("geometry")["checks"]}
    killed = {cid.split("-", 1)[1] for *_, cids in GEOMETRY_MUTANTS for cid in cids}
    assert len(ids) == 7 and killed == ids
