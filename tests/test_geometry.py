"""The exterior algebra Forms(n): random sparse forms over small Poly1 and
Poly2 coefficients obey the identities that fix every sign table."""

from hypothesis import given, settings, strategies as st

from vertexalg.models.geometry import Forms, w1_lie_oracle
from vertexalg.models.polys import Poly1, Poly2

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
