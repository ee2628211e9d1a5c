"""Differential-form models: forms on a line, and a rank-one twisted module
over two coordinates with a polynomial connection.

The value level is exact: forms are tuples of rational polynomials, one per
component of the exterior-algebra basis, and operators are closures on
those values.  The symbol level re-expresses values in a finite alphabet
(form monomials and form-multiples of the basic operators) so the generic
Model machinery applies; values outside the alphabet raise the degree-cap
error.  Symbol-table brackets are built from one structural rule

    [w P, e Q] = w ^ P(e) . Q - (-1)^{(|w|+|P|)(|e|+|Q|)} e ^ Q(w) . P
                 + (-1)^{|P||e|} (w ^ e) . [P, Q]

valid because every basic operator satisfies the graded Leibniz rule over
wedge with a form-level symbol (contraction, exterior derivative, Lie
derivative; the connection with symbol d; the euler counter with symbol 0).
The rule, with the wedge product and the action, is written once in
_form_model; each maker passes it that model's form algebra and operators.
The geometry checks then confirm the tables against honest operator
commutators on section batteries, with independent oracles for the Lie
derivative, the curvature two-form, and the vector-field bracket.
"""

from fractions import Fraction

from ..terms import Alphabet, Element, Symbol, minus_one_pow
from .base import Model, ModelDegreeError, check
from .polys import Poly1, Poly2

Q = Fraction


# 1-D forms: value = (f, g) meaning f + g db ----------------------------------
#
# Polynomials are immutable, so every zero slot can share one zero polynomial.

_Z1 = Poly1()


def w1_zero():
    return (_Z1, _Z1)


def w1_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def w1_scale(c, u):
    return (u[0] * c, u[1] * c)


def w1_wedge(u, v):
    return (u[0] * v[0], u[0] * v[1] + u[1] * v[0])


def w1_d(u):
    return (_Z1, u[0].diff())


def w1_iota(p: Poly1, u):
    # contraction with the field p(b) d/db
    return (p * u[1], _Z1)


def w1_lie(p: Poly1, u):
    return w1_add(w1_d(w1_iota(p, u)), w1_iota(p, w1_d(u)))


def w1_lie_oracle(p: Poly1, u):
    # coefficient differentiation: L_{p d/db}(f + g db) = p f' + (p g' + p' g) db
    return (p * u[0].diff(), p * u[1].diff() + p.diff() * u[1])


# 2-D forms: value = (c0, c1, c2, c12) over db1, db2 ---------------------------
#
# Most slots of the forms met in the checks are zero, so the helpers hand a
# zero operand back as it is instead of working through its slots.

_Z2 = Poly2()
_W2_ZERO = (_Z2, _Z2, _Z2, _Z2)


def w2_zero():
    return _W2_ZERO


def w2_is_zero(u):
    return not (u[0].c or u[1].c or u[2].c or u[3].c)


def w2_add(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3])


def w2_scale(c, u):
    if w2_is_zero(u):
        return u
    return (u[0] * c, u[1] * c, u[2] * c, u[3] * c)


def w2_wedge(u, v):
    if w2_is_zero(u):
        return u
    if w2_is_zero(v):
        return v
    return (
        u[0] * v[0],
        u[0] * v[1] + u[1] * v[0],
        u[0] * v[2] + u[2] * v[0],
        u[0] * v[3] + u[3] * v[0] + u[1] * v[2] - u[2] * v[1],
    )


def w2_d(u):
    if w2_is_zero(u):
        return u
    return (
        _Z2,
        u[0].diff(0),
        u[0].diff(1),
        u[2].diff(0) - u[1].diff(1),
    )


def w2_iota(field, u):
    # field = (p, q) meaning p d/db1 + q d/db2
    if w2_is_zero(u):
        return u
    p, q = field
    return (p * u[1] + q * u[2], -(q * u[3]), p * u[3], _Z2)


def w2_lie(field, u):
    return w2_add(w2_d(w2_iota(field, u)), w2_iota(field, w2_d(u)))


def field_bracket(x, y):
    # [X, Y]^i = X(Y^i) - Y(X^i), exact polynomial arithmetic
    def apply(f, g):
        return f[0] * g.diff(0) + f[1] * g.diff(1)

    return (apply(x, y[0]) - apply(y, x[0]), apply(x, y[1]) - apply(y, x[1]))


def curvature_oracle(a1: Poly2, a2: Poly2):
    # F = dA by formal partials, independent of the form engine
    return (Poly2(), Poly2(), Poly2(), a2.diff(0) - a1.diff(1))


# sections: dict e-power -> 2-D form value ------------------------------------


def sec_zero():
    return {}


def sec_clean(s):
    return {k: v for k, v in s.items() if not w2_is_zero(v)}


def sec_add(s, t):
    out = dict(s)
    for k, v in t.items():
        out[k] = w2_add(out[k], v) if k in out else v
    return sec_clean(out)


def sec_scale(c, s):
    return sec_clean({k: w2_scale(c, v) for k, v in s.items()})


def sec_eq(s, t):
    return sec_clean(s) == sec_clean(t)


def sec_of(form, k=0):
    return sec_clean({k: form})


class Op:
    """An operator on sections with a parity, built from a closure."""

    def __init__(self, name, parity, fn):
        self.name = name
        self.parity = parity
        self.fn = fn

    def __call__(self, s):
        return sec_clean(self.fn(s))

    def commutator(self, other) -> "Op":
        sign = minus_one_pow(self.parity * other.parity)

        def fn(s):
            return sec_add(self(other(s)), sec_scale(-sign, other(self(s))))

        return Op(f"[{self.name},{other.name}]", (self.parity + other.parity) % 2, fn)


def op_componentwise(name, parity, form_fn):
    return Op(name, parity, lambda s: {k: form_fn(v) for k, v in s.items()})


def op_d2():
    return op_componentwise("d", 1, w2_d)


def op_iota2(field, name="iota"):
    return op_componentwise(name, 1, lambda v: w2_iota(field, v))


def op_lie2(field, name="lie"):
    return op_componentwise(name, 0, lambda v: w2_lie(field, v))


def op_euler():
    return Op("E", 0, lambda s: {k: w2_scale(k, v) for k, v in s.items()})


def op_nabla(a_form):
    def fn(s):
        return {
            k: w2_add(w2_d(v), w2_scale(k, w2_wedge(a_form, v))) for k, v in s.items()
        }

    return Op("nabla", 1, fn)


# symbol grids ------------------------------------------------------------------

OPS1 = {"iX": ("iota", 1), "lX": ("lie", 0), "dd": ("d", 1)}
OPS2 = {
    "iota1": ("iota", 1, (0,)),
    "iota2": ("iota", 1, (1,)),
    "dd": ("d", 1, None),
    "nabla": ("nabla", 1, None),
    "lie1": ("lie", 0, (0,)),
    "lie2": ("lie", 0, (1,)),
    "ee": ("euler", 0, None),
}


def _form_model(
    name, al, max_degree, meta, *, wedge, scale, form_val, split_op, act_form,
    pure_bracket, form_to_elem, op_to_elem,
) -> Model:
    """The structural bracket rule of the module docstring, written once.

    A form-multiple operator symbol splits as (w, P): split_op gives its
    form value and basic-operator id.  act_form(P, v) applies the basic
    operator's form-level symbol to a form value, pure_bracket(P, Q) lists
    [P, Q] as (form, op) summands or gives None, and form_to_elem /
    op_to_elem re-express values in the alphabet (or raise the degree-cap
    error).  The alphabet holds each basic operator under its own id, which
    gives its parity."""

    def bracket(s, t):
        s_op, t_op = s.kind == "lie", t.kind == "lie"
        if not s_op and not t_op:
            return Element.zero(al)
        if s_op and not t_op:
            w, p = split_op(s.name)
            return form_to_elem(wedge(w, act_form(p, form_val(t.name))))
        koszul = minus_one_pow(s.parity * t.parity)
        if t_op and not s_op:
            return (-koszul) * bracket(t, s)
        w, p = split_op(s.name)
        e, q = split_op(t.name)
        e_par = (t.parity - al.symbol(q).parity) % 2
        pairs = [
            (wedge(w, act_form(p, e)), q),
            (scale(-koszul, wedge(e, act_form(q, w))), p),
        ]
        sign = minus_one_pow(al.symbol(p).parity * e_par)
        for pq_form, pq_op in pure_bracket(p, q) or ():
            pairs.append((scale(sign, wedge(wedge(w, e), pq_form)), pq_op))
        return op_to_elem(pairs)

    def product(a, b):
        return form_to_elem(wedge(form_val(a.name), form_val(b.name)))

    def action(a, g):
        w, p = split_op(g.name)
        return op_to_elem([(wedge(form_val(a.name), w), p)])

    return Model(
        name,
        al,
        bracket,
        product,
        action,
        max_degree=max_degree,
        commutative=None,
        meta=meta,
    )


def _mono1_name(k: int) -> str:
    return "" if k == 0 else ("b" if k == 1 else f"b{k}")


def _form1_name(k: int, has_db: bool) -> str:
    base = _mono1_name(k)
    return (base + "db") if has_db else base


def _form1_val(name: str):
    if name in ("", "1"):
        return (Poly1.const(1), Poly1())
    has_db = name.endswith("db")
    core = name[:-2] if has_db else name
    k = 0 if core == "" else (1 if core == "b" else int(core[1:]))
    mono = Poly1.mono(k)
    return (Poly1(), mono) if has_db else (mono, Poly1())


def make_derham1(max_degree: int = 3) -> Model:
    """Forms f + g db with polynomial coefficients up to the degree cap, and
    the operator family of one vector field: contraction iX, Lie derivative
    lX, exterior derivative dd, with all form-multiples."""
    al = Alphabet()
    forms = []  # (name, k, has_db); name "" is the unit
    for k in range(max_degree + 1):
        for has_db in (False, True):
            name = _form1_name(k, has_db)
            forms.append((name, k, has_db))
            if name:
                al.add(Symbol(name, 1 if has_db else 0, Q(0), "algebra"))
    for fname, k, has_db in forms:
        fpar = 1 if has_db else 0
        for op, (_, opar) in OPS1.items():
            al.add(Symbol(fname + op, (fpar + opar) % 2, Q(0), "lie"))

    one = Poly1.const(1)

    def split_op(name: str):
        # "<form><op>" with op one of OPS1
        return _form1_val(name[:-2]), name[-2:]

    def form_to_elem(v) -> Element:
        out = Element.zero(al)
        for poly, has_db in ((v[0], False), (v[1], True)):
            for k, c in poly.c.items():
                if k > max_degree:
                    raise ModelDegreeError(f"degree {k} exceeds cap {max_degree}")
                name = _form1_name(k, has_db)
                out = out + (
                    Element.unit(al, c) if not name else Element.sym(al, name, c)
                )
        return out

    def op_to_elem(pairs) -> Element:
        # pairs: iterable of (form value, op id)
        out = Element.zero(al)
        for v, op in pairs:
            for poly, has_db in ((v[0], False), (v[1], True)):
                for k, c in poly.c.items():
                    if k > max_degree:
                        raise ModelDegreeError(f"degree {k} exceeds cap {max_degree}")
                    out = out + Element.sym(al, _form1_name(k, has_db) + op, c)
        return out

    def act_form(op: str, v):
        if op == "iX":
            return w1_iota(one, v)
        if op == "lX":
            return w1_lie(one, v)
        return w1_d(v)

    # pure-operator super-brackets: only [dd, iX] = [iX, dd] = lX survives
    def pure_bracket(p: str, q: str):
        if {p, q} == {"dd", "iX"}:
            return [((one, Poly1()), "lX")]
        return None

    return _form_model(
        "derham1",
        al,
        max_degree,
        {"kind": "DeRham1", "locality": 2},
        wedge=w1_wedge,
        scale=w1_scale,
        form_val=_form1_val,
        split_op=split_op,
        act_form=act_form,
        pure_bracket=pure_bracket,
        form_to_elem=form_to_elem,
        op_to_elem=op_to_elem,
    )


# 2-D connection model -----------------------------------------------------------

_SUFFIXES = ("", "w1", "w2", "w12")
_SUFFIX_PARITY = {"": 0, "w1": 1, "w2": 1, "w12": 0}


def _mono2_name(i: int, j: int, suffix: str) -> str:
    if i == 0 == j and suffix == "":
        return ""
    return f"m{i}{j}{suffix}"


def _form2_val(name: str):
    if name in ("", "1"):
        return (Poly2.const(1), Poly2(), Poly2(), Poly2())
    i, j = int(name[1]), int(name[2])
    sfx = name[3:]
    out = [Poly2(), Poly2(), Poly2(), Poly2()]
    out[_SUFFIXES.index(sfx)] = Poly2.mono(i, j)
    return tuple(out)


def make_derham2(
    a1: Poly2, a2: Poly2, max_degree: int = 2, name: str = "derham2"
) -> Model:
    """Two coordinates, rank-one sections e^k, connection one-form
    A = a1 db1 + a2 db2.  Operator symbols: the seven basic operators and
    all form-multiples of the euler counter (the bracket closure)."""
    if max(a1.total_degree(), a2.total_degree(), 1) > max_degree:
        raise ValueError("connection coefficients exceed the degree cap")
    al = Alphabet()
    monos = [
        (i, j)
        for i in range(max_degree + 1)
        for j in range(max_degree + 1)
        if i + j <= max_degree
    ]
    form_names = []
    for i, j in monos:
        for sfx in _SUFFIXES:
            fname = _mono2_name(i, j, sfx)
            form_names.append(fname)
            if fname:
                al.add(Symbol(fname, _SUFFIX_PARITY[sfx], Q(0), "algebra"))
    for op, (_, opar, _) in OPS2.items():
        al.add(Symbol(op, opar, Q(0), "lie"))
    for fname in form_names:
        if fname:
            fpar = al.symbol(fname).parity
            al.add(Symbol(fname + "ee", fpar, Q(0), "lie"))

    a_form = (Poly2(), a1, a2, Poly2())
    f_form = w2_d(a_form)  # engine curvature; oracle checked in the suite

    def split_op(sym_name: str):
        if sym_name in OPS2:
            return _form2_val(""), sym_name
        # "<form>ee"
        return _form2_val(sym_name[:-2]), "ee"

    def form_to_elem(v) -> Element:
        out = Element.zero(al)
        for slot, sfx in enumerate(_SUFFIXES):
            for (i, j), c in v[slot].c.items():
                if i + j > max_degree:
                    raise ModelDegreeError(f"degree {i+j} exceeds cap {max_degree}")
                fname = _mono2_name(i, j, sfx)
                out = out + (
                    Element.unit(al, c) if not fname else Element.sym(al, fname, c)
                )
        return out

    def op_to_elem(pairs) -> Element:
        out = Element.zero(al)
        for v, op in pairs:
            if op != "ee":
                # only euler multiples are in the alphabet
                scalar = v[0].c.get((0, 0), Q(0))
                rest = w2_add(v, w2_scale(-1, (Poly2.const(scalar), Poly2(), Poly2(), Poly2())))
                if not w2_is_zero(rest):
                    raise ModelDegreeError(
                        f"form-multiple of {op} is outside the operator alphabet"
                    )
                if scalar:
                    out = out + Element.sym(al, op, scalar)
                continue
            for slot, sfx in enumerate(_SUFFIXES):
                for (i, j), c in v[slot].c.items():
                    if i + j > max_degree:
                        raise ModelDegreeError(
                            f"degree {i+j} exceeds cap {max_degree}"
                        )
                    fname = _mono2_name(i, j, sfx)
                    out = out + Element.sym(al, (fname + "ee") if fname else "ee", c)
        return out

    fields = {(0,): (Poly2.const(1), Poly2()), (1,): (Poly2(), Poly2.const(1))}

    def act_form(op: str, v):
        kind = OPS2[op][0] if op in OPS2 else "euler"
        if kind == "iota":
            return w2_iota(fields[OPS2[op][2]], v)
        if kind == "lie":
            return w2_lie(fields[OPS2[op][2]], v)
        if kind in ("d", "nabla"):
            # the connection acts on forms through its exterior-derivative symbol
            return w2_d(v)
        return w2_zero()  # euler kills pure forms

    one2 = _form2_val("")

    def pure_bracket(p: str, q: str):
        # [p, q] for the ORDERED pair, as a list of (form, op) summands.
        # All cases except nabla/lie pair super-symmetrically, so unordered
        # lookup covers them; [lie_i, nabla] = (lie_i A) ee is antisymmetric.
        key = frozenset((p, q))
        if key == frozenset(("dd", "iota1")):
            return [(one2, "lie1")]
        if key == frozenset(("dd", "iota2")):
            return [(one2, "lie2")]
        if key == frozenset(("dd", "nabla")):
            return [(f_form, "ee")]
        if key == frozenset(("nabla",)):
            return [(w2_scale(2, f_form), "ee")]
        if key == frozenset(("nabla", "iota1")):
            return [(one2, "lie1"), (w2_iota(fields[(0,)], a_form), "ee")]
        if key == frozenset(("nabla", "iota2")):
            return [(one2, "lie2"), (w2_iota(fields[(1,)], a_form), "ee")]
        if key in (frozenset(("nabla", "lie1")), frozenset(("nabla", "lie2"))):
            fld = fields[(0,)] if "lie1" in key else fields[(1,)]
            la = w2_lie(fld, a_form)
            return [(w2_scale(-1 if p == "nabla" else 1, la), "ee")]
        return None

    return _form_model(
        name,
        al,
        max_degree,
        {
            "kind": "DeRham2Conn",
            "locality": 2,
            "connection": (a1, a2),
            "curvature": f_form,
        },
        wedge=w2_wedge,
        scale=w2_scale,
        form_val=_form2_val,
        split_op=split_op,
        act_form=act_form,
        pure_bracket=pure_bracket,
        form_to_elem=form_to_elem,
        op_to_elem=op_to_elem,
    )


# geometry checks -----------------------------------------------------------------


def _sections_battery(max_degree: int = 2):
    out = []
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            for slot in range(4):
                v = [Poly2(), Poly2(), Poly2(), Poly2()]
                v[slot] = Poly2.mono(i, j)
                for k in (0, 1, 2):
                    out.append(sec_of(tuple(v), k))
    return out


def _forms1_battery(max_degree: int = 3):
    out = []
    for k in range(max_degree + 1):
        out.append((Poly1.mono(k), Poly1()))
        out.append((Poly1(), Poly1.mono(k)))
    return out


def classical_geometry_checks(model: Model) -> list:
    kind = model.meta.get("kind")
    if kind == "DeRham1":
        return _derham1_checks(model)
    if kind == "DeRham2Conn":
        return _derham2_checks(model)
    raise ValueError("geometry checks apply to the differential-form models")


def _derham1_checks(model: Model) -> list:
    checks = []
    battery = _forms1_battery(model.max_degree)
    field_polys = [Poly1.const(1), Poly1.mono(1), Poly1.mono(2)]

    # Cartan formula, with the Lie derivative given by the coefficient oracle
    ok, cases = True, 0
    for p in field_polys:
        for u in battery:
            cases += 1
            lhs = w1_add(w1_d(w1_iota(p, u)), w1_iota(p, w1_d(u)))
            if lhs != w1_lie_oracle(p, u):
                ok = False
    checks.append(check("cartan", ok, cases=cases))

    # contraction squares to zero
    ok, cases = True, 0
    for p in field_polys:
        for u in battery:
            cases += 1
            if w1_iota(p, w1_iota(p, u)) != w1_zero():
                ok = False
    checks.append(check("iota-squared", ok, cases=cases))

    # Koszul antisymmetry of the wedge on odd symbol pairs
    odd = [s for s in model.symbols(("algebra",)) if s.parity == 1]
    ok, cases = True, 0
    for a in odd:
        for b in odd:
            cases += 1
            if model.mul(a, b) != -1 * model.mul(b, a):
                ok = False
    checks.append(check("koszul-odd-pairs", ok, cases=cases))

    # symbol-table brackets match operator commutators on the form battery
    ok, cases, skipped = True, 0, 0
    ops = model.symbols(("lie",))
    for s in ops:
        for t in ops:
            try:
                table = model.bracket(s, t)
            except ModelDegreeError:
                skipped += 1
                continue
            for u in battery:
                cases += 1
                lhs = _apply_elem1(model, table, u)
                rhs = w1_add(
                    _apply_sym1(model, s, _apply_sym1(model, t, u)),
                    w1_scale(
                        -minus_one_pow(s.parity * t.parity),
                        _apply_sym1(model, t, _apply_sym1(model, s, u)),
                    ),
                )
                if lhs != rhs:
                    ok = False
    checks.append(
        check("bracket-table-vs-operators", ok, cases=cases, skipped=skipped)
    )
    return checks


def _apply_sym1(model, sym, u):
    # the operator value of a lie symbol, applied to a 1-D form value
    op = sym.name[-2:]
    w_name = sym.name[:-2]
    w = _form1_val(w_name)
    if op == "iX":
        acted = w1_iota(Poly1.const(1), u)
    elif op == "lX":
        acted = w1_lie(Poly1.const(1), u)
    else:
        acted = w1_d(u)
    return w1_wedge(w, acted)


def _apply_elem1(model, elem: Element, u):
    out = w1_zero()
    for t, c in elem.terms.items():
        sym = t.symbol
        if sym.kind == "lie":
            out = w1_add(out, w1_scale(c, _apply_sym1(model, sym, u)))
        else:
            out = w1_add(out, w1_scale(c, w1_wedge(_form1_val(sym.name), u)))
    return out


def _derham2_checks(model: Model) -> list:
    checks = []
    a1, a2 = model.meta["connection"]
    a_form = (Poly2(), a1, a2, Poly2())
    battery = _sections_battery(min(model.max_degree, 2))
    nab = op_nabla(a_form)
    d_op = op_d2()
    euler = op_euler()
    f1 = (Poly2.const(1), Poly2())
    f2 = (Poly2(), Poly2.const(1))

    # curvature: nabla^2 = (1/2)[nabla, nabla], and nabla^2 = k F wedge -
    # with F from the formal-partials oracle
    f_oracle = curvature_oracle(a1, a2)
    ok_engine = model.meta["curvature"] == f_oracle
    ok, cases = True, 0
    half_sq = nab.commutator(nab)
    for s in battery:
        cases += 1
        two_sq = sec_scale(2, nab(nab(s)))
        if not sec_eq(half_sq(s), two_sq):
            ok = False
        expect = {k: w2_scale(k, w2_wedge(f_oracle, v)) for k, v in s.items()}
        if not sec_eq(nab(nab(s)), sec_clean(expect)):
            ok = False
    checks.append(
        check(
            "curvature", ok and ok_engine, cases=cases, oracle_matches_engine=ok_engine
        )
    )

    # the twisted-derivative formula: which variant equals [nabla, iota_X]
    variant_results = {}
    for variant in ("literal", "contracted"):
        all_ok = True
        for fld in (f1, f2, (Poly2.mono(0, 1), Poly2()), (Poly2(), Poly2.mono(1, 0))):
            ring = nab.commutator(op_iota2(fld))
            for s in battery:
                lie_part = {k: w2_lie(fld, v) for k, v in s.items()}
                if variant == "literal":
                    extra = {k: w2_scale(k, w2_wedge(v, a_form)) for k, v in s.items()}
                else:
                    ia = w2_iota(fld, a_form)
                    extra = {k: w2_scale(k, w2_wedge(ia, v)) for k, v in s.items()}
                if not sec_eq(ring(s), sec_add(sec_clean(lie_part), sec_clean(extra))):
                    all_ok = False
                    break
            if not all_ok:
                break
        variant_results[variant] = all_ok
    checks.append(
        check(
            "twisted-derivative-variants",
            any(variant_results.values()),
            holds=variant_results,
        )
    )

    # [twisted_X, iota_Y] = iota_[X,Y] with the vector-field oracle
    test_fields = [
        f1,
        f2,
        (Poly2.mono(0, 1), Poly2()),
        (Poly2(), Poly2.mono(1, 0)),
        (Poly2.mono(1, 0), Poly2.mono(0, 1)),
    ]
    ok, cases = True, 0
    for x_fld in test_fields:
        ring_x = nab.commutator(op_iota2(x_fld))
        for y_fld in test_fields:
            expect = op_iota2(field_bracket(x_fld, y_fld))
            got = ring_x.commutator(op_iota2(y_fld))
            for s in battery:
                cases += 1
                if not sec_eq(got(s), expect(s)):
                    ok = False
    checks.append(check("twisted-contraction-bracket", ok, cases=cases))

    # symbol-table brackets match operator commutators on sections
    ok, cases, skipped = True, 0, 0
    pure = [model.alphabet.symbol(n) for n in OPS2]
    euler_mults = [
        s for s in model.symbols(("lie",)) if s.name not in OPS2
    ]
    pairs = [(s, t) for s in pure for t in pure]
    pairs += [(s, t) for s in pure for t in euler_mults[:: max(1, len(euler_mults) // 8)]]
    for s, t in pairs:
        try:
            table = model.bracket(s, t)
        except ModelDegreeError:
            skipped += 1
            continue
        s_op = _op_value2(model, s)
        t_op = _op_value2(model, t)
        comm = s_op.commutator(t_op)
        for sec in battery[:: max(1, len(battery) // 24)]:
            cases += 1
            if not sec_eq(comm(sec), _apply_elem2(model, table, sec)):
                ok = False
    checks.append(
        check("bracket-table-vs-operators", ok, cases=cases, skipped=skipped)
    )
    return checks


def _op_value2(model, sym) -> Op:
    a1, a2 = model.meta["connection"]
    a_form = (Poly2(), a1, a2, Poly2())
    f1 = (Poly2.const(1), Poly2())
    f2 = (Poly2(), Poly2.const(1))
    table = {
        "iota1": op_iota2(f1, "iota1"),
        "iota2": op_iota2(f2, "iota2"),
        "dd": op_d2(),
        "nabla": op_nabla(a_form),
        "lie1": op_lie2(f1, "lie1"),
        "lie2": op_lie2(f2, "lie2"),
        "ee": op_euler(),
    }
    if sym.name in table:
        return table[sym.name]
    w = _form2_val(sym.name[:-2])
    inner = table["ee"]
    fpar = sym.parity  # euler is even, so the multiple's parity is the form's
    return Op(
        sym.name,
        fpar,
        lambda s: {k: w2_wedge(w, v) for k, v in inner(s).items()},
    )


def _apply_elem2(model, elem: Element, sec):
    out = sec_zero()
    for t, c in elem.terms.items():
        sym = t.symbol
        if sym.kind == "lie":
            out = sec_add(out, sec_scale(c, _op_value2(model, sym)(sec)))
        else:
            w = _form2_val(sym.name)
            out = sec_add(
                out, sec_scale(c, {k: w2_wedge(w, v) for k, v in sec.items()})
            )
    return out
