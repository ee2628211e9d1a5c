"""Differential-form models: forms on a line, and a rank-one twisted module
over two coordinates with a polynomial connection.

The value level is exact and has one exterior algebra, Forms(n), over the
coordinates b_1..b_n.  A form is a dict from basis bitmask to nonzero
polynomial: bit i stands for db_{i+1}, mask 0b11 is db1 ^ db2, and {} is the
zero form.  A basis element is the wedge of its differentials in increasing
order, so every sign is a bit count: db_i ^ e_a, and db_i contracted out of
e_a, carry one -1 per bit of a below i; e_a ^ e_b carries one -1 per pair
i in a, j in b with i > j.  Forms(n) tabulates these signs when it is
built, and writes add, scale, wedge, d, iota and lie once for every n.  A
vector field is a tuple of n polynomials.  DeRham1 computes in Forms(1)
over Poly1, DeRham2Conn in Forms(2) over Poly2; operators on sections are
closures on those values.

The symbol level re-expresses values in a finite alphabet (form monomials
and form-multiples of the basic operators) so the generic Model machinery
applies; values outside the alphabet raise the degree-cap error.
Symbol-table brackets are built from one structural rule

    [w P, e Q] = w ^ P(e) . Q - (-1)^{(|w|+|P|)(|e|+|Q|)} e ^ Q(w) . P
                 + (-1)^{|P||e|} (w ^ e) . [P, Q]

valid because every basic operator satisfies the graded Leibniz rule over
wedge with a form-level symbol (contraction, exterior derivative, Lie
derivative; the connection with symbol d; the euler counter with symbol 0).
The rule, the form table and the encoders are written once in _form_model;
each maker passes it that model's one-monomial forms and operators.  The
geometry checks then confirm the tables against honest operator
commutators on section batteries, with independent oracles for the Lie
derivative, the curvature two-form, and the vector-field bracket.
"""

from fractions import Fraction

from ..terms import Alphabet, Element, Symbol, minus_one_pow
from .base import Model, ModelDegreeError, check
from .polys import Poly1, Poly2

Q = Fraction


def _put(form: dict, mask: int, p) -> None:
    """form[mask] += p for a nonzero p; a slot that cancels is deleted."""
    old = form.get(mask)
    if old is not None:
        p = old + p
        if not p.c:
            del form[mask]
            return
    form[mask] = p


class Forms:
    """The exterior algebra over n coordinates of the module docstring.
    A form is never mutated once returned, so results may share operands."""

    def __init__(self, n: int):
        masks = range(1 << n)
        bits = [[i for i in range(n) if a >> i & 1] for a in masks]

        def below(i, a):
            return (a & ((1 << i) - 1)).bit_count()

        # the steps of d and iota on e_a: (coordinate, result mask, sign)
        self._d_steps = [
            [(i, a | 1 << i, minus_one_pow(below(i, a))) for i in range(n)
             if i not in bits[a]]
            for a in masks
        ]
        self._iota_steps = [
            [(i, a ^ 1 << i, minus_one_pow(below(i, a))) for i in bits[a]]
            for a in masks
        ]
        # the sign of e_a ^ e_b, 0 when they share a differential
        self._wedge_sign = [
            [0 if a & b else minus_one_pow(sum(below(i, b) for i in bits[a]))
             for b in masks]
            for a in masks
        ]

    def add(self, u, v):
        if not u:
            return v
        out = dict(u)
        for mask, p in v.items():
            _put(out, mask, p)
        return out

    def scale(self, c, u):
        if not c:
            return {}
        return {mask: p * c for mask, p in u.items()}

    def wedge(self, u, v):
        out = {}
        for a, p in u.items():
            signs = self._wedge_sign[a]
            for b, q in v.items():
                if signs[b]:
                    pq = p * q
                    _put(out, a | b, pq if signs[b] > 0 else -pq)
        return out

    def d(self, u):
        out = {}
        for a, p in u.items():
            for i, b, sign in self._d_steps[a]:
                dp = p.diff(i)
                if dp.c:
                    _put(out, b, dp if sign > 0 else -dp)
        return out

    def iota(self, field, u):
        """Contraction with the vector field sum_i field[i] d/db_{i+1}."""
        out = {}
        for a, p in u.items():
            for i, b, sign in self._iota_steps[a]:
                if field[i].c:
                    fp = field[i] * p
                    _put(out, b, fp if sign > 0 else -fp)
        return out

    def lie(self, field, u):
        """Cartan's formula: L_X = d iota_X + iota_X d."""
        return self.add(self.d(self.iota(field, u)), self.iota(field, self.d(u)))


F1 = Forms(1)
F2 = Forms(2)


# independent oracles, on raw polynomial partials -------------------------------


def w1_lie_oracle(p: Poly1, u):
    # coefficient differentiation: L_{p d/db}(f + g db) = p f' + (p g' + p' g) db
    f, g = u.get(0, Poly1()), u.get(1, Poly1())
    out = {0: p * f.diff(), 1: p * g.diff() + p.diff() * g}
    return {mask: c for mask, c in out.items() if c.c}


def field_bracket(x, y):
    # [X, Y]^i = X(Y^i) - Y(X^i), exact polynomial arithmetic
    def apply(f, g):
        return f[0] * g.diff(0) + f[1] * g.diff(1)

    return (apply(x, y[0]) - apply(y, x[0]), apply(x, y[1]) - apply(y, x[1]))


def curvature_oracle(a1: Poly2, a2: Poly2):
    # F = dA by formal partials, independent of the form engine
    f12 = a2.diff(0) - a1.diff(1)
    return {0b11: f12} if f12.c else {}


# sections: dict e-power -> Forms(2) value ---------------------------------------
#
# Only Op.__call__ and sec_eq drop zero forms; sec_add and sec_scale may
# leave them in.


def sec_clean(s):
    return {k: v for k, v in s.items() if v}


def sec_add(s, t):
    out = dict(s)
    for k, v in t.items():
        out[k] = F2.add(out[k], v) if k in out else v
    return out


def sec_scale(c, s):
    return {k: F2.scale(c, v) for k, v in s.items()}


def sec_eq(s, t):
    return sec_clean(s) == sec_clean(t)


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
    return op_componentwise("d", 1, F2.d)


def op_iota2(field, name="iota"):
    return op_componentwise(name, 1, lambda v: F2.iota(field, v))


def op_lie2(field, name="lie"):
    return op_componentwise(name, 0, lambda v: F2.lie(field, v))


def op_euler():
    return Op("E", 0, lambda s: {k: F2.scale(k, v) for k, v in s.items()})


def op_nabla(a_form):
    def fn(s):
        return {
            k: F2.add(F2.d(v), F2.scale(k, F2.wedge(a_form, v))) for k, v in s.items()
        }

    return Op("nabla", 1, fn)


# the form table and the bracket rule ---------------------------------------------

# basic operator ids and their parities
OPS1 = {"iX": 1, "lX": 0, "dd": 1}
OPS2 = {"iota1": 1, "iota2": 1, "dd": 1, "nabla": 1, "lie1": 0, "lie2": 0, "ee": 0}


def _form_parity(form) -> int:
    (mask,) = form
    return mask.bit_count() % 2


def _form_model(
    name, algebra, forms, ops, multiples, max_degree, meta, *, act_form, pure_bracket
) -> Model:
    """The structural bracket rule of the module docstring, written once,
    over the form table.

    forms maps each form name to its one-monomial form, in alphabet order;
    "" names the unit form, and the alphabet's unit name decodes to it too.
    ops maps each basic operator id to its parity.  The alphabet holds the
    non-unit form names, then each basic operator under its own id, then
    "<form><op>" for every non-unit form and every op in multiples.  The
    index (bitmask, monomial) -> form name re-expresses values: a monomial
    outside the table, or a "<form><op>" name outside the alphabet, raises
    the degree-cap error.  act_form(P, v) applies basic operator P's
    form-level symbol to a form, and pure_bracket(P, Q) lists [P, Q] as
    (form, op) summands or gives None.  The model's meta["forms"] is the
    decoding table."""
    al = Alphabet()
    for fname, form in forms.items():
        if fname:
            al.add(Symbol(fname, _form_parity(form), Q(0), "algebra"))
    split = {}  # operator symbol -> (its form, its basic operator id)
    for fname, form in forms.items():
        for op in multiples if fname else ops:
            split[fname + op] = (form, op)
            parity = (_form_parity(form) + ops[op]) % 2
            al.add(Symbol(fname + op, parity, Q(0), "lie"))
    index = {
        (mask, mono): fname
        for fname, form in forms.items()
        for mask, p in form.items()
        for mono in p.c
    }
    table = {**forms, al.unit.name: forms[""]}
    elems = {s: Element.sym(al, s) for s in al.names()}
    elems[""] = elems[al.unit.name]
    wedge, scale = algebra.wedge, algebra.scale

    def op_to_elem(pairs) -> Element:
        # the sum of form ^ op over (form, op id) pairs; op "" is the form itself
        acc = {}
        for v, op in pairs:
            for mask, p in v.items():
                for mono, c in p.c.items():
                    fname = index.get((mask, mono))
                    if fname is None:
                        degree = sum(mono) if isinstance(mono, tuple) else mono
                        raise ModelDegreeError(
                            f"degree {degree} exceeds cap {max_degree}"
                        )
                    elem = elems.get(fname + op)
                    if elem is None:
                        raise ModelDegreeError(
                            f"form-multiple of {op} is outside the operator alphabet"
                        )
                    elem._add_into(acc, c)
        return Element._trusted(al, acc)

    def form_to_elem(v) -> Element:
        return op_to_elem([(v, "")])

    def bracket(s, t):
        s_op, t_op = s.kind == "lie", t.kind == "lie"
        if not s_op and not t_op:
            return Element.zero(al)
        if s_op and not t_op:
            w, p = split[s.name]
            return form_to_elem(wedge(w, act_form(p, table[t.name])))
        koszul = minus_one_pow(s.parity * t.parity)
        if t_op and not s_op:
            return (-koszul) * bracket(t, s)
        w, p = split[s.name]
        e, q = split[t.name]
        e_par = (t.parity - ops[q]) % 2
        pairs = [
            (wedge(w, act_form(p, e)), q),
            (scale(-koszul, wedge(e, act_form(q, w))), p),
        ]
        sign = minus_one_pow(ops[p] * e_par)
        for pq_form, pq_op in pure_bracket(p, q) or ():
            pairs.append((scale(sign, wedge(wedge(w, e), pq_form)), pq_op))
        return op_to_elem(pairs)

    def product(a, b):
        return form_to_elem(wedge(table[a.name], table[b.name]))

    def action(a, g):
        w, p = split[g.name]
        return op_to_elem([(wedge(table[a.name], w), p)])

    return Model(
        name,
        al,
        bracket,
        product,
        action,
        max_degree=max_degree,
        commutative=None,
        meta={**meta, "forms": table},
    )


def make_derham1(max_degree: int = 3) -> Model:
    """Forms f + g db with polynomial coefficients up to the degree cap, and
    the operator family of one vector field: contraction iX, Lie derivative
    lX, exterior derivative dd, with all form-multiples."""
    forms = {}
    for k in range(max_degree + 1):
        mono = "" if k == 0 else ("b" if k == 1 else f"b{k}")
        forms[mono] = {0: Poly1.mono(k)}
        forms[mono + "db"] = {1: Poly1.mono(k)}
    one = (Poly1.const(1),)

    def act_form(op: str, v):
        if op == "iX":
            return F1.iota(one, v)
        if op == "lX":
            return F1.lie(one, v)
        return F1.d(v)

    # pure-operator super-brackets: only [dd, iX] = [iX, dd] = lX survives
    def pure_bracket(p: str, q: str):
        if {p, q} == {"dd", "iX"}:
            return [(forms[""], "lX")]
        return None

    return _form_model(
        "derham1", F1, forms, OPS1, OPS1, max_degree,
        {"kind": "DeRham1", "locality": 2},
        act_form=act_form, pure_bracket=pure_bracket,
    )


# 2-D connection model -----------------------------------------------------------

_SUFFIXES = ("", "w1", "w2", "w12")  # indexed by bitmask
_FIELDS2 = {"1": (Poly2.const(1), Poly2()), "2": (Poly2(), Poly2.const(1))}


def _one_form(a1: Poly2, a2: Poly2):
    """The Forms(2) value a1 db1 + a2 db2."""
    return {mask: p for mask, p in ((1, a1), (2, a2)) if p.c}


def make_derham2(
    a1: Poly2, a2: Poly2, max_degree: int = 2, name: str = "derham2"
) -> Model:
    """Two coordinates, rank-one sections e^k, connection one-form
    A = a1 db1 + a2 db2.  Operator symbols: the seven basic operators and
    all form-multiples of the euler counter (the bracket closure)."""
    if max(a1.total_degree(), a2.total_degree(), 1) > max_degree:
        raise ValueError("connection coefficients exceed the degree cap")
    forms = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            for mask, sfx in enumerate(_SUFFIXES):
                fname = "" if i == j == mask == 0 else f"m{i}{j}{sfx}"
                forms[fname] = {mask: Poly2.mono(i, j)}
    a_form = _one_form(a1, a2)
    f_form = F2.d(a_form)  # engine curvature; oracle checked in the suite

    def act_form(op: str, v):
        if op in ("dd", "nabla"):
            # the connection acts on forms through its exterior-derivative symbol
            return F2.d(v)
        if op == "ee":
            return {}  # euler kills pure forms
        act = F2.iota if op.startswith("iota") else F2.lie
        return act(_FIELDS2[op[-1]], v)

    one = forms[""]

    def pure_bracket(p: str, q: str):
        # [p, q] for the ORDERED pair, as a list of (form, op) summands.
        # All cases except nabla/lie pair super-symmetrically, so unordered
        # lookup covers them; [lie_i, nabla] = (lie_i A) ee is antisymmetric.
        key = frozenset((p, q))
        if key == {"nabla"}:
            return [(F2.scale(2, f_form), "ee")]
        if key == {"dd", "nabla"}:
            return [(f_form, "ee")]
        for i, fld in _FIELDS2.items():
            if key == {"dd", "iota" + i}:
                return [(one, "lie" + i)]
            if key == {"nabla", "iota" + i}:
                return [(one, "lie" + i), (F2.iota(fld, a_form), "ee")]
            if key == {"nabla", "lie" + i}:
                la = F2.lie(fld, a_form)
                return [(F2.scale(-1 if p == "nabla" else 1, la), "ee")]
        return None

    meta = {
        "kind": "DeRham2Conn",
        "locality": 2,
        "connection": (a1, a2),
        "curvature": f_form,
    }
    return _form_model(
        name, F2, forms, OPS2, ("ee",), max_degree, meta,
        act_form=act_form, pure_bracket=pure_bracket,
    )


# geometry checks -----------------------------------------------------------------


def _sections_battery(max_degree: int = 2):
    return [
        {k: {mask: Poly2.mono(i, j)}}
        for i in range(max_degree + 1)
        for j in range(max_degree + 1 - i)
        for mask in range(4)
        for k in (0, 1, 2)
    ]


def classical_geometry_checks(model: Model) -> list:
    kind = model.meta.get("kind")
    if kind == "DeRham1":
        return _derham1_checks(model)
    if kind == "DeRham2Conn":
        return _derham2_checks(model)
    raise ValueError("geometry checks apply to the differential-form models")


def _derham1_checks(model: Model) -> list:
    checks = []
    forms = model.meta["forms"]
    battery = [
        {mask: Poly1.mono(k)} for k in range(model.max_degree + 1) for mask in (0, 1)
    ]
    fields = [(Poly1.const(1),), (Poly1.mono(1),), (Poly1.mono(2),)]

    # Cartan formula, with the Lie derivative given by the coefficient oracle
    ok, cases = True, 0
    for x in fields:
        for u in battery:
            cases += 1
            if F1.lie(x, u) != w1_lie_oracle(x[0], u):
                ok = False
    checks.append(check("cartan", ok, cases=cases))

    # contraction squares to zero
    ok, cases = True, 0
    for x in fields:
        for u in battery:
            cases += 1
            if F1.iota(x, F1.iota(x, u)):
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
                lhs = _apply_elem1(forms, table, u)
                rhs = F1.add(
                    _apply_sym1(forms, s, _apply_sym1(forms, t, u)),
                    F1.scale(
                        -minus_one_pow(s.parity * t.parity),
                        _apply_sym1(forms, t, _apply_sym1(forms, s, u)),
                    ),
                )
                if lhs != rhs:
                    ok = False
    checks.append(
        check("bracket-table-vs-operators", ok, cases=cases, skipped=skipped)
    )
    return checks


def _apply_sym1(forms, sym, u):
    # the operator value of a lie symbol, applied to a Forms(1) value
    op = sym.name[-2:]
    one = (Poly1.const(1),)
    if op == "iX":
        acted = F1.iota(one, u)
    elif op == "lX":
        acted = F1.lie(one, u)
    else:
        acted = F1.d(u)
    return F1.wedge(forms[sym.name[:-2]], acted)


def _apply_elem1(forms, elem: Element, u):
    out = {}
    for t, c in elem.terms.items():
        sym = t.symbol
        if sym.kind == "lie":
            v = _apply_sym1(forms, sym, u)
        else:
            v = F1.wedge(forms[sym.name], u)
        out = F1.add(out, F1.scale(c, v))
    return out


def _derham2_checks(model: Model) -> list:
    checks = []
    a1, a2 = model.meta["connection"]
    a_form = _one_form(a1, a2)
    battery = _sections_battery(min(model.max_degree, 2))
    nab = op_nabla(a_form)
    f1, f2 = _FIELDS2.values()

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
        expect = {k: F2.scale(k, F2.wedge(f_oracle, v)) for k, v in s.items()}
        if not sec_eq(nab(nab(s)), expect):
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
                lie_part = {k: F2.lie(fld, v) for k, v in s.items()}
                if variant == "literal":
                    extra = {k: F2.scale(k, F2.wedge(v, a_form)) for k, v in s.items()}
                else:
                    ia = F2.iota(fld, a_form)
                    extra = {k: F2.scale(k, F2.wedge(ia, v)) for k, v in s.items()}
                if not sec_eq(ring(s), sec_add(lie_part, extra)):
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
    op_values = _operators2(model, a_form)
    pure = [model.alphabet.symbol(n) for n in OPS2]
    euler_mults = [s for s in model.symbols(("lie",)) if s.name not in OPS2]
    euler_mults = euler_mults[:: max(1, len(euler_mults) // 8)]
    pairs = [(s, t) for s in pure for t in pure]
    pairs += [(s, t) for s in pure for t in euler_mults]
    for s, t in pairs:
        try:
            table = model.bracket(s, t)
        except ModelDegreeError:
            skipped += 1
            continue
        comm = op_values[s.name].commutator(op_values[t.name])
        for sec in battery[:: max(1, len(battery) // 24)]:
            cases += 1
            if not sec_eq(comm(sec), _apply_elem2(model, op_values, table, sec)):
                ok = False
    checks.append(
        check("bracket-table-vs-operators", ok, cases=cases, skipped=skipped)
    )
    return checks


def _operators2(model, a_form) -> dict:
    """The operator value of every lie symbol of a DeRham2Conn model."""
    f1, f2 = _FIELDS2.values()
    out = {
        "iota1": op_iota2(f1, "iota1"),
        "iota2": op_iota2(f2, "iota2"),
        "dd": op_d2(),
        "nabla": op_nabla(a_form),
        "lie1": op_lie2(f1, "lie1"),
        "lie2": op_lie2(f2, "lie2"),
        "ee": op_euler(),
    }
    forms, euler = model.meta["forms"], out["ee"]
    for sym in model.symbols(("lie",)):
        if sym.name not in out:
            # euler is even, so the multiple's parity is the form's
            w = forms[sym.name[:-2]]
            out[sym.name] = Op(
                sym.name,
                sym.parity,
                lambda s, w=w: {k: F2.wedge(w, v) for k, v in euler(s).items()},
            )
    return out


def _apply_elem2(model, op_values, elem: Element, sec):
    out = {}
    for t, c in elem.terms.items():
        sym = t.symbol
        if sym.kind == "lie":
            v = op_values[sym.name](sec)
        else:
            w = model.meta["forms"][sym.name]
            v = {k: F2.wedge(w, f) for k, f in sec.items()}
        out = sec_add(out, sec_scale(c, v))
    return out
