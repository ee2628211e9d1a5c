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
over Poly1, DeRham2Conn in Forms(2) over Poly2.

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
each maker passes it that model's one-monomial forms and operators.

A section is a pair (k, v), e^k times the form v (k is 0 on the line).
Every operator keeps the e-power, so an Op's closure maps (k, v) to the
image's form; forms store no zero slot, so sections compare with ==.  The
geometry checks confirm the tables against operator commutators on section
batteries, with independent oracles for the Lie derivative, the curvature
two-form and the vector-field bracket.  Both models take one path:
_operators gives every operator symbol its Op, and one bracket-table
check compares each table bracket with the commutator of those Ops.
Every enumerated check is one models.base.case_check call: it stops at
its first failing case and names it as the record's witness.

Memo.  A basic operator or a form-multiple computes its image of a
section once per check.  Op.image(k, v) reads the Op's memo, keyed by the
section's content as one flat tuple (k, then each slot's mask and its
polynomial's (monomial, coefficient) pairs), never by object identity;
commutators, form-multiples and _apply_elem read their operands through
it.  Calling an Op, as a check's top-level probe does, computes without
storing.  Test-field contractions keep no memo: they mostly meet derived
forms once.  The lifetime is one check: Ops are built inside each
classical_geometry_checks call, form-multiples inside the bracket-table
check, and _derham2_checks empties every other memo when a check ends
([nabla, iota_X]'s also once X is done).  Every Op is linear, so image
hands the zero form back as it is, before it builds a key or calls the
operator.
"""

from fractions import Fraction
from itertools import product

from ..parsing import expect
from ..terms import Alphabet, Element, Symbol, minus_one_pow
from .base import Model, ModelDegreeError, case_check, check, degree_cap
from .polys import Poly1, Poly2, parse_poly

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
    A form is never mutated once returned, so results may share operands.
    add and scale do not read n, so they serve every Forms(n)."""

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

    @staticmethod
    def add(u, v):
        if not u:
            return v
        out = dict(u)
        for mask, p in v.items():
            _put(out, mask, p)
        return out

    @staticmethod
    def scale(c, u):
        if not c:
            return {}
        if c == 1:
            return u
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


# operators on sections ------------------------------------------------------------


def _content(k, v) -> tuple:
    """The memo key of the section (k, v), one flat tuple: its e-power, then
    each slot's mask followed by that polynomial's (monomial, coefficient)
    pairs, so sections built apart share a key.  A mask is an int and a
    pair a 2-tuple, so the key is prefix-free: it splits back into slots."""
    key = [k]
    for mask, p in v.items():
        key.append(mask)
        key += p.c.items()
    return tuple(key)


class Op:
    """An operator on sections (k, v) with a parity: fn(k, v) is the form of
    the image, whose e-power is k again, and is linear in v.  Calling an
    Op computes the image afresh; image(k, v) hands the zero form v back
    without calling fn, and reads any other image through the Op's memo,
    keyed by _content(k, v), unless the Op was built with memo=False."""

    def __init__(self, name, parity, fn, memo=True):
        self.name, self.parity, self.fn = name, parity, fn
        self.memo = {} if memo else None

    def __call__(self, k, v):
        return self.fn(k, v)

    def image(self, k, v):
        if not v:
            return v
        if self.memo is None:
            return self.fn(k, v)
        key = _content(k, v)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self.fn(k, v)
        return out

    def commutator(self, other) -> "Op":
        sign = -minus_one_pow(self.parity * other.parity)
        f, g = self.image, other.image

        def fn(k, v):
            return Forms.add(f(k, g(k, v)), Forms.scale(sign, g(k, f(k, v))))

        return Op(f"[{self.name},{other.name}]", (self.parity + other.parity) % 2, fn)


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
    decoding table and meta["algebra"] is algebra."""
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
        meta={**meta, "forms": table, "algebra": algebra},
    )


def make_derham1(max_degree: int = 3) -> Model:
    """Forms f + g db with polynomial coefficients up to the degree cap, and
    the operator family of one vector field: contraction iX, Lie derivative
    lX, exterior derivative dd, with all form-multiples."""
    max_degree = degree_cap(max_degree)
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
        {"kind": "DeRham1"},
        act_form=act_form, pure_bracket=pure_bracket,
    )


# 2-D connection model -----------------------------------------------------------

_SUFFIXES = ("", "w1", "w2", "w12")  # indexed by bitmask
_FIELDS2 = {"1": (Poly2.const(1), Poly2()), "2": (Poly2(), Poly2.const(1))}


def _one_form(a1: Poly2, a2: Poly2):
    """The Forms(2) value a1 db1 + a2 db2."""
    return {mask: p for mask, p in ((1, a1), (2, a2)) if p.c}


def make_derham2(
    connection=("b2", "0"), max_degree: int = 2, name: str = "derham2"
) -> Model:
    """Two coordinates, rank-one sections e^k, connection one-form
    A = a1 db1 + a2 db2, with connection = (a1, a2) as polynomial text in
    b1 and b2.  Operator symbols: the seven basic operators and all
    form-multiples of the euler counter (the bracket closure)."""
    expect(type(name) is str, "name", "a name", name)
    max_degree = degree_cap(max_degree)
    expect(type(connection) in (list, tuple) and len(connection) == 2
           and all(type(text) is str for text in connection),
           "connection", "[a1, a2] as polynomial text", connection)
    coefficients = []
    for i, text in enumerate(connection):
        try:
            coefficients.append(parse_poly(text, ("b1", "b2")))
        except ValueError as exc:
            raise ValueError(f"connection[{i}]: {exc}") from None
    a1, a2 = coefficients
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
        "connection": (a1, a2),
        "curvature": f_form,
    }
    return _form_model(
        name, F2, forms, OPS2, ("ee",), max_degree, meta,
        act_form=act_form, pure_bracket=pure_bracket,
    )


# geometry checks -----------------------------------------------------------------


def classical_geometry_checks(model: Model) -> list:
    kind = model.meta.get("kind")
    if kind == "DeRham1":
        return _derham1_checks(model)
    if kind == "DeRham2Conn":
        return _derham2_checks(model)
    raise ValueError("geometry checks apply to the differential-form models")


def _case_text(model: Model, k, v, **fields) -> str:
    """A case's vector fields and its section (k, v), the form named from
    the model's form table."""
    form = next((n for n, w in model.meta["forms"].items() if n and w == v), repr(v))
    section = f"e^{k} {form}" if k else form
    named = ", ".join(f"{n} = ({', '.join(map(repr, x))})" for n, x in fields.items())
    return f"{named} on {section}" if named else section


def _operators(model: Model, basic: dict) -> dict:
    """The Op of every operator symbol of a form model: basic[P] for a
    basic operator P, and w ^ P for "<form><P>" (every basic operator id
    has two letters).  Form symbols get none: the bracket of two operator
    symbols is a sum of operator symbols.  A form-multiple reads P through
    P's memo and keeps its own, so its wedge runs once per section; the
    Ops are built per call, so their memos end with the check that made
    them."""
    forms, wedge = model.meta["forms"], model.meta["algebra"].wedge
    ops = dict(basic)
    for sym in model.symbols(("lie",)):
        if sym.name not in ops:
            w, p = forms[sym.name[:-2]], basic[sym.name[-2:]].image
            ops[sym.name] = Op(sym.name, sym.parity,
                               lambda k, v, w=w, p=p: wedge(w, p(k, v)))
    return ops


def _apply_elem(ops: dict, elem: Element, k, v):
    """A leaf combination of symbols, as operators, on the section (k, v)."""
    out = {}
    for t, c in elem.terms.items():
        out = Forms.add(out, Forms.scale(c, ops[t.name].image(k, v)))
    return out


def _bracket_table_check(model: Model, basic: dict, pairs, battery) -> dict:
    """Symbol-table brackets match operator commutators on the battery, one
    symbol pair a case.  A pair whose bracket leaves the degree cap is
    skipped; a failing pair names the first section where the two differ."""
    ops = _operators(model, basic)

    def probe(pair):
        s, t = pair
        table = model.bracket(s, t)
        comm = ops[s.name].commutator(ops[t.name])
        return next((f"{comm.name} on {_case_text(model, k, v)}" for k, v in battery
                     if comm(k, v) != _apply_elem(ops, table, k, v)), None)

    return case_check("bracket-table-vs-operators", pairs, probe)


def _koszul_check(model: Model) -> dict:
    """Koszul antisymmetry of the wedge on odd form-symbol pairs; a pair
    whose product leaves the degree cap is skipped."""
    odd = [s for s in model.symbols(("algebra",)) if s.parity == 1]
    return case_check(
        "koszul-odd-pairs", product(odd, odd),
        lambda pair: None if model.mul(*pair) == -1 * model.mul(*pair[::-1])
        else ", ".join(s.name for s in pair),
    )


def _derham1_checks(model: Model) -> list:
    battery = [(0, {mask: Poly1.mono(k)})
               for k in range(model.max_degree + 1) for mask in (0, 1)]
    fields = [(Poly1.const(1),), (Poly1.mono(1),), (Poly1.mono(2),)]
    field_cases = [(x, k, v) for x in fields for k, v in battery]
    one = fields[0]
    basic = {"iX": Op("iX", 1, lambda k, v: F1.iota(one, v)),
             "lX": Op("lX", 0, lambda k, v: F1.lie(one, v)),
             "dd": Op("dd", 1, lambda k, v: F1.d(v))}
    lie = model.symbols(("lie",))

    def cartan(case):
        # Cartan formula, with the Lie derivative given by the coefficient oracle
        x, k, v = case
        holds = F1.lie(x, v) == w1_lie_oracle(x[0], v)
        return None if holds else _case_text(model, k, v, X=x)

    def iota_squared(case):
        x, k, v = case
        holds = not F1.iota(x, F1.iota(x, v))
        return None if holds else _case_text(model, k, v, X=x)

    return [
        case_check("cartan", field_cases, cartan),
        case_check("iota-squared", field_cases, iota_squared),
        _koszul_check(model),
        _bracket_table_check(model, basic, product(lie, lie), battery),
    ]


def _derham2_checks(model: Model) -> list:
    a1, a2 = model.meta["connection"]
    a_form = _one_form(a1, a2)
    top = min(model.max_degree, 2)
    battery = [(k, {mask: Poly2.mono(i, j)}) for i in range(top + 1)
               for j in range(top + 1 - i) for mask in range(4) for k in (0, 1, 2)]

    def iota(x):
        # a test field's contraction mostly meets derived forms that are
        # not asked for again, so it keeps no memo
        return Op("iota", 1, lambda k, v: F2.iota(x, v), memo=False)

    nabla = Op("nabla", 1, lambda k, v: F2.add(F2.d(v), F2.scale(k, F2.wedge(a_form, v))))
    basic = {"dd": Op("dd", 1, lambda k, v: F2.d(v)), "nabla": nabla,
             "ee": Op("ee", 0, lambda k, v: F2.scale(k, v))}
    for i, x in _FIELDS2.items():
        basic["iota" + i] = Op("iota" + i, 1, lambda k, v, x=x: F2.iota(x, v))
        basic["lie" + i] = Op("lie" + i, 0, lambda k, v, x=x: F2.lie(x, v))

    # curvature: nabla^2 = (1/2)[nabla, nabla], and nabla^2 = k F ^ for F
    # from the formal-partials oracle and for the engine's F
    f_oracle, f_engine = curvature_oracle(a1, a2), model.meta["curvature"]
    square = nabla.commutator(nabla)

    def curvature(case):
        k, v = case
        sq = nabla.image(k, nabla.image(k, v))
        holds = square(k, v) == F2.scale(2, sq) and all(
            sq == F2.scale(k, F2.wedge(f, v)) for f in (f_oracle, f_engine))
        return None if holds else _case_text(model, k, v)

    # [nabla, iota_X] for each test field, built once
    fields = [*_FIELDS2.values(), (Poly2.mono(0, 1), Poly2()),
              (Poly2(), Poly2.mono(1, 0)), (Poly2.mono(1, 0), Poly2.mono(0, 1))]
    iotas = [iota(x) for x in fields]
    twisted = [(x, nabla.commutator(i)) for x, i in zip(fields, iotas)]

    # the twisted-derivative formula: which variant equals [nabla, iota_X]
    # on the first four fields
    formulas = {
        "literal": lambda x, v: F2.wedge(v, a_form),
        "contracted": lambda x, v: F2.wedge(F2.iota(x, a_form), v),
    }

    def twisted_derivative(case):
        extra, x, ring, k, v = case
        holds = ring(k, v) == F2.add(F2.lie(x, v), F2.scale(k, extra(x, v)))
        return None if holds else _case_text(model, k, v, X=x)

    def variants():
        recs = [case_check(
            variant,
            ((extra, x, ring, k, v) for x, ring in twisted[:4] for k, v in battery),
            twisted_derivative,
        ) for variant, extra in formulas.items()]
        holds = {r["id"]: r["status"] == "pass" for r in recs}
        some = any(holds.values())
        witness = None if some else "; ".join(f"{r['id']}: {r['witness']}" for r in recs)
        return check("twisted-derivative-variants", some, holds=holds, witness=witness)

    # [twisted_X, iota_Y] = iota_[X,Y] with the vector-field oracle
    def brackets():
        # X outermost: twisted_X's memo serves only X's block, so it is
        # emptied when the block ends
        for x, ring in twisted:
            for y, i in zip(fields, iotas):
                got, want = ring.commutator(i), iota(field_bracket(x, y))
                yield from ((x, y, got, want, k, v) for k, v in battery)
            ring.memo.clear()

    def contraction(case):
        x, y, got, want, k, v = case
        return None if got(k, v) == want(k, v) else _case_text(model, k, v, X=x, Y=y)

    # symbol-table brackets: every pair of basic operators, and each basic
    # operator against a sample of the euler multiples, on about 24 sections
    pure = [model.alphabet.symbol(n) for n in OPS2]
    euler_mults = [s for s in model.symbols(("lie",)) if s.name not in OPS2]
    euler_mults = euler_mults[:: max(1, len(euler_mults) // 8)]
    pairs = [*product(pure, pure), *product(pure, euler_mults)]
    checks = [
        lambda: _koszul_check(model),
        lambda: case_check("curvature", battery, curvature,
                           oracle_matches_engine=f_engine == f_oracle),
        variants,
        lambda: case_check("twisted-contraction-bracket", brackets(), contraction),
        lambda: _bracket_table_check(
            model, basic, pairs, battery[:: max(1, len(battery) // 24)]),
    ]
    # every memo is emptied when its check ends, so none outlives it
    memoised = [*basic.values(), *(ring for _, ring in twisted)]
    records = []
    for run in checks:
        records.append(run())
        for op in memoised:
            op.memo.clear()
    return records
