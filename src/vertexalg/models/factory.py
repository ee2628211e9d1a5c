"""Shipped coefficient models and the model-definition file loader.

Kinds: DiffPoly (rational polynomials in one variable, zero bracket),
Weyl1 (polynomial vector fields on the line acting on polynomials),
CurrentLie (finite-dimensional Lie algebra from structure constants,
trivial commutative part), and the differential-form models DeRham1 /
DeRham2Conn built in the geometry module.
"""

import json
from fractions import Fraction

from ..terms import Alphabet, Element, Symbol
from .base import CommutativeSemantics, Model, ModelDegreeError
from .polys import Poly1, Poly2

Q = Fraction


# name conventions for the polynomial families --------------------------------


def pow_name(k: int) -> str:
    if k == 0:
        return "1"
    return "b" if k == 1 else f"b{k}"


def vf_name(k: int) -> str:
    # the vector field b^k del
    if k == 0:
        return "del"
    return "bdel" if k == 1 else f"b{k}del"


def _name_exp(name: str) -> tuple:
    """(exponent, is_vector_field) for the DiffPoly/Weyl1 naming scheme."""
    if name == "1":
        return 0, False
    vf = name.endswith("del")
    core = name[:-3] if vf else name
    if core == "":
        return 0, True
    if core == "b":
        return 1, vf
    return int(core[1:]), vf


# DiffPoly ---------------------------------------------------------------------


def make_diffpoly(max_degree: int = 6) -> Model:
    al = Alphabet()
    for k in range(1, max_degree + 1):
        al.add(Symbol(pow_name(k), 0, Q(0), "algebra"))

    def monomial_elem(k: int, coeff) -> Element:
        if coeff == 0:
            return Element.zero(al)
        if k == 0:
            return Element.unit(al, coeff)
        if k > max_degree:
            raise ModelDegreeError(f"b^{k} exceeds the degree cap {max_degree}")
        return Element.sym(al, pow_name(k), coeff)

    def poly_to_elem(p: Poly1) -> Element:
        out = Element.zero(al)
        for k, c in p.c.items():
            out = out + monomial_elem(k, c)
        return out

    def bracket(s, t):
        return Element.zero(al)

    def product(a, b):
        return monomial_elem(_name_exp(a.name)[0] + _name_exp(b.name)[0], 1)

    def action(a, s):
        raise ValueError("DiffPoly has no Lie symbols")

    comm = CommutativeSemantics(
        zero=Poly1,
        value=lambda s: Poly1.mono(_name_exp(s.name)[0]),
        add=lambda u, v: u + v,
        mul=lambda u, v: u * v,
        diff=lambda u: u.diff(),
        scale=lambda c, u: u * c,
        to_element=poly_to_elem,
    )
    low = [pow_name(k) for k in range(1, max_degree // 2 + 1)]
    return Model(
        "diffpoly",
        al,
        bracket,
        product,
        action,
        max_degree=max_degree,
        commutative=comm,
        meta={"kind": "DiffPoly", "locality": 0, "sample_symbols": low},
    )


# Weyl1 ------------------------------------------------------------------------


def make_weyl1(max_degree: int = 6) -> Model:
    """Polynomials b^k and vector fields b^k del on the line.

    [p del, q del] = (p q' - q p') del, [p del, q] = p q', products cap at
    the configured degree.
    """
    al = Alphabet()
    for k in range(1, max_degree + 1):
        al.add(Symbol(pow_name(k), 0, Q(0), "algebra"))
    for k in range(0, max_degree + 1):
        al.add(Symbol(vf_name(k), 0, Q(0), "lie"))

    def monomial_elem(k: int, coeff, vf: bool) -> Element:
        if coeff == 0:
            return Element.zero(al)
        if k > max_degree:
            raise ModelDegreeError(f"degree {k} exceeds the cap {max_degree}")
        if not vf and k == 0:
            return Element.unit(al, coeff)
        return Element.sym(al, vf_name(k) if vf else pow_name(k), coeff)

    def bracket(s, t):
        i, s_vf = _name_exp(s.name)
        j, t_vf = _name_exp(t.name)
        if s_vf and t_vf:
            # (b^i (b^j)' - b^j (b^i)') del = (j - i) b^{i+j-1} del
            return monomial_elem(i + j - 1, j - i, True)
        if s_vf and not t_vf:
            # p q' with p = b^i, q = b^j
            return monomial_elem(i + j - 1, j, False)
        if t_vf and not s_vf:
            return monomial_elem(i + j - 1, -i, False)
        return Element.zero(al)

    def product(a, b):
        return monomial_elem(_name_exp(a.name)[0] + _name_exp(b.name)[0], 1, False)

    def action(a, s):
        return monomial_elem(_name_exp(a.name)[0] + _name_exp(s.name)[0], 1, True)

    low = [pow_name(k) for k in range(1, max_degree // 2 + 1)] + [
        vf_name(k) for k in range(0, max_degree // 2 + 1)
    ]
    return Model(
        "weyl1",
        al,
        bracket,
        product,
        action,
        max_degree=max_degree,
        commutative=None,
        meta={"kind": "Weyl1", "locality": 2, "sample_symbols": low},
    )


# CurrentLie -------------------------------------------------------------------


def make_currentlie(
    name: str, variables: list, structure_constants: list, locality: int = 1
) -> Model:
    """Lie algebra on the given basis with [e_i, e_j] = sum_k c_ijk e_k.

    Constants are triples-with-coefficient [i, j, k, c] for i < j; the
    antisymmetric closure is taken automatically.  The commutative part is
    spanned by the unit alone.
    """
    al = Alphabet()
    for v in variables:
        al.add(Symbol(v, 0, Q(0), "lie"))
    table = {}
    for i, j, k, c in structure_constants:
        c = Q(c)
        if i == j:
            raise ValueError("structure constants need i != j")
        table.setdefault((variables[i], variables[j]), []).append((variables[k], c))
        table.setdefault((variables[j], variables[i]), []).append((variables[k], -c))

    def bracket(s, t):
        out = Element.zero(al)
        for k_name, c in table.get((s.name, t.name), ()):
            out = out + Element.sym(al, k_name, c)
        return out

    def product(a, b):
        # only the unit lives in the commutative part; Model.mul handles it
        raise ValueError(f"{name} has no commutative symbols beyond the unit")

    def action(a, s):
        raise ValueError(f"{name}: only the unit acts")

    return Model(
        name,
        al,
        bracket,
        product,
        action,
        max_degree=0,
        commutative=None,
        meta={"kind": "CurrentLie", "locality": locality},
    )


# polynomial-string parsing for definition files --------------------------------


def parse_poly(text: str, variables: tuple):
    """Parse 'b1*b2 + 3/2*b1^2 - 1' into Poly1 or Poly2.

    variables is ('b',) or ('b1', 'b2'); the grammar is sums of products of
    powers with a leading rational coefficient.
    """
    zero = Poly1() if len(variables) == 1 else Poly2()

    def mono(exps, coeff):
        if len(variables) == 1:
            return Poly1.mono(exps[0], coeff)
        return Poly2.mono(exps[0], exps[1], coeff)

    text = text.replace(" ", "")
    if text in ("", "0"):
        return zero
    total = zero
    sign = 1
    pos = 0
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        pos = 1
    while pos <= len(text):
        end = pos
        while end < len(text) and text[end] not in "+-":
            end += 1
        piece = text[pos:end]
        coeff = Q(sign)
        exps = [0] * len(variables)
        for factor in piece.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0].isdigit() or factor[0] == "/":
                coeff *= Q(factor)
                continue
            if "^" in factor:
                var, _, p = factor.partition("^")
                power = int(p)
            else:
                var, power = factor, 1
            if var not in variables:
                raise ValueError(f"unknown variable {var!r} in {text!r}")
            exps[variables.index(var)] += power
        total = total + mono(exps, coeff)
        if end == len(text):
            break
        sign = -1 if text[end] == "-" else 1
        pos = end + 1
    return total


# registry and loader ------------------------------------------------------------


def make_model(kind: str, params: dict = None) -> Model:
    params = params or {}
    if kind == "DiffPoly":
        return make_diffpoly(params.get("max_degree", 6))
    if kind == "Weyl1":
        return make_weyl1(params.get("max_degree", 6))
    if kind == "CurrentLie":
        return make_currentlie(
            params.get("name", "currentlie"),
            params["variables"],
            params.get("structure_constants", []),
            params.get("locality", 1),
        )
    if kind in ("DeRham1", "DeRham2Conn"):
        from .geometry import make_derham1, make_derham2

        if kind == "DeRham1":
            return make_derham1(params.get("max_degree", 3))
        conn = params.get("connection", ["b2", "0"])
        a1 = parse_poly(conn[0], ("b1", "b2"))
        a2 = parse_poly(conn[1], ("b1", "b2"))
        return make_derham2(
            a1, a2, params.get("max_degree", 2), params.get("name", "derham2")
        )
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path: str) -> Model:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        shape = json.dumps(cfg)[:40]
        raise ValueError(f"model file must hold a JSON object, got {shape}")
    if "kind" not in cfg:
        raise ValueError("model file has no 'kind' field")
    kind = cfg.pop("kind")
    return make_model(kind, cfg)


_SHIPPED = {
    "diffpoly": ("DiffPoly", {}),
    "weyl1": ("Weyl1", {}),
    "current2": (
        "CurrentLie",
        {"name": "current2", "variables": ["e1", "e2"], "structure_constants": []},
    ),
    "current3": (
        "CurrentLie",
        {
            "name": "current3",
            "variables": ["e1", "e2", "e3"],
            "structure_constants": [[0, 1, 2, "1"]],
        },
    ),
    "derham1": ("DeRham1", {}),
    "derham2_b2": ("DeRham2Conn", {"connection": ["b2", "0"], "name": "derham2_b2"}),
    "derham2_lin": ("DeRham2Conn", {"connection": ["0", "b1"], "name": "derham2_lin"}),
}


def shipped_model_names() -> list:
    return sorted(_SHIPPED)


def shipped_model(name: str) -> Model:
    try:
        kind, params = _SHIPPED[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; shipped: {', '.join(shipped_model_names())}"
        ) from None
    return make_model(kind, dict(params))
