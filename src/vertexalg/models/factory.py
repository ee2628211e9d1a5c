"""Shipped coefficient models and the model-definition file loader.

Kinds: Weyl1 (polynomials b^k and vector fields b^k del on the line),
DiffPoly (Weyl1's function part: the b^k alone, zero bracket, with the
commutative quotient; one maker builds both, so their shared tables
agree entry for entry), CurrentLie (finite-dimensional Lie algebra from
structure constants, trivial commutative part), and the differential-form
models DeRham1 / DeRham2Conn built in the geometry module.

KINDS maps each kind to its maker.  A model file is one JSON object
{"kind": K, ...} whose other fields are keyword arguments of K's maker;
a field left out takes the maker's default, so {"kind": "DiffPoly",
"max_degree": 4} is make_diffpoly(max_degree=4).  Each shipped model is
the model file data/<name>.json, read by the same loader.
"""

import inspect
from fractions import Fraction

from ..parsing import DATA_DIR, expect, read_document, read_rational
from ..terms import Alphabet, Element, Symbol
from .base import Commutative, Model, ModelDegreeError, degree_cap
from .geometry import make_derham1, make_derham2
from .polys import Poly1

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


# DiffPoly and Weyl1 -----------------------------------------------------------


def _line_model(max_degree: int, fields: bool) -> Model:
    """Polynomials b^k on the line, and with fields the vector fields
    b^k del acting on them.

    [p del, q del] = (p q' - q p') del, [p del, q] = p q', products cap at
    the configured degree.  Without fields there is no Lie symbol, every
    bracket is zero, and the model carries its commutative quotient.
    """
    max_degree = degree_cap(max_degree)
    al = Alphabet()
    for k in range(1, max_degree + 1):
        al.add(Symbol(pow_name(k), 0, Q(0), "algebra"))
    low = [pow_name(k) for k in range(1, max_degree // 2 + 1)]
    if fields:
        for k in range(0, max_degree + 1):
            al.add(Symbol(vf_name(k), 0, Q(0), "lie"))
        low += [vf_name(k) for k in range(0, max_degree // 2 + 1)]

    def monomial_elem(k: int, coeff, vf: bool = False) -> Element:
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
            return monomial_elem(i + j - 1, j)
        if t_vf and not s_vf:
            return monomial_elem(i + j - 1, -i)
        return Element.zero(al)

    def product(a, b):
        return monomial_elem(_name_exp(a.name)[0] + _name_exp(b.name)[0], 1)

    def action(a, s):
        return monomial_elem(_name_exp(a.name)[0] + _name_exp(s.name)[0], 1, True)

    def poly_to_elem(p: Poly1) -> Element:
        out = Element.zero(al)
        for k, c in p.c.items():
            out = out + monomial_elem(k, c)
        return out

    comm = None if fields else Commutative(
        lambda s: Poly1.mono(_name_exp(s.name)[0]), poly_to_elem)
    name, kind = ("weyl1", "Weyl1") if fields else ("diffpoly", "DiffPoly")
    return Model(
        name,
        al,
        bracket,
        product,
        action,
        max_degree=max_degree,
        commutative=comm,
        meta={"kind": kind, "sample_symbols": low},
    )


def make_diffpoly(max_degree: int = 6) -> Model:
    """Weyl1's function part: b^k alone, zero bracket, commutative quotient."""
    return _line_model(max_degree, fields=False)


def make_weyl1(max_degree: int = 6) -> Model:
    """Polynomials b^k and vector fields b^k del on the line."""
    return _line_model(max_degree, fields=True)


# CurrentLie -------------------------------------------------------------------


def make_currentlie(
    variables: list, name: str = "currentlie", structure_constants=()
) -> Model:
    """Lie algebra on the given basis with [e_i, e_j] = sum_k c_ijk e_k.

    Constants are triples-with-coefficient [i, j, k, c] for i < j; the
    antisymmetric closure is taken automatically.  The commutative part is
    spanned by the unit alone.  A parameter of the wrong shape is a
    ValueError naming it (structure_constants[0]).
    """
    expect(type(name) is str, "name", "a name", name)
    expect(type(variables) in (list, tuple) and all(type(v) is str for v in variables),
           "variables", "a list of names", variables)
    expect(type(structure_constants) in (list, tuple), "structure_constants",
           "a list of [i, j, k, c]", structure_constants)
    al = Alphabet()
    for v in variables:
        al.add(Symbol(v, 0, Q(0), "lie"))
    table = {}
    last = len(variables) - 1
    for at, entry in enumerate(structure_constants):
        path = f"structure_constants[{at}]"
        expect(type(entry) in (list, tuple) and len(entry) == 4
               and all(type(e) is int and 0 <= e <= last for e in entry[:3]),
               path, f"[i, j, k, c] with i, j, k in 0..{last}", entry)
        i, j, k, c = entry
        c = read_rational(c, f"{path}[3]")
        if i == j:
            raise ValueError(f"{path}: needs i != j")
        table.setdefault((variables[i], variables[j]), []).append((variables[k], c))
        table.setdefault((variables[j], variables[i]), []).append((variables[k], -c))

    def bracket(s, t):
        out = Element.zero(al)
        for k_name, c in table.get((s.name, t.name), ()):
            out = out + Element.sym(al, k_name, c)
        return out

    # the unit is the only function, and Model.mul and Model.act answer it
    return Model(
        name,
        al,
        bracket,
        None,
        None,
        max_degree=0,
        commutative=None,
        meta={"kind": "CurrentLie"},
    )


# the kind table and the loader ---------------------------------------------------

KINDS = {
    "DiffPoly": make_diffpoly,
    "Weyl1": make_weyl1,
    "CurrentLie": make_currentlie,
    "DeRham1": make_derham1,
    "DeRham2Conn": make_derham2,
}


def make_model(kind: str, params: dict = None) -> Model:
    """KINDS[kind](**params).  A kind that is not a string, an unknown
    kind, a parameter the maker does not take and a missing required
    parameter are each a ValueError that names the kind and the
    parameter."""
    maker = KINDS.get(expect(type(kind) is str, "kind", "a model kind", kind))
    if maker is None:
        raise ValueError(f"unknown model kind {kind!r}; kinds: {', '.join(KINDS)}")
    params = params or {}
    takes = inspect.signature(maker).parameters
    for name in params:
        if name not in takes:
            raise ValueError(f"{kind} takes no parameter {name!r}")
    for name, p in takes.items():
        if p.default is p.empty and name not in params:
            raise ValueError(f"{kind} needs the parameter {name!r}")
    return maker(**params)


def load_model(path) -> Model:
    """The model a model file describes (see the module docstring)."""
    cfg = read_document(path, "model file")
    if "kind" not in cfg:
        raise ValueError("model file has no 'kind' field")
    kind = cfg.pop("kind")
    return make_model(kind, cfg)


_SHIPPED = (
    "current2", "current3", "derham1", "derham2_b2", "derham2_lin", "diffpoly", "weyl1",
)


def shipped_model_names() -> list:
    return sorted(_SHIPPED)


def shipped_model(name: str) -> Model:
    if name not in _SHIPPED:
        raise ValueError(
            f"unknown model {name!r}; shipped: {', '.join(shipped_model_names())}"
        )
    return load_model(DATA_DIR / f"{name}.json")
