"""Ideal generator families and certified truncation.

Infinite-tail families (qc, qa) are built up to a finite bound K together
with a certificate that every dropped summand contains a leaf-pair product
at or past its locality threshold, so dropping it agrees with truncate().
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .terms import Element, Leaf, Node, binom, minus_one_pow, parity, preorder

Q = Fraction


class CertificationError(ValueError):
    pass


def _pair_key(u: str, v: str) -> tuple:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class TruncationPolicy:
    """Locality assignments plus the default tail bound (level).

    `overrides` holds unordered-pair localities ((name, name, N), ...);
    `exempt` lists (name, name, n) leaf-pair products that truncation must
    keep alive even past the locality threshold (punctured locality).
    """

    default_locality: int = 1
    overrides: tuple = ()
    level: int = 8
    exempt: frozenset = frozenset()

    def __post_init__(self):
        table = {}
        for u, v, loc in self.overrides:
            table[_pair_key(u, v)] = int(loc)
        object.__setattr__(self, "_table", table)
        punct = set()
        for u, v, n in self.exempt:
            punct.add(_pair_key(u, v) + (int(n),))
        object.__setattr__(self, "_punct", frozenset(punct))

    def locality(self, u, v) -> int:
        u = u.name if not isinstance(u, str) else u
        v = v.name if not isinstance(v, str) else v
        return self._table.get(_pair_key(u, v), self.default_locality)

    def is_exempt(self, u, v, n: int) -> bool:
        u = u.name if not isinstance(u, str) else u
        v = v.name if not isinstance(v, str) else v
        return _pair_key(u, v) + (n,) in self._punct

    def is_dead(self, u, v, n: int) -> bool:
        return n >= self.locality(u, v) and not self.is_exempt(u, v, n)

    def exempt_indices(self, u, v) -> list:
        u = u.name if not isinstance(u, str) else u
        v = v.name if not isinstance(v, str) else v
        key = _pair_key(u, v)
        return sorted(n for (a, b, n) in self._punct if (a, b) == key)


def _term_is_dead(t, policy: TruncationPolicy) -> bool:
    """Whether t holds a leaf-pair product that policy truncates; the
    preorder search stops at the first such product."""
    for n in preorder(t):
        if n.__class__ is Node:
            u, v = n.left, n.right
            if (u.__class__ is Leaf and v.__class__ is Leaf
                    and policy.is_dead(u.symbol, v.symbol, n.index)):
                return True
    return False


def truncate(x: Element, policy: TruncationPolicy) -> Element:
    kept = {t: c for t, c in x.terms.items() if not _term_is_dead(t, policy)}
    return Element(x.alphabet, kept)


def _parity_of(x: Element, what: str) -> int:
    p = parity(x)
    if p is None:
        raise ValueError(f"{what} is parity-inhomogeneous")
    return p


def _leaf_symbols(x: Element):
    """Leaf symbols of x if every monomial is a leaf, else None."""
    syms = []
    for t in x.terms:
        if not isinstance(t, Leaf):
            return None
        syms.append(t.symbol)
    return syms


def _tail_bound_for_pairs(pairs, offset: int, policy: TruncationPolicy) -> int:
    """Smallest K such that for every (u, v) the product u o_{offset+k} v is
    truncation-dead for all k > K."""
    need = 0
    for u, v in pairs:
        need = max(need, policy.locality(u, v) - offset - 1)
        for n in policy.exempt_indices(u, v):
            need = max(need, n - offset)
    return need


def _certified_bound(what, K, policy, certify, tails) -> int:
    """The tail bound K of a qc/qa family or a bridge identity: K when
    given, else max(policy.level, needed), with level 0 without a policy.

    `tails` says what needed is: an int for a finite tail, which closes
    after that summand, else groups of (left args, right args, offset)
    whose leaf-pair products u o_{offset+k} v must be truncation-dead for
    every k > K; needed is then the largest _tail_bound_for_pairs over the
    groups.  Groups need leaf-combination arguments and a policy; without
    them needed is unknown, which raises CertificationError unless K is
    given and certify unset.  With certify set, K < needed raises too."""
    if isinstance(tails, int):
        needed = tails
    elif K is not None and not certify:
        return K
    elif policy is None:
        raise CertificationError(f"{what} tail has no policy to certify against")
    else:
        needed = 0
        for left, right, offset in tails:
            us, vs = _leaf_symbols(left), _leaf_symbols(right)
            if us is None or vs is None:
                raise CertificationError(
                    f"{what} tail over compound arguments has no leaf-pair "
                    "certificate; give an explicit bound K"
                )
            pairs = [(u, v) for u in us for v in vs]
            needed = max(needed, _tail_bound_for_pairs(pairs, offset, policy))
    if K is None:
        return max(policy.level if policy is not None else 0, needed)
    if certify and K < needed:
        raise CertificationError(
            f"{what}: bound K={K} keeps alive dropped terms; need K>={needed}"
        )
    return K


# family builders ------------------------------------------------------------

def fam_i(x: Element, n: int) -> Element:
    unit = Element.unit(x.alphabet)
    out = unit.o(n, x)
    if n == -1:
        out = out - x
    return out


def fam_c(u: Element, v: Element, n: int, policy: TruncationPolicy) -> Element:
    us, vs = _leaf_symbols(u), _leaf_symbols(v)
    if us is None or vs is None:
        raise ValueError("c-family arguments must be leaf combinations")
    for a in us:
        for b in vs:
            if not policy.is_dead(a, b, n):
                raise ValueError(
                    f"c-family needs a dead pair: {a.name} o_{n} {b.name} "
                    f"is below locality {policy.locality(a, b)} or exempt"
                )
    return u.o(n, v)


def fam_d(x: Element, y: Element, n: int) -> Element:
    return x.o(n, y).D() - x.D().o(n, y) - x.o(n, y.D())


def fam_e(x: Element, y: Element, n: int) -> Element:
    return x.D().o(n, y) + n * x.o(n - 1, y)


def fam_f(x: Element, y: Element, n: int) -> Element:
    return fam_d(x, y, n) + fam_e(x, y, n)


def fam_qc(
    x: Element,
    y: Element,
    n: int,
    policy: TruncationPolicy,
    K: int = None,
    certify: bool = True,
) -> Element:
    sign = minus_one_pow(_parity_of(x, "qc arg x") * _parity_of(y, "qc arg y"))
    K = _certified_bound("qc", K, policy, certify, [(y, x, n)])
    acc = dict(x.o(n, y).terms)
    for k in range(K + 1):
        c = Q(sign * minus_one_pow(n + k), factorial(k))
        y.o(n + k, x).D_pow(k)._add_into(acc, c)
    return Element._trusted(x.alphabet, acc)


def fam_qa(
    x: Element,
    y: Element,
    z: Element,
    m: int,
    n: int,
    policy: TruncationPolicy,
    K: int = None,
    certify: bool = True,
) -> Element:
    sign_xy = minus_one_pow(m + _parity_of(x, "qa arg x") * _parity_of(y, "qa arg y"))
    # a tail with m >= 0 is finite: binom(m, k) vanishes past k = m
    tails = m if m >= 0 else [(y, z, n), (x, z, 0)]
    K = _certified_bound("qa", K, policy, certify, tails)
    acc = dict(x.o(m, y).o(n, z).terms)
    for k in range(K + 1):
        c = binom(m, k) * minus_one_pow(k)
        if c == 0:
            continue
        x.o(m - k, y.o(n + k, z))._add_into(acc, -c)
        y.o(m + n - k, x.o(k, z))._add_into(acc, c * sign_xy)
    return Element._trusted(x.alphabet, acc)


def fam_s(s: Element, t: Element, model) -> Element:
    return s.o(0, t) - model.bracket_elem(s, t)


def fam_a(a: Element, s: Element, model) -> Element:
    return a.o(-1, s) - model.act_elem(a, s)


def fam_am(a: Element, b: Element, x: Element, model) -> Element:
    return model.mul_elem(a, b).o(-1, x) - a.o(-1, b.o(-1, x))


# dispatch -------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    args: tuple
    indices: tuple = ()
    bound: int = None


@dataclass(frozen=True)
class BuildResult:
    element: Element
    family: str
    indices: tuple
    bound: int = None


FAMILY_ARITY = {"i": 1, "c": 2, "d": 2, "e": 2, "qc": 2, "qa": 3,
                "s": 2, "a": 2, "am": 3, "k": 1}
FAMILY_IDS = tuple(FAMILY_ARITY)
# the names of each family's indices, in GeneratorSpec.indices order
FAMILY_INDICES = {"i": ("n",), "c": ("n",), "d": ("n",), "e": ("n",), "qc": ("n",),
                  "qa": ("m", "n"), "s": (), "a": (), "am": (), "k": ()}


def build_generator(
    spec: GeneratorSpec,
    policy: TruncationPolicy,
    model=None,
    context=None,
    certify: bool = True,
) -> BuildResult:
    fam, args, idx = spec.family, spec.args, spec.indices
    if fam == "i":
        (x,) = args
        (n,) = idx
        el = fam_i(x, n)
    elif fam == "c":
        u, v = args
        (n,) = idx
        el = fam_c(u, v, n, policy)
    elif fam == "d":
        x, y = args
        (n,) = idx
        el = fam_d(x, y, n)
    elif fam == "e":
        x, y = args
        (n,) = idx
        el = fam_e(x, y, n)
    elif fam == "qc":
        x, y = args
        (n,) = idx
        el = fam_qc(x, y, n, policy, K=spec.bound, certify=certify)
    elif fam == "qa":
        x, y, z = args
        m, n = idx
        el = fam_qa(x, y, z, m, n, policy, K=spec.bound, certify=certify)
    elif fam == "s":
        s, t = args
        el = fam_s(s, t, _need(model, "s"))
    elif fam == "a":
        a, s = args
        el = fam_a(a, s, _need(model, "a"))
    elif fam == "am":
        a, b, x = args
        el = fam_am(a, b, x, _need(model, "am"))
    elif fam == "k":
        from .sheaf import k_generator

        (x,) = args
        if context is None:
            raise ValueError("k-family needs a sheaf context")
        el = k_generator(x, context)
    else:
        raise ValueError(f"unknown family {fam!r}")
    return BuildResult(el, fam, idx, spec.bound)


def _need(model, fam):
    if model is None:
        raise ValueError(f"{fam}-family needs a model")
    return model
