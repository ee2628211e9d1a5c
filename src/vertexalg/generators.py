"""Ideal generator families and certified truncation.

Infinite-tail families (qc, qa) are built up to a finite bound K together
with a certificate that every dropped summand contains a leaf-pair product
at or past its locality threshold, so dropping it agrees with truncate().
truncate(x, None) is x itself, so a caller passes its policy, or None,
without branching on it.

The qc and qa sums are written once each, in _qc_sum and _qa_sum, which
take a policy `cut`: each tail summand's base product is built under the
cut, by _cut_o, before D^k or an outer product wraps it, and a summand
whose base is empty is skipped.  _cut_o(x, n, y, cut) is
truncate(x.o(n, y), cut), term order included, but it asks cut.is_dead
of a product of two leaves before building its Node, so a dead leaf-pair
base costs one is_dead call and nothing else; any other product is built
and kept unless _term_is_dead.  Wrapping keeps every subtree, so a term
built over a dead base term is dead itself, and cutting early then
truncating the sum equals truncating the uncut sum, for any deadness
rule.  fam_qc and fam_qa certify K and call the sums with cut=None, so
every generator instance keeps its dead tail summands; the bridge
identities, which truncate their sides anyway, pass their policy.  A qa
tail with m >= 0 is finite, since binom(m, k) vanishes past k = m: every
qa loop runs over _qa_tail(m, K), which stops there.  fam_f is d + e in
closed form, without the (Dx) o_n y summands that cancel between them.

fam_i, fam_e and fam_f take a policy `cut` too, default None: each of
their products is built by _cut_o, and fam_i at n = -1 subtracts x
truncated, so with a cut each returns truncate(fam_X(...), cut), term
order included.  The bridges build their family bases this way; as
generator instances (FAMILIES, build_generator) they are built uncut.

TruncationPolicy.is_dead(u, v, n) is the one deadness rule: n at or past
the pair's locality and not exempt.  Each policy builds one rule table,
_rules, from its frozen fields: (name, name) -> (locality, exempt
indices), under both orders of each pair the fields name.  locality,
exempt_indices and is_dead read it by name, for a name or a Symbol
alike, and a pair it does not hold has the default locality and no
exempt index.  The table takes no part in ==, hash or repr, and
dataclasses.replace builds a new policy with a new table.  Truncation
asks policy.is_dead on every call, through terms.any_leaf_pair, and
_cut_o looks it up on every call too, so a rule patched onto the class
is seen.

FAMILIES describes the ten families once: arity, index names, what else
the builder needs, the builder that build_generator calls, and the slots
that take functions only (FUNCTION_KINDS, the tuple the model tables
read too), which build_generator checks by name.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .terms import (
    Element, Node, Symbol, any_leaf_pair, binom, leaf_terms, minus_one_pow,
    parity,
)

Q = Fraction


class CertificationError(ValueError):
    pass


def _need_int(what: str, value) -> None:
    # a bool is an int to Python, but True as a locality is a slip
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {value!r}")


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
        _need_int("default_locality", self.default_locality)
        _need_int("level", self.level)
        # a negative locality would truncate products the vacuum axiom needs
        if self.default_locality < 0:
            raise ValueError(
                f"default_locality must be >= 0, got {self.default_locality}")
        rules = {}  # (name, name) -> (locality, exempt indices), both orders
        for i, (u, v, loc) in enumerate(self.overrides):
            _need_int(f"overrides[{i}]: locality", loc)
            if loc < 0:
                raise ValueError(
                    f"locality override of ({u}, {v}) must be >= 0, got {loc}")
            rules[u, v] = rules[v, u] = (loc, frozenset())
        for u, v, n in self.exempt:
            _need_int(f"exempt ({u}, {v}): index", n)
            loc, ns = rules.get((u, v), (self.default_locality, frozenset()))
            rules[u, v] = rules[v, u] = (loc, ns | {n})
        object.__setattr__(self, "_rules", rules)

    def locality(self, u, v) -> int:
        hit = self._rules.get((getattr(u, "name", u), getattr(v, "name", v)))
        return self.default_locality if hit is None else hit[0]

    def is_dead(self, u, v, n: int) -> bool:
        """Whether u o_n v is truncated: n at or past the pair's locality,
        and not exempt."""
        hit = self._rules.get((getattr(u, "name", u), getattr(v, "name", v)))
        if hit is None:
            return n >= self.default_locality
        return n >= hit[0] and n not in hit[1]

    def exempt_indices(self, u, v) -> list:
        hit = self._rules.get((getattr(u, "name", u), getattr(v, "name", v)))
        return [] if hit is None else sorted(hit[1])


def _term_is_dead(t, policy: TruncationPolicy) -> bool:
    """Whether t holds a leaf-pair product that policy truncates; the
    preorder search stops at the first such product.  policy.is_dead is
    looked up on each call, so a rule patched onto the class is seen."""
    return any_leaf_pair(t, policy.is_dead)


def truncate(x: Element, policy: TruncationPolicy) -> Element:
    """x without its dead terms under policy; x itself if policy is None."""
    if policy is None:
        return x
    kept = {t: c for t, c in x.terms.items() if not _term_is_dead(t, policy)}
    return Element._trusted(x.alphabet, kept)


def _cut_o(x: Element, n: int, y: Element, cut) -> Element:
    """truncate(x.o(n, y), cut): the same terms, in the same order, with
    the same coefficients; x.o(n, y) if cut is None.  A product of two
    leaves is built only if cut.is_dead, looked up on each call, keeps it
    alive; any other product is built and dropped if _term_is_dead."""
    if cut is None:
        return x.o(n, y)
    alphabet = x.alphabet
    if alphabet is not y.alphabet:
        raise ValueError("elements over different alphabets")
    is_dead = cut.is_dead
    kept = {}
    for t1, c1 in x.terms.items():
        leaf = t1.__class__ is Symbol
        for t2, c2 in y.terms.items():
            if leaf and t2.__class__ is Symbol:
                if not is_dead(t1, t2, n):
                    kept[Node(n, t1, t2)] = c1 * c2
            else:
                t = Node(n, t1, t2)
                if not _term_is_dead(t, cut):
                    kept[t] = c1 * c2
    return Element._trusted(alphabet, kept)


def _parity_of(x: Element, what: str) -> int:
    p = parity(x)
    if p is None:
        raise ValueError(f"{what} is parity-inhomogeneous")
    return p


def _tail_bound_for_pairs(pairs, offset: int, policy: TruncationPolicy) -> int:
    """Smallest K such that for every (u, v) the product u o_{offset+k} v is
    truncation-dead for all k > K."""
    need = 0
    for u, v in pairs:
        need = max(need, policy.locality(u, v) - offset - 1)
        for n in policy.exempt_indices(u, v):
            need = max(need, n - offset)
    return need


def _certified_bound(what, K, policy, tails) -> int:
    """The tail bound K of a qc/qa family or a bridge identity.

    Without a policy a given K is taken as it is; under one it must be at
    least needed, or CertificationError is raised.  With no K given the
    bound is max(policy.level, needed), with level 0 without a policy.

    `tails` says what needed is: an int for a finite tail, which closes
    after that summand, else groups of (left args, right args, offset)
    whose leaf-pair products u o_{offset+k} v must be truncation-dead for
    every k > K; needed is then the largest _tail_bound_for_pairs over the
    groups.  Groups need a policy and leaf-combination arguments; without
    them needed is unknown, which raises CertificationError."""
    if K is not None and policy is None:
        return K
    if isinstance(tails, int):
        needed = tails
    elif policy is None:
        raise CertificationError(f"{what} tail has no policy to certify against")
    else:
        needed = 0
        for left, right, offset in tails:
            us, vs = leaf_terms(left), leaf_terms(right)
            if us is None or vs is None:
                raise CertificationError(
                    f"{what} tail over compound arguments has no leaf-pair "
                    "certificate; only policy=None takes an unchecked bound "
                    "K as given"
                )
            pairs = [(u, v) for u in us for v in vs]
            needed = max(needed, _tail_bound_for_pairs(pairs, offset, policy))
    if K is None:
        return max(policy.level if policy is not None else 0, needed)
    if K < needed:
        raise CertificationError(
            f"{what}: bound K={K} keeps alive dropped terms; need K>={needed}"
        )
    return K


# family builders ------------------------------------------------------------

def fam_i(x: Element, n: int, cut=None) -> Element:
    unit = Element.unit(x.alphabet)
    out = _cut_o(unit, n, x, cut)
    if n == -1:
        out = out - truncate(x, cut)
    return out


def fam_c(u: Element, v: Element, n: int, policy: TruncationPolicy) -> Element:
    if policy is None:
        # unlike the qc/qa tails, deadness has no meaning without a policy
        raise ValueError("c-family needs a truncation policy")
    us, vs = leaf_terms(u), leaf_terms(v)
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


def fam_e(x: Element, y: Element, n: int, cut=None) -> Element:
    return _cut_o(x.D(), n, y, cut) + n * _cut_o(x, n - 1, y, cut)


def fam_f(x: Element, y: Element, n: int, cut=None) -> Element:
    # d + e, with the (Dx) o_n y summands of the two cancelled
    return (_cut_o(x, n, y, cut).D() - _cut_o(x, n, y.D(), cut)
            + n * _cut_o(x, n - 1, y, cut))


def _qc_sum(x, y, n: int, sign: int, K: int, cut) -> Element:
    """x o_n y plus sign * sum_{k<=K} (-1)^{n+k}/k! D^k(y o_{n+k} x), each
    base y o_{n+k} x built under `cut` before D^k wraps it."""
    acc = dict(x.o(n, y).terms)
    for k in range(K + 1):
        base = _cut_o(y, n + k, x, cut)
        if base.terms:
            c = Q(sign * minus_one_pow(n + k), factorial(k))
            base.D_pow(k)._add_into(acc, c)
    return Element._trusted(x.alphabet, acc)


def _qa_tail(m: int, K: int) -> range:
    """The k of a qa tail up to K: binom(m, k) vanishes past k = m >= 0,
    so a finite tail stops there."""
    return range(K + 1 if m < 0 else min(K, m) + 1)


def _qa_sum(x, y, z, m: int, n: int, sign: int, K: int, cut) -> Element:
    """(x o_m y) o_n z minus the qa tail up to K; sign is the Koszul sign
    of (x, y).  Each inner product is built under `cut` before the outer
    product wraps it."""
    sign_xy = minus_one_pow(m) * sign
    acc = dict(x.o(m, y).o(n, z).terms)
    for k in _qa_tail(m, K):
        c = binom(m, k) * minus_one_pow(k)
        inner = _cut_o(y, n + k, z, cut)
        if inner.terms:
            x.o(m - k, inner)._add_into(acc, -c)
        inner = _cut_o(x, k, z, cut)
        if inner.terms:
            y.o(m + n - k, inner)._add_into(acc, c * sign_xy)
    return Element._trusted(x.alphabet, acc)


def fam_qc(
    x: Element,
    y: Element,
    n: int,
    policy: TruncationPolicy,
    K: int = None,
) -> Element:
    sign = minus_one_pow(_parity_of(x, "qc arg x") * _parity_of(y, "qc arg y"))
    K = _certified_bound("qc", K, policy, [(y, x, n)])
    return _qc_sum(x, y, n, sign, K, None)


def fam_qa(
    x: Element,
    y: Element,
    z: Element,
    m: int,
    n: int,
    policy: TruncationPolicy,
    K: int = None,
) -> Element:
    sign = minus_one_pow(_parity_of(x, "qa arg x") * _parity_of(y, "qa arg y"))
    # a tail with m >= 0 is finite: binom(m, k) vanishes past k = m
    tails = m if m >= 0 else [(y, z, n), (x, z, 0)]
    K = _certified_bound("qa", K, policy, tails)
    return _qa_sum(x, y, z, m, n, sign, K, None)


def fam_s(s: Element, t: Element, model) -> Element:
    return s.o(0, t) - model.bracket_elem(s, t)


def fam_a(a: Element, s: Element, model) -> Element:
    return a.o(-1, s) - model.act_elem(a, s)


def fam_am(a: Element, b: Element, x: Element, model) -> Element:
    return model.mul_elem(a, b).o(-1, x) - a.o(-1, b.o(-1, x))


def fam_k(x: Element, context) -> Element:
    from .sheaf import k_generator

    return k_generator(x, context)


# the family table ---------------------------------------------------------

# the symbol kinds of a model's functions: the domain of its product, what
# may act, and what the function slots of the a and am families take
FUNCTION_KINDS = ("algebra", "unit")


class Family(NamedTuple):
    """One generator family: its element arity, the names of its integer
    indices in argument order, the keyword arguments its builder takes
    besides those (policy, K, model, context), the builder, and the slots
    whose leaves must be of given kinds, as (position, slot name, kinds);
    every other slot takes any kind."""

    arity: int
    indices: tuple
    needs: tuple
    build: callable
    kinds: tuple = ()


_TAIL = ("policy", "K")

# builders call fam_* by module-global name when they run, so a wrapper
# later bound to that name (a tracer) sees every build
FAMILIES = {
    "i": Family(1, ("n",), (), lambda *a, **kw: fam_i(*a, **kw)),
    "c": Family(2, ("n",), ("policy",), lambda *a, **kw: fam_c(*a, **kw)),
    "d": Family(2, ("n",), (), lambda *a, **kw: fam_d(*a, **kw)),
    "e": Family(2, ("n",), (), lambda *a, **kw: fam_e(*a, **kw)),
    "qc": Family(2, ("n",), _TAIL, lambda *a, **kw: fam_qc(*a, **kw)),
    "qa": Family(3, ("m", "n"), _TAIL, lambda *a, **kw: fam_qa(*a, **kw)),
    "s": Family(2, (), ("model",), lambda *a, **kw: fam_s(*a, **kw)),
    "a": Family(2, (), ("model",), lambda *a, **kw: fam_a(*a, **kw),
                ((0, "a", FUNCTION_KINDS),)),
    "am": Family(3, (), ("model",), lambda *a, **kw: fam_am(*a, **kw),
                 ((0, "a", FUNCTION_KINDS), (1, "b", FUNCTION_KINDS))),
    "k": Family(1, (), ("context",), lambda *a, **kw: fam_k(*a, **kw)),
}


def build_generator(
    family: str,
    args: tuple,
    indices: tuple,
    policy: TruncationPolicy,
    K: int = None,
    model=None,
    context=None,
) -> Element:
    """The instance of `family` on its element args and its indices, given
    in FAMILIES[family].indices order; K bounds a qc/qa tail."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown family {family!r}")
    if len(args) != fam.arity or len(indices) != len(fam.indices):
        raise ValueError(
            f"{family}-family takes {fam.arity} args and indices {fam.indices}"
        )
    if "model" in fam.needs and model is None:
        raise ValueError(f"{family}-family needs a model")
    if "context" in fam.needs and context is None:
        raise ValueError(f"{family}-family needs a sheaf context")
    for pos, slot, kinds in fam.kinds:
        # a compound argument is left to the model, which takes leaf
        # combinations only
        for sym in leaf_terms(args[pos]) or ():
            if sym.kind not in kinds:
                raise ValueError(
                    f"{family}-family slot {slot} takes kind "
                    f"{' or '.join(kinds)}, not {sym.name} of kind {sym.kind}")
    given = {"policy": policy, "K": K, "model": model, "context": context}
    return fam.build(*args, *indices, **{nm: given[nm] for nm in fam.needs})
