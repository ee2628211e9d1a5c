"""Coefficient models: symbol tables with bracket, product and action,
bilinear extensions, validation, commutative evaluation, module laws.
"""

import random
from fractions import Fraction
from itertools import product
from math import factorial
from operator import itemgetter
from typing import NamedTuple

from ..generators import (
    FUNCTION_KINDS, TruncationPolicy, fam_am, fam_qa, fam_s,
)
from ..parsing import expect, to_text
from ..terms import Element, Symbol, fold_tree, leaf_terms, minus_one_pow
from .polys import Poly1

Q = Fraction


class ModelDegreeError(ValueError):
    """A table result left the finite basis (degree cap)."""


def check(cid: str, ok, **extra) -> dict:
    """The one check record: {"id", "status", **extra}, status pass or
    fail, extras in call order and left out when their value is None."""
    status = "pass" if ok else "fail"
    kept = {k: v for k, v in extra.items() if v is not None}
    return {"id": cid, "status": status, **kept}


def case_check(cid: str, cases, probe, limit: int = None, **extra) -> dict:
    """The one case loop.  probe(case) is None when the case holds and the
    witness text when it does not; a case whose probe raises
    ModelDegreeError is skipped.  The loop stops at the first witness or
    once limit cases have run, so lazy cases draw nothing unprobed.  The
    check passes iff no witness was found and at least one case ran."""
    ran = skipped = 0
    for case in cases:
        try:
            witness = probe(case)
        except ModelDegreeError:
            skipped += 1
            continue
        ran += 1
        if witness is not None:
            return check(cid, False, cases=ran, skipped=skipped or None,
                         witness=witness, **extra)
        if ran == limit:
            break
    return check(cid, ran > 0, cases=ran, skipped=skipped or None, **extra)


# the makers build their alphabets eagerly up to max_degree, so a model
# file may not ask for more; at 64 make_derham2, the largest, builds about
# 15k symbols, and the shipped models stay at 6 or below
MAX_DEGREE = 64


def degree_cap(max_degree) -> int:
    """A maker's max_degree: an int from 0 to MAX_DEGREE, else a ValueError
    naming the field."""
    expect(type(max_degree) is int and max_degree >= 0, "max_degree",
           "a non-negative integer", max_degree)
    return expect(max_degree <= MAX_DEGREE, "max_degree",
                  f"at most {MAX_DEGREE}", max_degree)


class Commutative(NamedTuple):
    """A model's commutative quotient in one-variable polynomials: value
    maps a Symbol to its Poly1, to_element maps a Poly1 back."""

    value: callable
    to_element: callable


class Model:
    """Alphabet plus symbol-level operation tables.

    bracket(s, t) is defined on all symbol pairs, product(a, b) on pairs
    of functions (kind algebra or unit), action(a, g) for a function a on
    a Lie g.  All three return Elements; bilinear extensions accept leaf
    combinations.  mul and act refuse a pair outside their domain with a
    ValueError naming the symbols, and answer the unit themselves, so a
    model whose only function is the unit passes None for both tables.

    Each table entry is computed once: the memo keeps the Element, or the
    text of the ModelDegreeError the entry raised, and every call raises
    a fresh ModelDegreeError with that text.  The bilinear extensions read
    the memo inline and call the table only on a miss or a refusal.
    """

    def __init__(
        self,
        name: str,
        alphabet,
        bracket,
        product,
        action,
        max_degree: int = 0,
        commutative: Commutative = None,
        meta: dict = None,
    ):
        self.name = name
        self.alphabet = alphabet
        self._bracket = bracket
        self._product = product
        self._action = action
        self.max_degree = max_degree
        self.commutative = commutative
        self.meta = meta or {}
        self._cache = {}
        self._leaves = {}
        # rewrite.R_project's RuleSet, made on first use and kept, like the
        # table memo, for the model's life: its marks read only pure tables
        self.projection_rules = None

    def leaf(self, sym: Symbol) -> Element:
        """The leaf Element of sym, built once per symbol and shared: trees
        built from it share their leaves, and the unit shortcuts of mul and
        act return it."""
        hit = self._leaves.get(sym)
        if hit is None:
            hit = self._leaves[sym] = Element._trusted(self.alphabet, {sym: 1})
        return hit

    # symbol-level tables (memoized; tables are pure) --------------------

    # _cache maps (tag, s.name, t.name) to the entry's Element, or to the
    # text of its refusal; _bilinear reads it inline under the same tags
    _BRACKET, _MUL, _ACT = "b", "m", "a"

    def _memo(self, tag, s, t, fn):
        key = (tag, s.name, t.name)
        hit = self._cache.get(key)
        if hit is None:
            try:
                hit = fn(s, t)
            except ModelDegreeError as exc:
                hit = str(exc)
            self._cache[key] = hit
        if hit.__class__ is str:
            raise ModelDegreeError(hit)
        return hit

    def bracket(self, s: Symbol, t: Symbol) -> Element:
        return self._memo(self._BRACKET, s, t, self._bracket)

    def mul(self, a: Symbol, b: Symbol) -> Element:
        if a.kind not in FUNCTION_KINDS or b.kind not in FUNCTION_KINDS:
            raise ValueError(
                f"{self.name}: no product of {a.name} and {b.name}; "
                "both must be functions")
        if a.kind == "unit":
            return self.leaf(b)
        if b.kind == "unit":
            return self.leaf(a)
        return self._memo(self._MUL, a, b, self._product)

    def act(self, a: Symbol, s: Symbol) -> Element:
        if a.kind not in FUNCTION_KINDS:
            raise ValueError(
                f"{self.name}: {a.name} cannot act on {s.name}; "
                "only a function acts")
        if s.kind in FUNCTION_KINDS:
            return self.mul(a, s)
        if a.kind == "unit":
            return self.leaf(s)
        return self._memo(self._ACT, a, s, self._action)

    # bilinear extensions ----------------------------------------------

    def _bilinear(self, x: Element, y: Element, tag, table) -> Element:
        # products of stored coefficients are exact already: accumulate
        # inline, deleting a term the moment it cancels.  A memo hit is an
        # Element; a miss, a refusal, or a pair the table answers without
        # the memo (the unit, act on a function) goes through the table
        if leaf_terms(x) is None or leaf_terms(y) is None:
            raise ValueError("model tables apply to leaf combinations")
        ys = y.terms.items()
        acc = {}
        get = acc.get
        memo = self._cache.get
        for s1, c1 in x.terms.items():
            name = s1.name
            for s2, c2 in ys:
                entry = memo((tag, name, s2.name))
                if entry.__class__ is not Element:
                    entry = table(s1, s2)
                entry = entry.terms
                if not entry:
                    continue
                scale = c1 * c2
                for t, c in entry.items():
                    c *= scale
                    old = get(t)
                    if old is None:
                        acc[t] = c
                        continue
                    c += old
                    if c:
                        acc[t] = c
                    else:
                        del acc[t]
        return Element._trusted(self.alphabet, acc)

    def bracket_elem(self, x: Element, y: Element) -> Element:
        return self._bilinear(x, y, self._BRACKET, self.bracket)

    def mul_elem(self, x: Element, y: Element) -> Element:
        return self._bilinear(x, y, self._MUL, self.mul)

    def act_elem(self, x: Element, y: Element) -> Element:
        return self._bilinear(x, y, self._ACT, self.act)

    def symbols(self, kinds=None) -> list:
        out = []
        for name in self.alphabet.names():
            s = self.alphabet.symbol(name)
            if kinds is None or s.kind in kinds:
                out.append(s)
        return out

    def sample_symbols(self, kinds=None) -> list:
        """Like symbols(), but restricted to the low-degree pool when the
        model declares one, so degree caps rarely interrupt sampling."""
        pool = self.meta.get("sample_symbols")
        if pool is None:
            return self.symbols(kinds)
        out = [self.alphabet.symbol(n) for n in pool]
        out.append(self.alphabet.unit)
        if kinds is not None:
            out = [s for s in out if s.kind in kinds]
        return out

    # commutative semantics --------------------------------------------

    def evaluate_commutative(self, x: Element) -> Element:
        """x in the commutative quotient: products at n >= 0 vanish, and
        u o_{-1-k} v is (d^k u / k!) v."""
        if self.commutative is None:
            raise ValueError(f"model {self.name} has no commutative semantics")
        value, to_element = self.commutative

        def node(n, left, right):
            if n.index >= 0:
                return Poly1()
            k = -1 - n.index
            for _ in range(k):
                left = left.diff()
            return (left * Q(1, factorial(k))) * right

        total = Poly1()
        for t, c in x.terms.items():
            total = total + fold_tree(t, value, node) * c
        return to_element(total)


# validation ----------------------------------------------------------------


def validate_model(model: Model, pair_cap: int = None, case_cap: int = None) -> list:
    """Exhaustive symbol-level law checks, one record per law that has
    cases.  case_cap, when set, stride-samples each check's case list down
    to that many (large alphabets)."""
    syms = model.symbols()
    if pair_cap is not None:
        syms = syms[:pair_cap]
    lie = [s for s in syms if s.kind == "lie"]
    comm = [s for s in syms if s.kind in FUNCTION_KINDS]

    leaf = model.leaf

    def bracket_antisym(s, t):
        koszul = minus_one_pow(s.parity * t.parity)
        return model.bracket(s, t) == -koszul * model.bracket(t, s)

    def product_comm(a, b):
        return model.mul(a, b) == minus_one_pow(a.parity * b.parity) * model.mul(b, a)

    def jacobi(s, t, u):
        lhs = model.bracket_elem(leaf(s), model.bracket(t, u))
        rhs = model.bracket_elem(model.bracket(s, t), leaf(u)) + minus_one_pow(
            s.parity * t.parity
        ) * model.bracket_elem(leaf(t), model.bracket(s, u))
        return lhs == rhs

    def compat(g, a, x):
        # bracket is a superderivation over the action/product
        lhs = model.bracket_elem(leaf(g), model.act(a, x))
        rhs = model.act_elem(model.bracket(g, a), leaf(x)) + minus_one_pow(
            g.parity * a.parity
        ) * model.act_elem(leaf(a), model.bracket(g, x))
        return lhs == rhs

    def action_assoc(a, b, x):
        return model.act_elem(model.mul(a, b), leaf(x)) == model.act_elem(
            leaf(a), model.act(b, x)
        )

    def unit_laws(x):
        return model.act(model.alphabet.unit, x) == leaf(x)

    checks = []
    for cid, holds, cases in (
        ("bracket-antisymmetry", bracket_antisym, product(syms, syms)),
        ("product-commutativity", product_comm, product(comm, comm)),
        ("jacobi", jacobi, product(syms, syms, syms)),
        ("bracket-derivation-compat", compat, product(lie, comm, syms)),
        ("action-associativity", action_assoc, product(comm, comm, syms)),
        ("unit-action", unit_laws, product(syms)),
    ):
        cases = list(cases)
        if case_cap is not None and len(cases) > case_cap:
            cases = cases[:: len(cases) // case_cap + 1]
        if cases:
            checks.append(case_check(
                cid, cases, lambda args, holds=holds: None if holds(*args)
                else ", ".join(s.name for s in args)))
    return checks


# module laws ----------------------------------------------------------------


def battery_check(cid: str, draws, laws: dict, **extra) -> dict:
    """A battery of laws over shared random draws, as one case_check record.

    A draw is a dict of named values and one case; laws maps each law's
    name to law(**draw), None when the law holds, else the witness term
    in the term grammar.  Every law runs on every draw, a law that raises
    ModelDegreeError is left out of that case, and a draw on which every
    law was left out is skipped.  The witness is "<law>: <term>" for the
    first law that failed, and counts gives, per law, the cases on which
    that law ran and held."""
    counts = dict.fromkeys(laws, 0)

    def probe(draw):
        outcomes = {}
        for name, law in laws.items():
            try:
                outcomes[name] = law(**draw)
            except ModelDegreeError:
                pass
        if not outcomes:
            raise ModelDegreeError("every law left the finite basis")
        for name, term in outcomes.items():
            if term is None:
                counts[name] += 1
        return next((f"{name}: {term}" for name, term in outcomes.items()
                     if term is not None), None)

    return case_check(cid, draws, probe, counts=counts, **extra)


def _once(names, law):
    """law as battery_check calls it, on a whole draw, run as law(*args)
    on the draw's values under names, once per distinct args.  The
    outcome is kept, or the text of the ModelDegreeError law raised; a
    repeat returns the kept outcome or raises a fresh ModelDegreeError
    with that text, the way Model._memo keeps a table entry."""
    args = itemgetter(*names)
    kept = {}

    def once(**draw):
        key = args(draw)
        hit = kept.get(key)
        if hit is None:
            try:
                hit = (law(*key),)
            except ModelDegreeError as exc:
                hit = str(exc)
            kept[key] = hit
        if hit.__class__ is str:
            raise ModelDegreeError(hit)
        return hit[0]

    return once


def check_module_laws(
    model: Model,
    policy: TruncationPolicy = None,
    samples: int = 100,
    seed: int = 0,
    budget: int = 10000,
) -> dict:
    """Both module laws, two ways per law, over `samples` draws of
    (s, t, a, b, a leaf x, a compound xc) as one battery_check record.

    law1-reduction and law2-reduction close the law on the leaf x by the
    rewrite rules alone, within `budget` steps; a reduction that does not
    reach 0 fails, and its witness is what the rules left.
    law1-certificate and law2-certificate match the law on the compound
    xc against an exact generator combination; the witness is the
    difference.

    Each law runs once per distinct argument tuple: (s, t, x), (s, t, xc),
    (a, b, x) and (a, b, xc) in that order.  A repeated tuple reads the
    kept witness or None, or raises afresh the kept ModelDegreeError.  This
    is sound because a law reads only its arguments, the model's pure
    tables and this call's RuleSet, and draws nothing from the rng; the
    memo lives for the call, like the RuleSet.
    """
    from ..rewrite import RuleSet, reduce_element

    policy = policy or TruncationPolicy(default_locality=3)
    rng = random.Random(seed)
    rules = RuleSet(model, policy)
    lie = model.sample_symbols(("lie",)) or model.sample_symbols(("algebra",))
    comm = model.sample_symbols(FUNCTION_KINDS)
    everything = model.sample_symbols()

    # the trees of a sample share their leaves, so equality walks and
    # normal-form lookups stop at identity
    leaf = model.leaf

    def rand_monomial():
        kind = rng.randrange(3)
        if kind == 0:
            return leaf(rng.choice(everything))
        a = leaf(rng.choice(everything))
        b = leaf(rng.choice(everything))
        node = a.o(rng.randrange(-3, 2), b)
        if kind == 1:
            return node
        return node.o(rng.randrange(-3, 2), leaf(rng.choice(everything)))

    def draws():
        for _ in range(samples):
            yield dict(s=rng.choice(lie), t=rng.choice(lie), a=rng.choice(comm),
                       b=rng.choice(comm), x=leaf(rng.choice(everything)),
                       xc=rand_monomial())

    def reduced(diff):
        report = reduce_element(diff, rules, budget=budget)
        if report.status == "normal-form" and report.result.is_zero():
            return None
        return to_text(report.result)

    def certified(diff, cert):
        return None if diff == cert else to_text(diff - cert)

    # law 1: [s,t]_0 x = s_0(t_0 x) - koszul t_0(s_0 x)
    def law1(s, t, x):
        koszul = minus_one_pow(s.parity * t.parity)
        return (model.bracket(s, t).o(0, x) - leaf(s).o(0, leaf(t).o(0, x))
                + koszul * leaf(t).o(0, leaf(s).o(0, x)))

    # law 2: (ab)_{-1} x = a_{-1}(b_{-1} x)
    def law2(a, b, x):
        return model.mul(a, b).o(-1, x) - leaf(a).o(-1, leaf(b).o(-1, x))

    return battery_check(f"{model.name}-module-laws", draws(), {
        "law1-reduction": _once(
            ("s", "t", "x"), lambda s, t, x: reduced(law1(s, t, x))),
        "law1-certificate": _once(("s", "t", "xc"), lambda s, t, xc: certified(
            law1(s, t, xc),
            fam_qa(leaf(s), leaf(t), xc, 0, 0, policy)
            - fam_s(leaf(s), leaf(t), model).o(0, xc))),
        "law2-reduction": _once(
            ("a", "b", "x"), lambda a, b, x: reduced(law2(a, b, x))),
        "law2-certificate": _once(("a", "b", "xc"), lambda a, b, xc: certified(
            law2(a, b, xc), fam_am(leaf(a), leaf(b), xc, model))),
    })
