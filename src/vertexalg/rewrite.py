"""Projection to normal form and bounded rule-driven reduction.

Two engines share the plumbing here.  R_project implements the structural
projection r and its fixpoint R: leaf-pair products at indices 0 and -1
fold into the model tables, unit factors at -1 strip, everything else is
left alone.  reduce is the general bounded engine: a RuleSet picks which
orientations are active, passes run innermost-first with the rules tried
in a fixed order, and the truncation policy is applied after every pass.

A result of 0 certifies ideal membership; a nonzero normal form certifies
nothing (no confluence claim is made).
"""

from dataclasses import dataclass

from .generators import TruncationPolicy, _term_is_dead, truncate
from .terms import Element, Leaf, Node, term_length

RULE_ORDER = (
    "unit_left",
    "bracket",
    "scalar",
    "unit_strip",
    "locality_kill",
    "e_orient",
    "right_scalar",
)

STOCK_RULES = ("unit_left", "bracket", "scalar", "unit_strip", "locality_kill")


@dataclass
class ReductionReport:
    result: Element
    steps: int
    status: str  # normal-form | budget-exhausted

    def __bool__(self):
        return self.status == "normal-form"


class RuleSet:
    def __init__(self, model=None, policy: TruncationPolicy = None, enabled=STOCK_RULES):
        bad = [r for r in enabled if r not in RULE_ORDER]
        if bad:
            raise ValueError(f"unknown rules: {bad}; known: {RULE_ORDER}")
        self.model = model
        self.policy = policy
        self.enabled = tuple(r for r in RULE_ORDER if r in enabled)
        needs_model = {"bracket", "scalar", "right_scalar"} & set(self.enabled)
        if needs_model and model is None:
            raise ValueError(f"rules {sorted(needs_model)} need a model")
        if "locality_kill" in self.enabled and policy is None:
            raise ValueError("locality_kill needs a truncation policy")

    @staticmethod
    def stock(model, policy: TruncationPolicy = None) -> "RuleSet":
        enabled = STOCK_RULES if policy is not None else tuple(
            r for r in STOCK_RULES if r != "locality_kill"
        )
        return RuleSet(model, policy, enabled)

    def with_rules(self, *names) -> "RuleSet":
        return RuleSet(self.model, self.policy, tuple(set(self.enabled) | set(names)))

    # one root-level rule application; None when no rule matches
    def apply_at_root(self, t: Node, al):
        for rule in self.enabled:
            if rule == "unit_left":
                if isinstance(t.left, Leaf) and t.left.symbol.kind == "unit":
                    if t.index == -1:
                        return rule, Element.of_term(al, t.right)
                    return rule, Element.zero(al)
            elif rule == "bracket":
                if (
                    t.index == 0
                    and isinstance(t.left, Leaf)
                    and isinstance(t.right, Leaf)
                ):
                    return rule, self.model.bracket(t.left.symbol, t.right.symbol)
            elif rule == "scalar":
                if (
                    t.index == -1
                    and isinstance(t.left, Leaf)
                    and isinstance(t.right, Leaf)
                    and t.left.symbol.kind in ("algebra", "unit")
                ):
                    return rule, self.model.act(t.left.symbol, t.right.symbol)
            elif rule == "unit_strip":
                if (
                    t.index == -1
                    and isinstance(t.right, Leaf)
                    and t.right.symbol.kind == "unit"
                ):
                    return rule, Element.of_term(al, t.left)
            elif rule == "locality_kill":
                if (
                    isinstance(t.left, Leaf)
                    and isinstance(t.right, Leaf)
                    and _term_is_dead(t, self.policy)
                ):
                    return rule, Element.zero(al)
            elif rule == "e_orient":
                # (Dx) o_n y with Dx spelled x o_{-2} unit
                if (
                    isinstance(t.left, Node)
                    and t.left.index == -2
                    and isinstance(t.left.right, Leaf)
                    and t.left.right.symbol.kind == "unit"
                ):
                    inner = Element.of_term(al, t.left.left)
                    return rule, (-t.index) * inner.o(
                        t.index - 1, Element.of_term(al, t.right)
                    )
            elif rule == "right_scalar":
                if (
                    t.index == -1
                    and isinstance(t.left, Leaf)
                    and isinstance(t.right, Leaf)
                    and t.right.symbol.kind in ("algebra", "unit")
                    and t.left.symbol.kind not in ("algebra", "unit")
                ):
                    return rule, self.model.act(t.right.symbol, t.left.symbol)
        return None


def _one_pass(x: Element, rules: RuleSet, counter: list) -> Element:
    acc = {}
    for t, c in x.sorted_terms():
        _pass_term(t, x.alphabet, rules, counter)._add_into(acc, c)
    return Element._trusted(x.alphabet, acc)


def _pass_term(t, al, rules: RuleSet, counter: list) -> Element:
    if isinstance(t, Leaf):
        return Element.of_term(al, t)
    left = _pass_term(t.left, al, rules, counter)
    right = _pass_term(t.right, al, rules, counter)
    acc = {}
    for lt, lc in left.sorted_terms():
        for rt, rc in right.sorted_terms():
            node = Node(t.index, lt, rt)
            hit = rules.apply_at_root(node, al)
            if hit is None:
                Element.of_term(al, node)._add_into(acc, lc * rc)
            else:
                counter[0] += 1
                hit[1]._add_into(acc, lc * rc)
    return Element._trusted(al, acc)


def reduce_element(
    x: Element, rules: RuleSet, budget: int = 10000
) -> ReductionReport:
    """Innermost fixpoint under the enabled rules; truncation after every
    pass when the rule set carries a policy."""
    counter = [0]
    current = truncate(x, rules.policy) if rules.policy else x
    while True:
        before = counter[0]
        nxt = _one_pass(current, rules, counter)
        if rules.policy:
            nxt = truncate(nxt, rules.policy)
        if counter[0] == before and nxt == current:
            return ReductionReport(current, counter[0], "normal-form")
        current = nxt
        if counter[0] > budget:
            return ReductionReport(current, counter[0], "budget-exhausted")


# the structural projection of the polynomial-coefficient setting -------------


def r_step(x: Element, model) -> Element:
    """One structural pass: children first, then fold leaf pairs at 0/-1
    into the model tables and strip unit factors at -1."""
    acc = {}
    for t, c in x.sorted_terms():
        _r_term(t, x.alphabet, model)._add_into(acc, c)
    return Element._trusted(x.alphabet, acc)


def _r_term(t, al, model) -> Element:
    if isinstance(t, Leaf):
        return Element.of_term(al, t)
    left = _r_term(t.left, al, model)
    right = _r_term(t.right, al, model)
    acc = {}
    for lt, lc in left.sorted_terms():
        for rt, rc in right.sorted_terms():
            _r_root(lt, t.index, rt, al, model)._add_into(acc, lc * rc)
    return Element._trusted(al, acc)


def _r_root(lt, n, rt, al, model) -> Element:
    if n == -1 and isinstance(lt, Leaf) and lt.symbol.kind == "unit":
        return Element.of_term(al, rt)
    if n == -1 and isinstance(rt, Leaf) and rt.symbol.kind == "unit":
        return Element.of_term(al, lt)
    if isinstance(lt, Leaf) and isinstance(rt, Leaf):
        if n == 0:
            return model.bracket(lt.symbol, rt.symbol)
        if n == -1 and lt.symbol.kind in ("algebra", "unit"):
            return model.act(lt.symbol, rt.symbol)
    return Element.of_term(al, Node(n, lt, rt))


def R_project(x: Element, model, budget: int = 1000) -> ReductionReport:
    """Fixpoint of r_step.  Terminates: every fold strictly drops the total
    leaf count of the terms it touches."""
    current = x
    steps = 0
    while steps < budget:
        nxt = r_step(current, model)
        steps += 1
        if nxt == current:
            return ReductionReport(current, steps, "normal-form")
        current = nxt
    return ReductionReport(current, steps, "budget-exhausted")


def length_one_component(x: Element) -> Element:
    kept = {t: c for t, c in x.terms.items() if term_length(t) == 1}
    return Element(x.alphabet, kept)
