"""Rule-driven reduction and the structural projection, on one pass engine.

A RuleSet picks which root rules are active.  One pass rewrites every
node innermost-first, trying the enabled rules in the fixed RULE_ORDER.
reduce_element repeats passes to a fixpoint, bounded by a firing budget,
and applies the truncation policy after every pass.

R_project is the same engine under the named rule set PROJECTION_RULES:
the structural projection r of the polynomial-coefficient setting and its
fixpoint R.  Leaf-pair products at indices 0 and -1 fold into the model
tables and unit factors at -1 strip; everything else is left alone.  It
differs from the stock rules in one rule only: unit_left imposes the
vacuum axiom 1_(n) x = delta_{n,-1} x, while unit_identity rewrites
1 o_{-1} x to x and keeps 1 o_n x for n != -1.

A result of 0 certifies ideal membership; a nonzero normal form certifies
nothing (no confluence claim is made).
"""

from dataclasses import dataclass

from .generators import TruncationPolicy, _term_is_dead, truncate
from .terms import Element, Leaf, Node, fold_tree, term_length

RULE_ORDER = (
    "unit_left",
    "unit_identity",
    "bracket",
    "scalar",
    "unit_strip",
    "locality_kill",
    "e_orient",
    "right_scalar",
)

STOCK_RULES = ("unit_left", "bracket", "scalar", "unit_strip", "locality_kill")

PROJECTION_RULES = ("unit_identity", "bracket", "scalar", "unit_strip")


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

    # one root-level rule application; None when no rule matches
    def apply_at_root(self, t: Node, al):
        for rule in self.enabled:
            if rule == "unit_left":
                if isinstance(t.left, Leaf) and t.left.symbol.kind == "unit":
                    if t.index == -1:
                        return rule, Element.of_term(al, t.right)
                    return rule, Element.zero(al)
            elif rule == "unit_identity":
                if (
                    t.index == -1
                    and isinstance(t.left, Leaf)
                    and t.left.symbol.kind == "unit"
                ):
                    return rule, Element.of_term(al, t.right)
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


def _one_pass(x: Element, rules: RuleSet):
    """One innermost pass over every term: (result, rule firings)."""
    al = x.alphabet
    fired = 0

    # bottom-up: the left subtree, then the right one, then the rules at
    # every node of the children's product
    def leaf(s):
        return Element._trusted(al, {s: 1})

    def node(s, left, right):
        nonlocal fired
        acc = {}
        for lt, lc in left.terms.items():
            for rt, rc in right.terms.items():
                product = Node(s.index, lt, rt)
                hit = rules.apply_at_root(product, al)
                if hit is None:
                    image = Element._trusted(al, {product: 1})
                else:
                    fired += 1
                    image = hit[1]
                image._add_into(acc, lc * rc)
        return Element._trusted(al, acc)

    acc = {}
    for t, c in x.terms.items():
        fold_tree(t, leaf, node)._add_into(acc, c)
    return Element._trusted(al, acc), fired


def reduce_element(
    x: Element, rules: RuleSet, budget: int = 10000
) -> ReductionReport:
    """Innermost fixpoint under the enabled rules, reached at the first
    pass that fires none; truncation after every pass when the rule set
    carries a policy."""
    steps = 0
    current = truncate(x, rules.policy) if rules.policy else x
    while True:
        nxt, fired = _one_pass(current, rules)
        if fired == 0:
            return ReductionReport(current, steps, "normal-form")
        steps += fired
        current = truncate(nxt, rules.policy) if rules.policy else nxt
        if steps > budget:
            return ReductionReport(current, steps, "budget-exhausted")


def R_project(x: Element, model, budget: int = 1000) -> ReductionReport:
    """Fixpoint of the projection rules; steps and budget count passes.
    Every firing strictly drops the leaf count of its term, so the loop
    terminates, and a pass that fires cannot return its input (the largest
    term it rewrote loses its coefficient): the first pass with no firing
    is the fixpoint."""
    rules = RuleSet(model, None, PROJECTION_RULES)
    current, steps = x, 0
    while steps < budget:
        nxt, fired = _one_pass(current, rules)
        steps += 1
        if fired == 0:
            return ReductionReport(current, steps, "normal-form")
        current = nxt
    return ReductionReport(current, steps, "budget-exhausted")


def length_one_component(x: Element) -> Element:
    kept = {t: c for t, c in x.terms.items() if term_length(t) == 1}
    return Element(x.alphabet, kept)
