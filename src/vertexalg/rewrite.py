"""Rule-driven reduction and the structural projection, on one pass engine
and one driver.

A RuleSet enables entries of RULES, the one table of root rules, and one
pass rewrites every node innermost-first, trying them in RULES order.
reduce_element, the one driver, repeats passes to a fixpoint, bounded by
a firing budget.  A RuleSet's truncation policy is not a rule:
reduce_element truncates under it before the first pass and after every
pass, and truncate is the only place a dead product is dropped.

Normal-form marks (Baader & Nipkow, Term Rewriting and All That, 1998).
A RuleSet keeps the set `normal` of nodes on which a pass fired nothing,
anywhere below them.  A pass does not rebuild a node whose children are
leaves or marked nodes: it tries the root rules on the node as it stands
and, when none fires, marks it.  A term already marked is copied through
without a walk.  Rules are pure functions of the node and the model
tables, so the marks hold for as long as their RuleSet lives: a
check_module_laws battery keeps one, and the projection RuleSet of
R_project lives with its model, as the model's table memo does.  A
RuleSet stores no reports: a repeated reduction runs again, over marked
terms.

Every budget counts rule firings and is checked at each one: a pass gets
the allowance left, and a rule match past it is refused, its node kept as
it is and left unmarked.  The result is budget-exhausted iff a firing was
refused, so steps <= budget, and a reduction that needs exactly `budget`
firings reaches its normal form; an input already in normal form reaches
it at budget 0, with 0 steps.

R_project is reduce_element under the named rule set PROJECTION_RULES:
the structural projection r of the polynomial-coefficient setting and its
fixpoint R.  Products of leaf pairs at indices 0 and -1 fold into the
model tables and unit factors at -1 strip; everything else is left alone.  It
differs from the stock rules in one rule only: unit_left imposes the
vacuum axiom 1_(n) x = delta_{n,-1} x, while unit_identity rewrites
1 o_{-1} x to x and keeps 1 o_n x for n != -1.

A result of 0 certifies ideal membership; a nonzero normal form certifies
nothing (no confluence claim is made).
"""

from dataclasses import dataclass

from .generators import FUNCTION_KINDS, TruncationPolicy, truncate
from .terms import Element, Node, Symbol, fold_tree


def _unit_left(t: Node, al, model):
    # the vacuum axiom 1_(n) x = delta_{n,-1} x
    if t.left.__class__ is Symbol and t.left.kind == "unit":
        return Element.of_term(al, t.right) if t.index == -1 else Element.zero(al)


def _unit_identity(t: Node, al, model):
    if t.index == -1 and t.left.__class__ is Symbol and t.left.kind == "unit":
        return Element.of_term(al, t.right)


def _bracket(t: Node, al, model):
    if t.index == 0 and t.left.__class__ is t.right.__class__ is Symbol:
        return model.bracket(t.left, t.right)


def _scalar(t: Node, al, model):
    if (t.index == -1 and t.left.__class__ is t.right.__class__ is Symbol
            and t.left.kind in FUNCTION_KINDS):
        return model.act(t.left, t.right)


def _unit_strip(t: Node, al, model):
    if t.index == -1 and t.right.__class__ is Symbol and t.right.kind == "unit":
        return Element.of_term(al, t.left)


def _e_orient(t: Node, al, model):
    # (Dx) o_n y with Dx spelled x o_{-2} unit
    dx = t.left
    if (isinstance(dx, Node) and dx.index == -2 and dx.right.__class__ is Symbol
            and dx.right.kind == "unit"):
        inner = Element.of_term(al, dx.left)
        return (-t.index) * inner.o(t.index - 1, Element.of_term(al, t.right))


def _right_scalar(t: Node, al, model):
    if (t.index == -1 and t.left.__class__ is t.right.__class__ is Symbol
            and t.right.kind in FUNCTION_KINDS and t.left.kind not in FUNCTION_KINDS):
        return model.act(t.right, t.left)


# name -> (root rule, whether it reads the model tables), in pass order; a
# root rule maps a product node t to its image, or falls through to None
RULES = {
    "unit_left": (_unit_left, False),
    "unit_identity": (_unit_identity, False),
    "bracket": (_bracket, True),
    "scalar": (_scalar, True),
    "unit_strip": (_unit_strip, False),
    "e_orient": (_e_orient, False),
    "right_scalar": (_right_scalar, True),
}

RULE_ORDER = tuple(RULES)

STOCK_RULES = ("unit_left", "bracket", "scalar", "unit_strip")

UNIT_RULES = ("unit_left", "unit_strip")

PROJECTION_RULES = ("unit_identity", "bracket", "scalar", "unit_strip")


@dataclass(frozen=True)
class ReductionReport:
    result: Element
    steps: int
    status: str  # normal-form | budget-exhausted

    def __bool__(self):
        return self.status == "normal-form"


class RuleSet:
    def __init__(self, model=None, policy: TruncationPolicy = None, enabled=None):
        # STOCK_RULES is read at each call, not when the class is defined
        enabled = STOCK_RULES if enabled is None else enabled
        bad = [r for r in enabled if r not in RULES]
        if bad:
            raise ValueError(f"unknown rules: {bad}; known: {RULE_ORDER}")
        self.model = model
        self.policy = policy
        self.enabled = tuple(r for r in RULES if r in enabled)
        needs_model = [r for r in self.enabled if RULES[r][1]]
        if needs_model and model is None:
            raise ValueError(f"rules {sorted(needs_model)} need a model")
        self._rules = tuple((r, RULES[r][0]) for r in self.enabled)
        self.normal = set()  # nodes no enabled rule fires on, anywhere below

    # one root-level rule application; None when no rule matches
    def apply_at_root(self, t: Node, al):
        model = self.model
        for rule, apply in self._rules:
            image = apply(t, al, model)
            if image is not None:
                return rule, image


def _one_pass(x: Element, rules: RuleSet, allowance: int):
    """One innermost pass over every term: (result, firings, refused).

    A subtree the pass leaves as it is folds to None.  At most `allowance`
    rules fire; a match past it is refused, and after a refusal the pass
    marks nothing, since None no longer means normal."""
    al = x.alphabet
    normal = rules.normal
    fired = 0
    refused = False

    def fire(t):
        # the image of t under the first matching root rule; None when none
        # matches or the match is refused
        nonlocal fired, refused
        hit = rules.apply_at_root(t, al)
        if hit is None:
            return None
        if fired == allowance:
            refused = True
            return None
        fired += 1
        return hit[1]

    def leaf(s):
        return None

    def node(s, left, right):
        if left is None and right is None:
            if s in normal:
                return None
            image = fire(s)
            if image is None and not refused:
                normal.add(s)
            return image
        # a child changed: the rules at every product of the children's terms
        acc = {}
        for lt, lc in ({s.left: 1} if left is None else left.terms).items():
            for rt, rc in ({s.right: 1} if right is None else right.terms).items():
                product = Node(s.index, lt, rt)
                image = fire(product)
                if image is None:
                    image = Element._trusted(al, {product: 1})
                image._add_into(acc, lc * rc)
        return Element._trusted(al, acc)

    acc = {}
    for t, c in x.terms.items():
        image = None if t in normal else fold_tree(t, leaf, node)
        if image is None:
            image = Element._trusted(al, {t: 1})
        image._add_into(acc, c)
    return Element._trusted(al, acc), fired, refused


def reduce_element(
    x: Element, rules: RuleSet, budget: int = 10000
) -> ReductionReport:
    """The one reduction driver: innermost fixpoint under the enabled
    rules, reached at the first pass that fires none; truncation after
    every pass when the rule set carries a policy.  At most `budget` rules
    fire, and steps counts the firings; budget-exhausted means one more was
    due.  Nothing is stored but the RuleSet's marks: a repeated call runs
    again, and a reduction that raises (a table past its degree cap)
    raises on every call."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    steps = 0
    current = truncate(x, rules.policy)
    while True:
        nxt, fired, refused = _one_pass(current, rules, budget - steps)
        if not (fired or refused):
            return ReductionReport(current, steps, "normal-form")
        steps += fired
        current = truncate(nxt, rules.policy)
        if refused:
            return ReductionReport(current, steps, "budget-exhausted")


def R_project(x: Element, model, budget: int = 10000) -> ReductionReport:
    """reduce_element under PROJECTION_RULES, on the RuleSet the model
    keeps.  Every firing strictly drops the leaf count of its term, so the
    projection terminates."""
    rules = model.projection_rules
    if rules is None:
        rules = model.projection_rules = RuleSet(model, None, PROJECTION_RULES)
    return reduce_element(x, rules, budget)


def length_one_component(x: Element) -> Element:
    """The terms of x with one leaf: a term has one leaf iff it is a
    Symbol."""
    kept = {t: c for t, c in x.terms.items() if t.__class__ is Symbol}
    return Element._trusted(x.alphabet, kept)
