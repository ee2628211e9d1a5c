"""Rewrite rules, normal forms, and the structural projection."""

import dataclasses
import gc
import inspect
import re
import weakref
from fractions import Fraction as Q

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from vertexalg import rewrite
from vertexalg.collapse import COLLAPSE_RULES
from vertexalg.generators import FUNCTION_KINDS, TruncationPolicy, truncate
from vertexalg.models.base import ModelDegreeError
from vertexalg.models.factory import make_model, shipped_model
from vertexalg.parsing import parse, to_text
from vertexalg.rewrite import (
    PROJECTION_RULES,
    RULE_ORDER,
    RULES,
    STOCK_RULES,
    R_project,
    ReductionReport,
    RuleSet,
    length_one_component,
    reduce_element,
)
from vertexalg.terms import Alphabet, Element, Node, Symbol, term_length


@pytest.fixture(scope="module")
def weyl():
    return make_model("Weyl1")


@pytest.fixture(scope="module")
def diff():
    return make_model("DiffPoly")


@pytest.fixture(scope="module")
def diff8():
    # depth-2 trees over b, b2, 1 multiply at most four leaves, so they reach
    # b^8 at most; a cap of 8 keeps every such product inside the model
    return make_model("DiffPoly", {"max_degree": 8})


@pytest.fixture
def free():
    al = Alphabet()
    al.add(Symbol("a", 0, Q(1), "lie"))
    al.add(Symbol("b", 0, Q(1), "lie"))
    return al


def reduce_text(text, model, rules=None, policy=None):
    rs = rules or RuleSet(model, policy)
    x = parse(text, model.alphabet)
    return reduce_element(x, rs)


class TestUnitRules:
    def test_unit_at_minus_one_is_identity(self, diff):
        rep = reduce_text("o{-1}(1, b)", diff)
        assert rep
        assert rep.result == Element.sym(diff.alphabet, "b")

    def test_unit_elsewhere_annihilates(self, diff):
        rep = reduce_text("o{2}(1, b)", diff)
        assert rep.result.is_zero()
        assert rep.status == "normal-form"

    def test_unit_strip_on_right(self, diff):
        rep = reduce_text("o{-1}(b, 1)", diff)
        assert rep.result == Element.sym(diff.alphabet, "b")

    def test_unit_at_minus_two_on_right_survives(self, diff):
        # b o_{-2} 1 is D(b): no stock rule touches it
        rep = reduce_text("o{-2}(b, 1)", diff)
        assert rep.result == parse("o{-2}(b, 1)", diff.alphabet)
        assert rep.steps == 0


class TestModelRules:
    def test_weyl_bracket_gives_unit(self, weyl):
        rep = reduce_text("o{0}(del, b)", weyl)
        assert rep.result == Element.unit(weyl.alphabet)

    def test_diffpoly_brackets_vanish(self, diff):
        rep = reduce_text("o{0}(b, b2)", diff)
        assert rep.result.is_zero()

    def test_scalar_product_multiplies(self, diff):
        rep = reduce_text("o{-1}(b, b2)", diff)
        assert rep.result == Element.sym(diff.alphabet, "b3")

    def test_nested_reduction_runs_innermost_first(self, diff):
        rep = reduce_text("o{-1}(b, o{-1}(b, 1))", diff)
        assert rep.result == Element.sym(diff.alphabet, "b2")


class TestOrientRule:
    def test_derivative_leaf_orients(self, free):
        # (D a) o_3 b -> -3 * a o_2 b
        rs = RuleSet(enabled=("unit_left", "unit_strip", "e_orient"))
        a, b = Element.sym(free, "a"), Element.sym(free, "b")
        x = a.D().o(3, b)
        rep = reduce_element(x, rs)
        assert rep.result == -3 * a.o(2, b)

    def test_orient_then_strip(self, free):
        # (D a) o_0 b -> 0 * ... = 0
        rs = RuleSet(enabled=("unit_left", "unit_strip", "e_orient"))
        a, b = Element.sym(free, "a"), Element.sym(free, "b")
        rep = reduce_element(a.D().o(0, b), rs)
        assert rep.result.is_zero()


class TestLocalityRule:
    def test_matches_truncate(self, diff):
        pol = TruncationPolicy(2, level=6)
        rs = RuleSet(diff, pol, enabled=())
        al = diff.alphabet
        x = parse("o{3}(b, b2) + 5*o{1}(b, b4)", al)
        rep = reduce_element(x, rs)
        assert rep.result == truncate(x, pol)

    def test_needs_policy(self, diff):
        with pytest.raises(ValueError, match=r"unknown rules: \['locality_kill'\]"):
            RuleSet(diff, None, enabled=("locality_kill",))

    def test_stock_drops_kill_without_policy(self, diff):
        assert RuleSet(diff).enabled == STOCK_RULES
        assert RuleSet(diff, TruncationPolicy(2)).enabled == STOCK_RULES


# -- the rule table ---------------------------------------------------------------
#
# The reference is the root-rule chain RULES replaced, one branch per rule
# name: every entry of RULES must give the image it gives, or None, on every
# product of an enumerated grid.


def _reference_root(rule, t, al, model):
    if rule == "unit_left":
        if t.left.__class__ is Symbol and t.left.kind == "unit":
            if t.index == -1:
                return Element.of_term(al, t.right)
            return Element.zero(al)
    elif rule == "unit_identity":
        if t.index == -1 and t.left.__class__ is Symbol and t.left.kind == "unit":
            return Element.of_term(al, t.right)
    elif rule == "bracket":
        if (t.index == 0 and t.left.__class__ is Symbol
                and t.right.__class__ is Symbol):
            return model.bracket(t.left, t.right)
    elif rule == "scalar":
        if (t.index == -1 and t.left.__class__ is Symbol
                and t.right.__class__ is Symbol and t.left.kind in FUNCTION_KINDS):
            return model.act(t.left, t.right)
    elif rule == "unit_strip":
        if t.index == -1 and t.right.__class__ is Symbol and t.right.kind == "unit":
            return Element.of_term(al, t.left)
    elif rule == "e_orient":
        # (Dx) o_n y with Dx spelled x o_{-2} unit
        if (isinstance(t.left, Node) and t.left.index == -2
                and t.left.right.__class__ is Symbol
                and t.left.right.kind == "unit"):
            inner = Element.of_term(al, t.left.left)
            return (-t.index) * inner.o(t.index - 1, Element.of_term(al, t.right))
    elif rule == "right_scalar":
        if (t.index == -1 and t.left.__class__ is Symbol
                and t.right.__class__ is Symbol
                and t.right.kind in FUNCTION_KINDS
                and t.left.kind not in FUNCTION_KINDS):
            return model.act(t.right, t.left)
    else:
        raise AssertionError(f"no reference for rule {rule!r}")
    return None


def _root_outcome(apply, *args):
    try:
        return apply(*args)
    except ModelDegreeError:
        return "degree cap"


class TestRuleTable:
    @pytest.mark.parametrize("name", ("diffpoly", "weyl1"))
    def test_every_rule_matches_the_reference_chain(self, name):
        model = shipped_model(name)
        al = model.alphabet
        syms = [al.symbol(nm) for nm in al.names()]
        lefts = syms + list(parse("o{-2}(b, 1)", al).terms)
        grid = [Node(n, x, y) for x in lefts for y in syms for n in range(-3, 3)]
        fired = dict.fromkeys(RULES, 0)
        for rule, (apply, _) in RULES.items():
            for t in grid:
                want = _root_outcome(_reference_root, rule, t, al, model)
                got = _root_outcome(apply, t, al, model)
                assert got == want, (rule, t)
                fired[rule] += want is not None
        # the grid reaches every rule, right_scalar only where vector fields are
        assert [r for r, k in fired.items() if not k] == (
            ["right_scalar"] if name == "diffpoly" else [])

    def test_order_and_model_needs_come_from_the_table(self):
        assert RULE_ORDER == tuple(RULES)
        for rule, (_, reads_model) in RULES.items():
            if reads_model:
                need = re.escape(f"rules ['{rule}'] need a model")
                with pytest.raises(ValueError, match=need):
                    RuleSet(None, None, (rule,))
            else:
                assert RuleSet(None, None, (rule,)).enabled == (rule,)
        assert {r for r, (_, m) in RULES.items() if m} == {
            "bracket", "scalar", "right_scalar"}


class TestRuleSetValidation:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rules"):
            RuleSet(enabled=("unit_left", "mystery"))

    def test_model_rules_need_model(self):
        with pytest.raises(ValueError, match="model"):
            RuleSet(enabled=("bracket",))

    def test_constructor_orders_rules_canonically(self, diff):
        rs = RuleSet(diff, None, ("e_orient", "scalar", "unit_left"))
        assert rs.enabled == tuple(r for r in RULE_ORDER if r in rs.enabled)

    def test_stock_rule_inventory(self):
        assert set(STOCK_RULES) <= set(RULE_ORDER)
        assert STOCK_RULES[0] == "unit_left"


class TestBudget:
    def test_budget_exhaustion_reported(self, diff):
        # deep nesting with a tiny budget cannot finish
        al = diff.alphabet
        x = Element.sym(al, "b")
        for _ in range(12):
            x = Element.unit(al).o(-1, x)
        rep = reduce_element(x, RuleSet(diff), budget=3)
        assert not rep
        assert rep.status == "budget-exhausted"
        assert rep.steps == 3

    def test_exact_budget_reaches_the_normal_form(self, diff):
        # two firings, both in the first pass
        x = parse("o{-1}(1, o{-1}(1, b))", diff.alphabet)
        rep = reduce_element(x, RuleSet(diff), budget=2)
        assert (rep.result, rep.steps, rep.status) == (
            Element.sym(diff.alphabet, "b"), 2, "normal-form")
        short = reduce_element(x, RuleSet(diff), budget=1)
        assert (short.result, short.steps, short.status) == (
            parse("o{-1}(1, b)", diff.alphabet), 1, "budget-exhausted")

    def test_budget_zero_refuses_the_first_firing(self, diff):
        x = parse("o{-1}(1, b)", diff.alphabet)
        rep = reduce_element(x, RuleSet(diff), budget=0)
        assert (rep.result, rep.steps, rep.status) == (x, 0, "budget-exhausted")
        done = Element.sym(diff.alphabet, "b")
        rep = reduce_element(done, RuleSet(diff), budget=0)
        assert (rep.result, rep.steps, rep.status) == (done, 0, "normal-form")

    def test_projection_budget_counts_firings(self, diff):
        # one pass folds the whole chain in two firings; a budget of one
        # stops it after the inner product
        x = parse("o{-1}(b, o{-1}(b, b2))", diff.alphabet)
        assert R_project(x, diff).steps == 2
        rep = R_project(x, diff, budget=1)
        assert (rep.result, rep.steps, rep.status) == (
            parse("o{-1}(b, b3)", diff.alphabet), 1, "budget-exhausted")

    def test_a_projected_normal_form_needs_no_budget(self, diff):
        x = parse("o{1}(b, b2)", diff.alphabet)
        rep = R_project(x, diff, budget=0)
        assert (rep.result, rep.steps, rep.status) == (x, 0, "normal-form")

    @pytest.mark.parametrize("reduce", (
        lambda x, m: reduce_element(x, RuleSet(m), budget=-1),
        lambda x, m: R_project(x, m, budget=-1),
    ), ids=("reduce_element", "R_project"))
    def test_negative_budget_is_an_error(self, diff, reduce):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            reduce(Element.sym(diff.alphabet, "b"), diff)


class TestProjection:
    def test_folds_scalar_chain(self, diff):
        al = diff.alphabet
        x = parse("o{-1}(b, o{-1}(b, b2))", al)
        rep = R_project(x, diff)
        assert rep
        assert rep.result == Element.sym(al, "b4")

    def test_strips_units_both_sides(self, diff):
        al = diff.alphabet
        x = parse("o{-1}(1, o{-1}(b, 1))", al)
        assert R_project(x, diff).result == Element.sym(al, "b")
        x = parse("o{-1}(1, o{1}(b, b2))", al)
        assert R_project(x, diff).result == parse("o{1}(b, b2)", al)

    def test_unit_off_minus_one_survives(self, diff):
        # the projection keeps 1 o_n x for n != -1; the stock vacuum axiom
        # 1_(n) x = delta_{n,-1} x kills it
        al = diff.alphabet
        x = parse("o{2}(1, b)", al)
        rep = R_project(x, diff)
        assert rep.status == "normal-form"
        assert rep.result == x
        assert reduce_element(x, RuleSet(diff)).result.is_zero()

    def test_leaves_are_fixed(self, diff):
        al = diff.alphabet
        for nm in ("b", "b3", "b6"):
            x = Element.sym(al, nm)
            rep = R_project(x, diff)
            assert rep.result == x
            assert rep.steps == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 30))
    def test_idempotent(self, diff8, seed):
        import random

        rng = random.Random(seed)
        al = diff8.alphabet
        pool = ["b", "b2", "1"]

        def tree(depth):
            if depth == 0 or rng.random() < 0.4:
                return Element.sym(al, rng.choice(pool))
            return tree(depth - 1).o(rng.choice([-1, 0]), tree(depth - 1))

        x = tree(2) + tree(2)
        once = R_project(x, diff8).result
        twice = R_project(once, diff8).result
        assert once == twice


# -- normal-form marks ----------------------------------------------------------
#
# The engine copies marked nodes through untried.  The reference below has no
# marks: it rebuilds every node bottom-up, left subtree first, and tries the
# root rules at every product of its children's images, under the same
# firing allowance.  On any element, with a fresh RuleSet or with one warmed
# on earlier reductions, the two must agree on result, steps and status.


def _reference_pass(x, rules, allowance):
    al = x.alphabet
    fired, refused = 0, False

    def image(t):
        nonlocal fired, refused
        if isinstance(t, Symbol):
            return Element.of_term(al, t)
        left, right = image(t.left), image(t.right)
        out = Element.zero(al)
        for lt, lc in left.terms.items():
            for rt, rc in right.terms.items():
                product = Node(t.index, lt, rt)
                hit = rules.apply_at_root(product, al)
                if hit is not None and fired == allowance:
                    refused, hit = True, None
                if hit is None:
                    out = out + lc * rc * Element.of_term(al, product)
                else:
                    fired += 1
                    out = out + lc * rc * hit[1]
        return out

    total = Element.zero(al)
    for t, c in x.terms.items():
        total = total + c * image(t)
    return total, fired, refused


def _reference_reduce(x, rules, budget):
    def cut(y):
        return truncate(y, rules.policy) if rules.policy else y

    steps, current = 0, cut(x)
    while True:
        nxt, fired, refused = _reference_pass(current, rules, budget - steps)
        if not (fired or refused):
            return ReductionReport(current, steps, "normal-form")
        steps += fired
        current = cut(nxt)
        if refused:
            return ReductionReport(current, steps, "budget-exhausted")


def _reference_project(x, model, budget=1000):
    """The projection as its own pass-counting loop, over the mark-free
    reference pass: steps and budget count passes, and the first pass that
    fires nothing is the fixpoint."""
    rules = RuleSet(model, None, PROJECTION_RULES)
    current, steps = x, 0
    while steps < budget:
        nxt, fired, _ = _reference_pass(current, rules, None)
        steps += 1
        if fired == 0:
            return ReductionReport(current, steps, "normal-form")
        current = nxt
    return ReductionReport(current, steps, "budget-exhausted")


def _outcome(reduce, x, rules, budget):
    try:
        rep = reduce(x, rules, budget)
    except ModelDegreeError:
        return "degree cap"
    return rep.result, rep.steps, rep.status


def _mark_faults(make, cases):
    """Reductions on which the engine and the reference disagree.  Each
    element is reduced at its budget and then in full, under a fresh
    RuleSet and twice under one RuleSet shared with every reduction
    before, so the later answers run over its marks."""
    warm = make()
    faults = []
    for x, budget in cases:
        for b in (budget, 10000):
            want = _outcome(_reference_reduce, x, make(), b)
            for rules in (make(), warm, warm):
                got = _outcome(reduce_element, x, rules, b)
                if got != want:
                    faults.append((to_text(x), b, got, want))
    return faults


def _elements(al, names):
    leaf = st.sampled_from([al.symbol(n) for n in names])
    tree = st.recursive(
        leaf, lambda kids: st.builds(Node, st.integers(-3, 1), kids, kids),
        max_leaves=4)
    return st.dictionaries(
        tree, st.sampled_from((1, -1, 2, Q(1, 2))), min_size=1, max_size=3
    ).map(lambda terms: Element(al, terms))


def _cases(al, names):
    return st.lists(st.tuples(_elements(al, names), st.integers(0, 5)),
                    min_size=1, max_size=4)


@pytest.fixture(scope="module")
def mark_rule_sets():
    """name -> (RuleSet factory, alphabet, leaf names)"""
    diff, weyl = make_model("DiffPoly"), make_model("Weyl1")
    policy = TruncationPolicy(2, level=4)
    free = Alphabet()
    free.add(Symbol("a", 0, Q(1), "lie"))
    return {
        "stock": (lambda: RuleSet(diff, policy), diff.alphabet, ("1", "b")),
        "projection": (lambda: RuleSet(diff, None, PROJECTION_RULES),
                       diff.alphabet, ("1", "b")),
        "collapse": (lambda: RuleSet(weyl, None, COLLAPSE_RULES),
                     weyl.alphabet, ("1", "b", "del", "bdel")),
        # the unit rules of sheaf_axiom_check's unit-strip hop
        "sheaf-unit": (lambda: RuleSet(None, None, ("unit_left", "unit_strip")),
                       free, ("1", "a")),
    }


MARK_RULE_SETS = ("stock", "projection", "collapse", "sheaf-unit")


class TestNormalFormMarks:
    @pytest.mark.parametrize("name", MARK_RULE_SETS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_engine_matches_the_mark_free_reference(self, mark_rule_sets, name, data):
        make, al, names = mark_rule_sets[name]
        assert _mark_faults(make, data.draw(_cases(al, names))) == []

    def test_marks_outlive_a_reduction(self, diff):
        rules = RuleSet(diff)
        x = parse("o{1}(b, b2) + o{-2}(b, 1)", diff.alphabet)
        reduce_element(x, rules)
        assert set(x.terms) <= rules.normal
        assert reduce_element(x, rules).result == x

    # each mutant moves the one place a node is marked
    MARK_SITE = "if image is None and not refused:"

    @pytest.mark.parametrize("name", MARK_RULE_SETS)
    @pytest.mark.parametrize("mutant", (
        "if not refused:",  # marks a node a rule just fired on
        "if image is None:",  # marks a node after a refusal
    ), ids=("mark-after-firing", "mark-after-refusal"))
    def test_mark_mutants_fail_the_property(self, monkeypatch, mark_rule_sets,
                                            name, mutant):
        src = inspect.getsource(rewrite._one_pass)
        assert src.count(self.MARK_SITE) == 1, "the mark site moved"
        namespace = dict(vars(rewrite))
        exec(src.replace(self.MARK_SITE, mutant), namespace)
        monkeypatch.setattr(rewrite, "_one_pass", namespace["_one_pass"])
        make, al, names = mark_rule_sets[name]
        cases = find(_cases(al, names), lambda c: bool(_mark_faults(make, c)),
                     settings=settings(max_examples=500, database=None,
                                       phases=(Phase.generate,)))
        assert _mark_faults(make, cases)


class TestProjectionDriver:
    # R_project is reduce_element on the model's kept projection RuleSet,
    # warmed here across examples; at a budget neither side exhausts it
    # must agree with the pass-counting loop on result and status
    MODELS = {"diffpoly": ("DiffPoly", ("1", "b", "b2")),
              "weyl1": ("Weyl1", ("1", "b", "del", "bdel"))}

    @pytest.fixture(scope="class")
    def models(self):
        return {name: make_model(kind) for name, (kind, _) in self.MODELS.items()}

    @pytest.mark.parametrize("name", tuple(MODELS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_projection_matches_the_pass_counting_loop(self, models, name, data):
        model = models[name]
        x = data.draw(_elements(model.alphabet, self.MODELS[name][1]))
        outcomes = []
        for project in (R_project, _reference_project):
            try:
                rep = project(x, model)
            except ModelDegreeError:
                outcomes.append("degree cap")
            else:
                assert rep.status == "normal-form"
                outcomes.append(rep.result)
        assert outcomes[0] == outcomes[1]


class TestStoredReports:
    # a RuleSet keeps its marks between calls and no report: a repeated
    # call runs again under its own budget
    def test_a_repeated_call_obeys_its_budget(self, diff):
        rules = RuleSet(diff)
        x = parse("o{-1}(1, b)", diff.alphabet)
        assert reduce_element(x, rules, budget=0).status == "budget-exhausted"
        assert reduce_element(x, rules, budget=10000).status == "normal-form"
        assert reduce_element(x, rules, budget=0).status == "budget-exhausted"

    def test_a_degree_cap_raises_on_every_call(self):
        model = make_model("DiffPoly", {"max_degree": 4})
        rules = RuleSet(model)
        x = parse("o{-1}(b2, b3)", model.alphabet)
        for _ in range(2):
            with pytest.raises(ModelDegreeError):
                reduce_element(x, rules)

    def test_reports_are_frozen(self, diff):
        rep = reduce_element(Element.sym(diff.alphabet, "b"), RuleSet(diff))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.steps = 1

    def test_projection_marks_live_with_the_model(self, diff):
        x = parse("o{1}(b, o{-1}(b, b2)) + o{2}(1, o{-1}(1, b))", diff.alphabet)
        fixpoint = R_project(x, diff).result
        assert fixpoint == parse("o{1}(b, b3) + o{2}(1, b)", diff.alphabet)
        assert set(fixpoint.terms) <= diff.projection_rules.normal
        assert R_project(fixpoint, diff).steps == 0

    def test_projection_rules_die_with_their_model(self):
        model = make_model("DiffPoly")
        ref = weakref.ref(model)
        R_project(parse("o{1}(b, o{-1}(b, b2))", model.alphabet), model)
        del model
        gc.collect()
        assert ref() is None


class TestTruncationCut:
    # the policy is applied by truncate after every pass, so no reduction
    # under a policy leaves a product that truncate would drop
    MODELS = {"diffpoly": ("DiffPoly", ("1", "b", "b2")),
              "weyl1": ("Weyl1", ("1", "b", "del", "bdel"))}

    @pytest.mark.parametrize("name", tuple(MODELS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_results_are_truncated(self, name, data):
        kind, names = self.MODELS[name]
        model = make_model(kind)
        pol = TruncationPolicy(data.draw(st.integers(0, 3), label="locality"))
        leaf = st.sampled_from([model.alphabet.symbol(n) for n in names])
        tree = st.recursive(
            leaf, lambda kids: st.builds(Node, st.integers(-3, 6), kids, kids),
            max_leaves=4)
        x = data.draw(st.dictionaries(tree, st.sampled_from((1, -1, 2)),
                                      min_size=1, max_size=3)
                       .map(lambda terms: Element(model.alphabet, terms)))
        try:
            r = reduce_element(x, RuleSet(model, pol))
        except ModelDegreeError:
            return
        assert truncate(r.result, pol) == r.result


class TestDeepTerms:
    def test_deep_tower_reduces_and_projects(self, diff):
        # a 1500-deep D tower: no rule fires on o_{-2}(x, 1), and the pass
        # engine must not recurse per level to find that out
        x = Element.sym(diff.alphabet, "b").D_pow(1500)
        for rep in (R_project(x, diff), reduce_element(x, RuleSet(diff))):
            assert rep.status == "normal-form"
            assert rep.result == x


class TestLengthOne:
    def test_filters_by_leaf_count(self, diff):
        al = diff.alphabet
        b = Element.sym(al, "b")
        x = 3 * b + b.o(1, b) + Element.unit(al)
        got = length_one_component(x)
        assert got == 3 * b + Element.unit(al)

    def test_zero_passthrough(self, diff):
        z = Element.zero(diff.alphabet)
        assert length_one_component(z).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_keeps_the_one_leaf_terms_in_order(self, diff, data):
        x = data.draw(_elements(diff.alphabet, ("1", "b", "b2")))
        want = [(t, c) for t, c in x.terms.items() if term_length(t) == 1]
        assert list(length_one_component(x).terms.items()) == want
