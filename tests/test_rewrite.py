"""Rewrite rules, normal forms, and the structural projection."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from vertexalg.generators import TruncationPolicy, truncate
from vertexalg.models.factory import make_model
from vertexalg.parsing import parse
from vertexalg.rewrite import (
    RULE_ORDER,
    STOCK_RULES,
    R_project,
    RuleSet,
    length_one_component,
    reduce_element,
)
from vertexalg.terms import Alphabet, Element, Symbol


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
    rs = rules or RuleSet.stock(model, policy)
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
        rs = RuleSet(diff, pol, enabled=("locality_kill",))
        al = diff.alphabet
        x = parse("o{3}(b, b2) + 5*o{1}(b, b4)", al)
        rep = reduce_element(x, rs)
        assert rep.result == truncate(x, pol)

    def test_needs_policy(self, diff):
        with pytest.raises(ValueError, match="policy"):
            RuleSet(diff, None, enabled=("locality_kill",))

    def test_stock_drops_kill_without_policy(self, diff):
        rs = RuleSet.stock(diff)
        assert "locality_kill" not in rs.enabled
        rs2 = RuleSet.stock(diff, TruncationPolicy(2))
        assert "locality_kill" in rs2.enabled


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
        rep = reduce_element(x, RuleSet.stock(diff), budget=3)
        assert not rep
        assert rep.status == "budget-exhausted"
        assert rep.steps > 3


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
        assert reduce_element(x, RuleSet.stock(diff)).result.is_zero()

    def test_leaves_are_fixed(self, diff):
        al = diff.alphabet
        for nm in ("b", "b3", "b6"):
            x = Element.sym(al, nm)
            rep = R_project(x, diff)
            assert rep.result == x
            assert rep.steps == 1

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


class TestDeepTerms:
    def test_deep_tower_reduces_and_projects(self, diff):
        # a 1500-deep D tower: no rule fires on o_{-2}(x, 1), and the pass
        # engine must not recurse per level to find that out
        x = Element.sym(diff.alphabet, "b").D_pow(1500)
        for rep in (R_project(x, diff), reduce_element(x, RuleSet.stock(diff))):
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
