"""Structure-preserving maps between models and the functor-law checks."""

import random
from fractions import Fraction as Q

import pytest

from vertexalg.models.factory import _name_exp, shipped_model, vf_name
from vertexalg.models.morphisms import (
    Morphism,
    functor_laws,
    identity_morphism,
    random_element,
    shipped_morphisms,
    validate_morphism,
)
from vertexalg.parsing import parse, to_text
from vertexalg.terms import Element

LAW_IDS = {"bracket", "product", "action"}


@pytest.fixture(scope="module")
def diffpoly():
    return shipped_model("diffpoly")


@pytest.fixture(scope="module")
def weyl():
    return shipped_model("weyl1")


class TestShippedPairs:
    def test_diffpoly_names(self, diffpoly):
        phi, psi = shipped_morphisms(diffpoly)
        assert (phi.name, psi.name) == ("double", "shift")

    def test_weyl_names(self, weyl):
        phi, psi = shipped_morphisms(weyl)
        assert (phi.name, psi.name) == ("scale", "shift")

    @pytest.mark.parametrize("model_name", ("diffpoly", "weyl1"))
    def test_validation_green(self, model_name):
        model = shipped_model(model_name)
        for phi in shipped_morphisms(model):
            checks = validate_morphism(phi)
            # a model with no Lie symbol has no action case, and no record
            laws = LAW_IDS if model.symbols(("lie",)) else LAW_IDS - {"action"}
            assert {c["id"] for c in checks} >= laws
            assert all(c["cases"] >= 1 for c in checks), checks
            bad = [c for c in checks if c["status"] != "pass"]
            assert not bad, (phi.name, bad)


    def test_wrong_image_fails_with_symbol_witness(self, diffpoly):
        # the identity except b -> 2b: b*b = b2 maps to b2, not (2b)(2b)
        table = dict(identity_morphism(diffpoly).table)
        table["b"] = 2 * Element.sym(diffpoly.alphabet, "b")
        bad = Morphism("bad", diffpoly, diffpoly, table)
        checks = {c["id"]: c for c in validate_morphism(bad)}
        assert checks["product"]["status"] == "fail"
        assert checks["product"]["witness"] == "b, b"
        assert [c["status"] for c in checks.values()].count("fail") == 1

    def test_doubled_vector_field_fails_bracket_and_action(self, weyl):
        # the identity except del -> 2 del: [b, del] = -1 maps to -1, not
        # [b, 2 del] = -2, and b.del = b del maps to b del, not 2 b del
        table = dict(identity_morphism(weyl).table)
        table["del"] = 2 * Element.sym(weyl.alphabet, "del")
        checks = {c["id"]: c for c in validate_morphism(
            Morphism("bad", weyl, weyl, table))}
        assert checks["bracket"] == {
            "id": "bracket", "status": "fail", "cases": 22, "witness": "b, del"}
        assert checks["action"] == {
            "id": "action", "status": "fail", "cases": 8, "witness": "b, del"}
        assert checks["product"]["status"] == "pass"


def _reference_tables(model) -> dict:
    """The shipped tables built one power at a time: the image of b^k is k
    products by the image of b, starting from 1."""
    al = model.alphabet
    rules = {"diffpoly": {"double": (Q(2), False, 1), "shift": (Q(1), True, 1)},
             "weyl1": {"scale": (Q(2), False, Q(1, 2)), "shift": (Q(1), True, Q(1))}}

    def image(k, vf, scale_b, shift, scale_del):
        base = Element.sym(al, "b", scale_b)
        if shift:
            base = base + Element.unit(al)
        img = Element.unit(al)
        for _ in range(k):
            img = model.mul_elem(img, base)
        if not vf:
            return img
        out = Element.zero(al)
        for t, c in img.terms.items():
            out = out + Element.sym(al, vf_name(_name_exp(t.name)[0]), c * scale_del)
        return out

    return {name: {s.name: image(*_name_exp(s.name), *rule)
                   for s in model.symbols() if s.kind != "unit"}
            for name, rule in rules[model.name].items()}


@pytest.mark.parametrize("model_name", ("diffpoly", "weyl1"))
def test_shipped_tables_match_the_power_by_power_rule(model_name):
    model = shipped_model(model_name)
    reference = _reference_tables(model)
    for phi in shipped_morphisms(model):
        want = reference[phi.name]
        assert list(phi.table) == list(want)
        for name, img in phi.table.items():
            # term for term, in order, with the same coefficient types
            assert [(t, c, type(c)) for t, c in img.terms.items()] == [
                (t, c, type(c)) for t, c in want[name].terms.items()], (phi.name, name)


class TestImages:
    def test_doubling_scales_powers(self, diffpoly):
        phi, _ = shipped_morphisms(diffpoly)
        al = diffpoly.alphabet
        # b -> 2b so b2 -> 4 b2
        assert phi.apply(Element.sym(al, "b")) == 2 * Element.sym(al, "b")
        assert phi.apply(Element.sym(al, "b2")) == 4 * Element.sym(al, "b2")

    def test_shift_binomial_expands(self, diffpoly):
        _, psi = shipped_morphisms(diffpoly)
        al = diffpoly.alphabet
        # b2 -> (b+1)^2 = b2 + 2b + 1
        want = (
            Element.sym(al, "b2")
            + 2 * Element.sym(al, "b")
            + Element.unit(al)
        )
        assert psi.apply(Element.sym(al, "b2")) == want

    def test_weyl_scale_preserves_canonical_pair(self, weyl):
        # b -> 2b, del -> del/2 keeps [del, b] = 1
        phi, _ = shipped_morphisms(weyl)
        al = weyl.alphabet
        db = phi.apply(Element.sym(al, "b"))
        ddel = phi.apply(Element.sym(al, "del"))
        assert db == 2 * Element.sym(al, "b")
        assert ddel == Q(1, 2) * Element.sym(al, "del")

    def test_apply_is_linear_on_trees(self, diffpoly):
        phi, _ = shipped_morphisms(diffpoly)
        al = diffpoly.alphabet
        b = Element.sym(al, "b")
        x = 3 * b.o(1, b) - b
        # image of a product is the product of images at the same index
        assert phi.apply(x) == 3 * (2 * b).o(1, 2 * b) - 2 * b

    def test_deep_tower_maps(self, diffpoly):
        # the induced map walks the tree without recursion
        phi, psi = shipped_morphisms(diffpoly)
        al = diffpoly.alphabet
        b, one = Element.sym(al, "b"), Element.unit(al)
        assert phi.apply(b.D_pow(1500)) == 2 * b.D_pow(1500)
        assert psi.apply(b.D_pow(1500)) == b.D_pow(1500) + one.D_pow(1500)

    def test_unit_fixed(self, diffpoly):
        phi, psi = shipped_morphisms(diffpoly)
        one = Element.unit(diffpoly.alphabet)
        assert phi.apply(one) == one
        assert psi.apply(one) == one

    def test_images_must_be_over_the_target(self, diffpoly, weyl):
        with pytest.raises(ValueError, match=r"^images of \['b'\] are not over "
                           "the target alphabet$"):
            Morphism("bad", weyl, weyl, {"b": Element.sym(diffpoly.alphabet, "b")})


class TestRefusals:
    def test_the_unit_is_no_table_key(self, diffpoly):
        one = Element.unit(diffpoly.alphabet)
        with pytest.raises(ValueError, match="^the unit maps to the unit; leave it out$"):
            Morphism("bad", diffpoly, diffpoly, {one.alphabet.unit.name: one})

    def test_a_symbol_without_an_image_is_a_key_error(self, diffpoly):
        partial = Morphism("partial", diffpoly, diffpoly, {})
        with pytest.raises(KeyError) as exc:
            partial.image_of_symbol(diffpoly.alphabet.symbol("b"))
        assert exc.value.args == ("morphism partial has no image for 'b'",)

    def test_compose_needs_matching_models(self, diffpoly, weyl):
        phi, _ = shipped_morphisms(diffpoly)
        psi, _ = shipped_morphisms(weyl)
        with pytest.raises(ValueError,
                           match="^composition needs inner.target == self.source$"):
            phi.compose(psi)

    def test_a_model_without_shipped_morphisms_is_refused(self):
        with pytest.raises(ValueError,
                           match="^no shipped morphisms for model 'current2'$"):
            shipped_morphisms(shipped_model("current2"))


class TestComposition:
    def test_identity_fixes_everything(self, diffpoly):
        ident = identity_morphism(diffpoly)
        rng = random.Random(5)
        for _ in range(20):
            x = random_element(diffpoly, rng)
            assert ident.apply(x) == x

    def test_compose_matches_sequential_apply(self, diffpoly):
        phi, psi = shipped_morphisms(diffpoly)
        comp = phi.compose(psi)
        rng = random.Random(9)
        for _ in range(20):
            x = random_element(diffpoly, rng)
            assert comp.apply(x) == phi.apply(psi.apply(x))

    def test_repr_names_the_composite(self, diffpoly):
        phi, psi = shipped_morphisms(diffpoly)
        assert repr(phi.compose(psi)) == (
            "Morphism(double*shift: diffpoly -> diffpoly)")

    def test_double_then_shift_on_b(self, diffpoly):
        # (double . shift)(b) = double(b + 1) = 2b + 1
        phi, psi = shipped_morphisms(diffpoly)
        al = diffpoly.alphabet
        got = phi.compose(psi).apply(Element.sym(al, "b"))
        assert got == 2 * Element.sym(al, "b") + Element.unit(al)


class TestFunctorLaws:
    @pytest.mark.parametrize("model_name", ("diffpoly", "weyl1"))
    def test_laws_pass(self, model_name):
        model = shipped_model(model_name)
        phi, psi = shipped_morphisms(model)
        report = functor_laws(phi, psi, samples=25, seed=4)
        assert report["id"] == f"functor-laws-{model_name}"
        assert report["status"] == "pass"
        assert "witness" not in report
        assert report["cases"] == 25
        assert report["counts"]["identity"] == 25
        assert report["counts"]["composition"] == 25
        assert report["counts"]["i-family"] == 25

    def test_deterministic_per_seed(self, diffpoly):
        phi, psi = shipped_morphisms(diffpoly)
        a = functor_laws(phi, psi, samples=10, seed=2)
        b = functor_laws(phi, psi, samples=10, seed=2)
        assert a == b

    def test_scaled_image_fails_the_a_family(self, monkeypatch, diffpoly):
        # b -> 6b breaks the product law phi(b b') = phi(b) phi(b'), which
        # the a-family instance a o_{-1} s - a.s sees; at seed 0 draw 6,
        # (a, s) = (b2, b), is the first it breaks
        phi, psi = shipped_morphisms(diffpoly)
        monkeypatch.setitem(phi.table, "b", 3 * phi.table["b"])
        assert functor_laws(phi, psi, samples=5, seed=0)["status"] == "pass"
        report = functor_laws(phi, psi, samples=25, seed=0)
        assert report["status"] == "fail"
        assert report["cases"] == 6
        assert report["counts"]["a-family"] == 5
        law, _, term = report["witness"].partition(": ")
        assert law == "a-family"
        assert to_text(parse(term, diffpoly.alphabet)) == term

    def test_rejects_mixed_models(self, diffpoly, weyl):
        phi, _ = shipped_morphisms(diffpoly)
        psi, _ = shipped_morphisms(weyl)
        with pytest.raises(ValueError, match="endomorphisms"):
            functor_laws(phi, psi, samples=1)


class TestRandomElement:
    def test_deterministic_per_seed(self, diffpoly):
        xs = [random_element(diffpoly, random.Random(7)) for _ in range(2)]
        assert xs[0] == xs[1]

    def test_respects_max_length(self, diffpoly):
        from vertexalg.terms import term_length

        rng = random.Random(1)
        for _ in range(50):
            x = random_element(diffpoly, rng, max_length=3)
            assert all(term_length(t) <= 3 for t in x.terms)
