"""Concrete models: construction, law validation, evaluation oracles."""

import functools
import hashlib
import json
import random
from fractions import Fraction as Q
from importlib import resources
from itertools import product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from vertexalg import rewrite
from vertexalg.generators import TruncationPolicy
from vertexalg.models import base, factory
from vertexalg.models.base import (
    Model,
    ModelDegreeError,
    battery_check,
    case_check,
    check,
    check_module_laws,
    validate_model,
)
from vertexalg.models.factory import (
    _name_exp,
    load_model,
    make_model,
    pow_name,
    shipped_model,
    shipped_model_names,
    vf_name,
)
from vertexalg.models.morphisms import random_tree, shipped_morphisms
from vertexalg.models.polys import Poly1
from vertexalg.parsing import parse, to_text
from vertexalg.suites import run_suite
from vertexalg.terms import Element, Symbol, fold_tree, leaf_terms

SHIPPED = (
    "current2",
    "current3",
    "derham1",
    "derham2_b2",
    "derham2_lin",
    "diffpoly",
    "weyl1",
)


def test_shipped_inventory():
    assert shipped_model_names() == sorted(SHIPPED)


@pytest.mark.parametrize("name", SHIPPED)
def test_validate_model_green(name):
    model = shipped_model(name)
    checks = validate_model(model, pair_cap=6, case_cap=40)
    ids = {c["id"] for c in checks}
    laws = {
        "bracket-antisymmetry",
        "product-commutativity",
        "jacobi",
        "bracket-derivation-compat",
        "action-associativity",
        "unit-action",
    }
    if all(s.kind != "lie" for s in model.symbols()[:6]):
        # no Lie symbol in the capped alphabet: compat has no case, no record
        laws.discard("bracket-derivation-compat")
    assert laws <= ids
    assert all(c["cases"] >= 1 for c in checks), checks
    bad = [c for c in checks if c["status"] != "pass"]
    assert not bad, bad


def test_check_record_drops_none_extras():
    assert check("x", True, cases=0, witness=None) == {
        "id": "x", "status": "pass", "cases": 0,
    }
    assert list(check("y", 0, millis=3, kind="k")) == ["id", "status", "millis", "kind"]
    assert check("y", 0)["status"] == "fail"


def test_law_check_skips_degree_cap_and_names_witness():
    # a symbol law through case_check, as validate_model runs it: the
    # degree-cap case is skipped and left out of cases, and the first
    # failing case's symbol names are the witness
    model = shipped_model("diffpoly")
    b, b2, b3 = (model.alphabet.symbol(n) for n in ("b", "b2", "b3"))

    def holds(s, t):
        if s is b2:
            raise ModelDegreeError("over the cap")
        return s is not b3

    got = case_check(
        "law", [(b, b), (b2, b), (b3, b2), (b, b)],
        lambda args: None if holds(*args) else ", ".join(s.name for s in args),
    )
    assert got == {
        "id": "law", "status": "fail", "cases": 2, "skipped": 1, "witness": "b3, b2",
    }


@pytest.fixture(scope="module")
def diffpoly():
    return make_model("DiffPoly")


@pytest.fixture(scope="module")
def weyl():
    return make_model("Weyl1")


def _comm_ref(t) -> Poly1:
    """The commutative value of one DiffPoly tree, by recursion: b^k is the
    monomial of degree k, a product at n >= 0 is zero and its subtrees are
    never evaluated, and at n < 0 it is (d/db)^k(left) / k! * right with
    k = -1 - n."""
    if isinstance(t, Symbol):
        name = t.name
        return Poly1.mono(0 if name == "1" else 1 if name == "b" else int(name[1:]))
    if t.index >= 0:
        return Poly1()
    k = -1 - t.index
    left = _comm_ref(t.left)
    for _ in range(k):
        left = left.diff()
    return left * Q(1, factorial(k)) * _comm_ref(t.right)


class TestDiffPoly:
    @pytest.fixture
    def model(self, diffpoly):
        return diffpoly

    def test_multiplication_table(self, model):
        al = model.alphabet
        b = al.symbol("b")
        b2 = al.symbol("b2")
        assert model.mul(b, b) == Element.sym(al, "b2")
        assert model.mul(b, b2) == Element.sym(al, "b3")

    def test_brackets_vanish(self, model):
        al = model.alphabet
        got = model.bracket(al.symbol("b"), al.symbol("b3"))
        assert got.is_zero()

    def test_degree_cap_raises(self, model):
        al = model.alphabet
        with pytest.raises(ModelDegreeError):
            model.mul(al.symbol("b4"), al.symbol("b5"))

    def test_commutative_evaluation(self, model):
        # associativity witness: (b*b)*b2 and b*(b*b2) both land on b4
        al = model.alphabet
        left = parse("o{-1}(o{-1}(b, b), b2)", al)
        right = parse("o{-1}(b, o{-1}(b, b2))", al)
        want = Element.sym(al, "b4")
        assert model.evaluate_commutative(left) == want
        assert model.evaluate_commutative(right) == want

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(-3, 3).filter(bool))
    def test_commutative_evaluation_matches_reference(self, diffpoly, seed, length, c):
        al = diffpoly.alphabet
        (t,) = random_tree(al, diffpoly.symbols(), random.Random(seed), length, -3, 3).terms
        x = Element.of_term(al, t, c)
        try:
            want = diffpoly.commutative.to_element(_comm_ref(t) * c)
        except ModelDegreeError:
            with pytest.raises(ModelDegreeError):
                diffpoly.evaluate_commutative(x)
        else:
            assert diffpoly.evaluate_commutative(x) == want

    def test_commutative_evaluation_of_deep_tower(self):
        # D^1500 b is zero in the commutative model; the evaluation must not
        # recurse once per tree level
        model = shipped_model("diffpoly")
        x = Element.sym(model.alphabet, "b").D_pow(1500)
        assert model.evaluate_commutative(x).is_zero()


class TestWeyl1:
    @pytest.fixture
    def model(self, weyl):
        return weyl

    def test_canonical_bracket(self, model):
        al = model.alphabet
        got = model.bracket(al.symbol("del"), al.symbol("b"))
        assert got == Element.unit(al)

    def test_vector_field_bracket(self, model):
        # [del, b*del] = del
        al = model.alphabet
        got = model.bracket(al.symbol("del"), al.symbol("bdel"))
        assert got == Element.sym(al, "del")

    def test_bracket_with_scalar_is_derivative(self, model):
        al = model.alphabet
        # [del, b2] = (b2)' = 2b
        got = model.bracket(al.symbol("del"), al.symbol("b2"))
        assert got == 2 * Element.sym(al, "b")

    def test_action_multiplies_coefficients(self, model):
        al = model.alphabet
        # b . del = b del  (module action of the polynomial algebra)
        got = model.act(al.symbol("b"), al.symbol("del"))
        assert got == Element.sym(al, "bdel")

    def test_no_commutative_semantics(self, model):
        al = model.alphabet
        with pytest.raises(ValueError, match="commutative"):
            model.evaluate_commutative(parse("o{-1}(b, b)", al))

    def test_nested_bracket_reduces_to_unit(self, model):
        # [del, b del] = del, then [del, b] = 1
        from vertexalg.rewrite import RuleSet, reduce_element

        al = model.alphabet
        x = parse("o{0}(o{0}(del, bdel), b)", al)
        rep = reduce_element(x, RuleSet(model))
        assert rep.result == Element.unit(al)


class TestFunctionPart:
    """DiffPoly is Weyl1's function part: one maker builds both, so every
    table entry over the functions b^k is the same in the two models."""

    def test_alphabet_and_sample_pool_are_the_algebra_prefix(self, diffpoly, weyl):
        names, fields = diffpoly.alphabet.names(), weyl.alphabet.names()
        assert fields[:len(names)] == names
        assert {weyl.alphabet.symbol(n).kind for n in fields[len(names):]} == {"lie"}
        assert [s.name for s in diffpoly.sample_symbols()] == [
            s.name for s in weyl.sample_symbols(("algebra", "unit"))]

    def test_every_shared_entry_agrees(self, diffpoly, weyl):
        def entry(model, op, s, t):
            sym = model.alphabet.symbol
            try:
                return to_text(getattr(model, op)(sym(s.name), sym(t.name)))
            except ModelDegreeError:
                return ModelDegreeError
        cases = [(op, s, t) for op in ("mul", "bracket")
                 for s, t in product(diffpoly.symbols(), repeat=2)]
        assert len(cases) == 98
        for op, s, t in cases:
            assert entry(diffpoly, op, s, t) == entry(weyl, op, s, t), (op, s, t)

    def test_only_the_function_part_has_a_commutative_quotient(self, diffpoly, weyl):
        assert diffpoly.commutative is not None
        assert weyl.commutative is None

    def test_shipped_morphisms_agree_on_the_functions(self, diffpoly, weyl):
        for phi, psi in zip(shipped_morphisms(diffpoly), shipped_morphisms(weyl)):
            assert list(phi.table) == list(psi.table)[:len(phi.table)]
            for name, img in phi.table.items():
                assert to_text(img) == to_text(psi.table[name]), (phi.name, name)


def test_doubled_vector_field_bracket_fails_souped(monkeypatch):
    # the shared bracket stays checkable: with every [b^i del, b^j del]
    # doubled, the derivation law of the souped suite names a witness
    make = factory.KINDS["Weyl1"]

    # make_model reads the maker's signature, which wraps carries over
    @functools.wraps(make)
    def doubled(**params):
        model = make(**params)
        bracket = model._bracket
        model._bracket = lambda s, t: (
            2 * bracket(s, t) if s.kind == t.kind == "lie" else bracket(s, t))
        return model

    monkeypatch.setitem(factory.KINDS, "Weyl1", doubled)
    report = run_suite("souped", samples=5, seed=0)
    failed = {c["id"]: c for c in report["checks"] if c["status"] == "fail"}
    assert set(failed) == {"weyl1-bracket-derivation-compat", "weyl1-module-laws"}
    assert failed["weyl1-bracket-derivation-compat"]["witness"] == "del, b, b3del"


class TestTables:
    """The bilinear extensions and the shared leaf Elements."""

    @pytest.mark.parametrize("op", ("bracket_elem", "mul_elem", "act_elem"))
    @pytest.mark.parametrize("compound_left", (True, False), ids=("left", "right"))
    def test_compound_operand_is_refused(self, weyl, op, compound_left):
        al = weyl.alphabet
        compound = Element.sym(al, "b").o(-1, Element.sym(al, "b"))
        leaf = Element.sym(al, "del")
        args = (compound, leaf) if compound_left else (leaf, compound)
        with pytest.raises(ValueError, match="^model tables apply to leaf combinations$"):
            getattr(weyl, op)(*args)

    def test_one_leaf_element_per_symbol(self, weyl):
        al = weyl.alphabet
        b = al.symbol("b")
        assert weyl.leaf(b) is weyl.leaf(b)
        assert weyl.leaf(b) == Element.sym(al, "b")
        assert weyl.mul(al.unit, b) is weyl.leaf(b)
        assert weyl.mul(b, al.unit) is weyl.leaf(b)
        assert weyl.act(al.unit, al.symbol("del")) is weyl.leaf(al.symbol("del"))


class TestTableMemo:
    """Each table entry is computed once, a refusal included, and the
    bilinear extensions read the memo inline."""

    CAP = "^degree 7 exceeds the cap 6$"

    def test_a_refusal_is_stored_once_and_raised_fresh(self):
        model = make_model("Weyl1")
        b6, b = model.alphabet.symbol("b6"), model.alphabet.symbol("b")
        before = len(model._cache)
        with pytest.raises(ModelDegreeError, match=self.CAP) as first:
            model.mul(b6, b)
        with pytest.raises(ModelDegreeError, match=self.CAP) as second:
            model.mul(b6, b)
        assert len(model._cache) == before + 1
        # a fresh exception per raise, so no traceback grows across calls
        assert first.value is not second.value
        with pytest.raises(ModelDegreeError, match=self.CAP):
            model.mul_elem(model.leaf(b6), model.leaf(b))

    def test_warm_pairs_are_read_without_a_table_call(self, monkeypatch):
        # _bilinear's inline read and _memo key entries by the same tag, so
        # once an entry is stored the extensions never call the table
        model = make_model("Weyl1")
        b, b2, dl = (model.leaf(model.alphabet.symbol(n)) for n in ("b", "b2", "del"))
        calls = []

        def counted(name):
            method = getattr(Model, name)

            def table(self, s, t):
                calls.append(name)
                return method(self, s, t)
            return table

        for name in ("bracket", "mul", "act"):
            monkeypatch.setattr(Model, name, counted(name))
        for op, x, y in (("bracket_elem", dl + b, b + b2), ("mul_elem", b, b + b2),
                         ("act_elem", b + b2, dl)):
            getattr(model, op)(x, y)
            before = len(calls)
            getattr(model, op)(x, y)
            assert len(calls) == before, op

    @given(st.data())
    def test_bilinear_extensions_match_a_double_loop(self, weyl, data):
        al = weyl.alphabet
        coeffs = st.one_of(
            st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)
        ).filter(bool)
        x, y = (
            Element(al, data.draw(st.dictionaries(
                st.sampled_from(weyl.symbols()), coeffs, max_size=3)))
            for _ in range(2)
        )
        for op, table in (("bracket_elem", weyl.bracket), ("mul_elem", weyl.mul),
                          ("act_elem", weyl.act)):
            # a pair past the degree cap or outside the table's domain is
            # refused, by the same exception class on both sides
            try:
                want = Element.zero(al)
                for s, c in x.terms.items():
                    for t, d in y.terms.items():
                        want = want + table(s, t) * (c * d)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    getattr(weyl, op)(x, y)
                assert got.type is type(exc), op
                continue
            assert getattr(weyl, op)(x, y) == want

    @pytest.mark.parametrize("coeff", (1, -1, Q(1, 2), 3))
    def test_one_term_apply_equals_the_accumulated_image(self, weyl, coeff):
        # the accumulated path apply takes for more than one term: each
        # term's folded image added into one dict, scaled by its coefficient
        al = weyl.alphabet
        rng = random.Random(0)
        for mor in shipped_morphisms(weyl):
            for length in (1, 2, 3):
                x = random_tree(al, weyl.symbols(), rng, length, -3, 2) * coeff
                acc = {}
                for t, c in x.terms.items():
                    fold_tree(t, mor.image_of_symbol,
                              lambda n, a, b: a.o(n.index, b))._add_into(acc, c)
                got = mor.apply(x)
                assert [(t, c, type(c)) for t, c in got.terms.items()] == [
                    (t, c, type(c)) for t, c in acc.items()]


class TestBatteryCheck:
    @staticmethod
    def refuse(**_):
        raise ModelDegreeError("over the cap")

    def test_draws_on_which_every_law_raises_are_skipped(self):
        got = battery_check("battery", [{"x": 1}, {"x": 2}],
                            {"p": self.refuse, "q": self.refuse})
        assert got == {"id": "battery", "status": "fail", "cases": 0,
                       "skipped": 2, "counts": {"p": 0, "q": 0}}

    def test_a_law_that_always_raises_counts_no_case(self):
        got = battery_check("battery", [{"x": 1}, {"x": 2}],
                            {"refused": self.refuse, "holds": lambda **_: None})
        assert got == {"id": "battery", "status": "pass", "cases": 2,
                       "counts": {"refused": 0, "holds": 2}}


class TestCurrentLie:
    def test_two_generator_abelian(self):
        model = shipped_model("current2")
        al = model.alphabet
        names = set(al.names())
        assert "e1" in names and "e2" in names
        got = model.bracket(al.symbol("e1"), al.symbol("e2"))
        assert got.is_zero()

    def test_three_generator_cyclic(self):
        model = shipped_model("current3")
        al = model.alphabet
        got = model.bracket(al.symbol("e1"), al.symbol("e2"))
        assert got == Element.sym(al, "e3")
        anti = model.bracket(al.symbol("e2"), al.symbol("e1"))
        assert (got + anti).is_zero()


def _table_digest(model) -> str:
    """sha256 over every bracket/mul/act table entry, each printed as text
    or as "degree-cap" when it leaves the finite basis."""
    syms = model.symbols()
    comm = model.symbols(("algebra", "unit"))
    tables = (
        ("b", model.bracket, syms, syms),
        ("m", model.mul, comm, comm),
        ("a", model.act, comm, syms),
    )
    lines = []
    for tag, table, xs, ys in tables:
        for s in xs:
            for t in ys:
                try:
                    value = to_text(table(s, t))
                except ModelDegreeError:
                    value = "degree-cap"
                lines.append(f"{tag} {s.name} {t.name} {value}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# frozen from the two hand-written copies of the structural bracket rule that
# the shared builder replaced; 10,920 entries in all
_FORM_TABLE_DIGESTS = {
    "derham1": "4732d5cfae6c6755",
    "derham2_b2": "44f240cda2783d17",
    "derham2_lin": "cde121b1b58db1d9",
}


@pytest.mark.parametrize("name", sorted(_FORM_TABLE_DIGESTS))
def test_form_tables_frozen(name):
    assert _table_digest(shipped_model(name)) == _FORM_TABLE_DIGESTS[name]


class TestModuleLaws:
    @pytest.mark.parametrize("name", ("diffpoly", "weyl1", "current2"))
    def test_status_pass(self, name):
        model = shipped_model(name)
        pol = TruncationPolicy(2, level=6)
        report = check_module_laws(model, pol, samples=30, seed=11)
        assert report["id"] == f"{name}-module-laws"
        assert report["status"] == "pass"
        assert "witness" not in report
        assert report["cases"] == 30
        counts = report["counts"]
        assert counts["law1-certificate"] + counts["law1-reduction"] > 0

    def test_zero_certificate_fails_law2(self, monkeypatch):
        # with fam_am read as 0 the exact certificate of law 2 no longer
        # matches (ab)_{-1} x - a_{-1}(b_{-1} x), already on the first draw
        model = shipped_model("weyl1")
        monkeypatch.setattr(
            base, "fam_am", lambda a, b, x, model: Element.zero(model.alphabet)
        )
        report = check_module_laws(model, TruncationPolicy(2, level=6),
                                   samples=30, seed=11)
        assert report["status"] == "fail"
        assert report["cases"] == 1
        assert report["counts"]["law2-certificate"] == 0
        law, _, term = report["witness"].partition(": ")
        assert law == "law2-certificate"
        assert to_text(parse(term, model.alphabet)) == term

    def test_missing_bracket_rule_fails_law1_reduction(self, monkeypatch):
        # without the bracket rule s_0 t_0 x - t_0 s_0 x is left unreduced;
        # at seed 2 draws 1-4 have s = t = e1, so it cancels before any
        # rule fires, and draw 5 (s, t = e2, e1) is the first to fail
        monkeypatch.setattr(rewrite, "STOCK_RULES",
                            tuple(r for r in rewrite.STOCK_RULES if r != "bracket"))
        model = shipped_model("current2")
        pol = TruncationPolicy(2, level=6)
        assert check_module_laws(model, pol, samples=4, seed=2)["status"] == "pass"
        report = check_module_laws(model, pol, samples=30, seed=2)
        assert report["status"] == "fail"
        assert report["cases"] == 5
        assert report["counts"]["law1-reduction"] == 4
        law, _, term = report["witness"].partition(": ")
        assert law == "law1-reduction"
        assert to_text(parse(term, model.alphabet)) == term
        assert not parse(term, model.alphabet).is_zero()

    def test_deterministic_per_seed(self):
        model = shipped_model("diffpoly")
        pol = TruncationPolicy(2, level=6)
        a = check_module_laws(model, pol, samples=15, seed=3)
        b = check_module_laws(model, pol, samples=15, seed=3)
        assert a == b

    @staticmethod
    def _listed_draws(monkeypatch) -> list:
        # the battery's draws, listed before it runs; the laws draw nothing
        # from the rng, so listing them first changes no draw
        listed = []
        real = base.battery_check

        def listing(cid, draws, laws, **extra):
            listed.extend(draws)
            return real(cid, listed, laws, **extra)

        monkeypatch.setattr(base, "battery_check", listing)
        return listed

    def test_each_law_runs_once_per_distinct_draw(self, monkeypatch):
        # current2's only function is the unit, so a and b are always the
        # unit and law2-certificate's arguments repeat whenever xc does
        model = shipped_model("current2")
        draws = self._listed_draws(monkeypatch)
        calls = []
        real = base.fam_am

        def counted(a, b, x, model):
            calls.append((a, b, x))
            return real(a, b, x, model)

        monkeypatch.setattr(base, "fam_am", counted)
        report = check_module_laws(model, TruncationPolicy(2, level=6),
                                   samples=200, seed=0)
        assert report["status"] == "pass"
        assert report["counts"]["law2-certificate"] == report["cases"] == 200
        leaf = model.leaf
        distinct = {(leaf(d["a"]), leaf(d["b"]), d["xc"]) for d in draws}
        assert len(calls) == len(distinct) < len(draws) == 200
        assert set(calls) == distinct

    def test_a_kept_refusal_is_raised_on_every_repeat(self, monkeypatch):
        # both reductions refuse every draw and both certificates refuse a
        # leaf xc: a draw with a leaf xc is skipped however often its
        # arguments repeat, and every other draw counts for the certificates
        model = shipped_model("current2")
        draws = self._listed_draws(monkeypatch)

        def past_the_cap(*args, **kw):
            raise ModelDegreeError("past the cap")

        refused = []

        def refusing(real):
            def fam(x, y, z, *rest):
                if leaf_terms(z) is not None:
                    refused.append((x, y, z))
                    past_the_cap()
                return real(x, y, z, *rest)
            return fam

        monkeypatch.setattr(rewrite, "reduce_element", past_the_cap)
        monkeypatch.setattr(base, "fam_qa", refusing(base.fam_qa))
        monkeypatch.setattr(base, "fam_am", refusing(base.fam_am))
        report = check_module_laws(model, TruncationPolicy(2, level=6),
                                   samples=200, seed=0)
        leafy = [d for d in draws if leaf_terms(d["xc"]) is not None]
        held = len(draws) - len(leafy)
        assert report == {
            "id": "current2-module-laws", "status": "pass", "cases": held,
            "skipped": len(leafy), "counts": {
                "law1-reduction": 0, "law1-certificate": held,
                "law2-reduction": 0, "law2-certificate": held},
        }
        assert len(refused) == len(set(refused)) < len(leafy) < len(draws)


class TestLoaders:
    def test_load_current3_matches_shipped(self, tmp_path):
        data = resources.files("vertexalg").joinpath("data/current3.json")
        loaded = load_model(str(data))
        shipped = shipped_model("current3")
        assert loaded.name == shipped.name
        assert set(loaded.alphabet.names()) == set(shipped.alphabet.names())
        al, bl = loaded.alphabet, shipped.alphabet
        got = loaded.bracket(al.symbol("e1"), al.symbol("e2"))
        want = shipped.bracket(bl.symbol("e1"), bl.symbol("e2"))
        assert sorted(str(t) for t in got.terms) == sorted(
            str(t) for t in want.terms
        )

    def test_load_derham2_matches_shipped(self):
        data = resources.files("vertexalg").joinpath("data/derham2_b2.json")
        loaded = load_model(str(data))
        shipped = shipped_model("derham2_b2")
        assert loaded.name == shipped.name
        assert set(loaded.alphabet.names()) == set(shipped.alphabet.names())

    def test_load_model_rejects_unknown_kind(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"kind": "Nope", "name": "x"}))
        with pytest.raises(ValueError, match="kind"):
            load_model(str(p))

    def test_make_model_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_model("Octonion")

    @pytest.mark.parametrize("kind", ("DiffPoly", "Weyl1", "DeRham1", "DeRham2Conn"))
    def test_each_maker_builds_at_the_degree_ceiling(self, kind):
        # the ceiling is a bound the makers meet, not one they fall short of;
        # one past it is refused by name
        model = make_model(kind, {"max_degree": base.MAX_DEGREE})
        assert model.max_degree == base.MAX_DEGREE
        with pytest.raises(ValueError, match=f"max_degree: expected at most "
                           f"{base.MAX_DEGREE}, got {base.MAX_DEGREE + 1}"):
            make_model(kind, {"max_degree": base.MAX_DEGREE + 1})

    def test_symbol_names_read_back(self):
        # pow_name and vf_name write the names _name_exp reads; b^0 is 1
        assert [pow_name(k) for k in range(3)] == ["1", "b", "b2"]
        for k in range(8):
            assert _name_exp(pow_name(k)) == (k, False)
            assert _name_exp(vf_name(k)) == (k, True)


class TestSampling:
    def test_sample_pool_small_degrees(self):
        model = shipped_model("diffpoly")
        pool = model.sample_symbols()
        assert model.alphabet.unit in pool
        names = {s.name for s in pool}
        assert "b" in names
        # the pool stays well under the degree cap
        assert "b6" not in names
