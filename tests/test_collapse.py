"""Engineered degenerations that force the unit into the ideal."""

import pytest

from vertexalg import collapse
from vertexalg.collapse import (
    COLLAPSE_RULES,
    _right_mult_total,
    punctured_checks,
    punctured_policy,
    right_mult_checks,
)
from vertexalg.models.factory import shipped_model
from vertexalg.parsing import to_text
from vertexalg.suites import run_suite

RIGHT_MULT_IDS = (
    "right-mult-exact-residual",
    "right-mult-unit-reduction",
    "right-mult-variant-necessity",
)

PUNCTURED_STEMS = (
    "derivative-transfer",
    "derivative-transfer-variant",
    "scalar-power",
    "scalar-power-variant",
    "index-transfer",
    "binom-window",
    "index-transfer-variant",
    "unit-exact",
)


class TestRightMult:
    def test_all_pass(self):
        checks = right_mult_checks()
        assert [c["id"] for c in checks] == list(RIGHT_MULT_IDS)
        assert all(c["status"] == "pass" for c in checks)

    def test_exact_residual_is_level_independent(self):
        checks = right_mult_checks(levels=(2, 5, 9))
        byid = {c["id"]: c for c in checks}
        assert byid["right-mult-exact-residual"]["status"] == "pass"

    def test_variant_is_diagnostic(self):
        checks = right_mult_checks()
        byid = {c["id"]: c for c in checks}
        v = byid["right-mult-variant-necessity"]
        assert v["kind"] == "variant-necessity"
        assert v["variant_residual_terms"] > 0

    def test_unit_reduction_failure_has_a_witness(self):
        checks = right_mult_checks(budget=0)
        byid = {c["id"]: c for c in checks}
        red = byid["right-mult-unit-reduction"]
        assert red["status"] == "fail"
        # the budget counts firings: the first match is refused, so the
        # residual is the unreduced input
        model = shipped_model("weyl1")
        unreduced = to_text(_right_mult_total(model, 6))
        assert red["steps"] == 0
        assert red["witness"] == (
            f"budget-exhausted after 0 steps (budget 0), residual {unreduced}"
        )
        assert "witness" not in right_mult_checks()[1]

    def test_rule_inventory_excludes_locality(self):
        assert "locality_kill" not in COLLAPSE_RULES
        assert "right_scalar" in COLLAPSE_RULES


class TestPunctured:
    @pytest.mark.parametrize("N", (1, 2))
    def test_chain_passes(self, N):
        checks = punctured_checks(N)
        got = [c["id"] for c in checks]
        want = [f"{stem}-N{N}" for stem in PUNCTURED_STEMS]
        assert got == want
        bad = [c for c in checks if c["status"] != "pass"]
        assert not bad, bad

    def test_policy_shape(self):
        pol = punctured_policy(2, 8)
        assert pol.default_locality == 1
        assert pol.exempt_indices("b", "del") == [2]
        assert pol.exempt_indices("del", "b") == [2]
        assert not pol.is_dead("del", "b", 2)
        assert pol.is_dead("b", "del", 1)
        assert pol.is_dead("b", "del", 3)
        assert not pol.is_dead("b", "del", 2)

    def test_level_floor(self):
        with pytest.raises(ValueError, match="N \\+ 2"):
            punctured_checks(3, level=4)

    def test_index_transfer_fault_has_a_witness(self, monkeypatch):
        # fam_e with coefficient n + 1 breaks the transfer at its first
        # case, g = del at m = -N - 4
        monkeypatch.setattr(
            collapse, "fam_e",
            lambda x, y, n: x.D().o(n, y) + (n + 1) * x.o(n - 1, y))
        byid = {c["id"]: c for c in punctured_checks(2)}
        rec = byid["index-transfer-N2"]
        assert rec["status"] == "fail", rec
        assert rec["witness"] == "m=-6 on del"

    def test_level_independent(self):
        a = {c["id"]: c["status"] for c in punctured_checks(1, level=7)}
        b = {c["id"]: c["status"] for c in punctured_checks(1, level=10)}
        assert a == b
        assert set(a.values()) == {"pass"}


def test_full_battery():
    checks = run_suite("collapse")["checks"]
    assert len(checks) == len(RIGHT_MULT_IDS) + 2 * len(PUNCTURED_STEMS)
    ids = [c["id"] for c in checks]
    assert len(set(ids)) == len(ids)
    assert all(c["status"] == "pass" for c in checks)
