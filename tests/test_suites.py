"""The verify suites: every suite passes at reduced samples, the form and
sheaf reports are frozen, and the i-induction errata record passes only
while its semantic oracle holds."""

import hashlib
import json
import re

import pytest

from vertexalg import suites
from vertexalg.bridges import DongTable, borcherds_bridge
from vertexalg.generators import TruncationPolicy, fam_qc
from vertexalg.models.base import Model, ModelDegreeError, case_check
from vertexalg.models.factory import shipped_model
from vertexalg.parsing import to_text
from vertexalg.suites import SUITE_IDS, SuiteConfig, run_suite
from vertexalg.terms import Element, Symbol

# geometry ignores `samples` and is the slowest suite, so it runs once
CASES = [
    (suite, seed)
    for suite in SUITE_IDS
    for seed in ((0,) if suite == "geometry" else (0, 1, 2))
]


@pytest.mark.parametrize("suite,seed", CASES)
def test_suite_passes(suite, seed):
    report = run_suite(suite, seed=seed, samples=5)
    bad = [c for c in report["checks"] if c["status"] != "pass"]
    assert report["status"] == "pass", bad


def _strip_millis(obj):
    if isinstance(obj, dict):
        return {k: _strip_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, list):
        return [_strip_millis(v) for v in obj]
    return obj


def _report_digest(report) -> str:
    text = json.dumps(_strip_millis(report), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# frozen before the polynomial core kept int coefficients as ints: the form
# and sheaf reports must not see the difference.  Re-frozen when the report
# counts lost their always-zero "budget" entry, as the digests of the
# earlier reports with that entry removed.  The sheaf digest was re-frozen
# when its sampled checks went through sampled_check: the bump-difference
# records report samples in place of per_patch and the core-weight-transfer
# records gain samples; every other field is unchanged.  The samples-40
# sheaf digest is the benchmark's forms-sheaf shape, frozen before the
# sheaf context tabulated its cells.  All three were re-frozen when every
# check went through case_check, as the digests of the earlier reports
# after this transform: sampled records rename samples to cases; each
# bracket-table-vs-operators record counts symbol pairs (its old cases
# divided by its section battery, 8 on the line, 24 on the plane) and
# drops skipped when it is 0; both derham2 models gain a
# koszul-odd-pairs record that passes with cases 102 and skipped 42.  All
# five digests here were re-frozen when the config lost its errata_ok
# entry, as the digests of the earlier reports with that key deleted.
# Both sheaf digests were re-frozen when the existence chain lost its
# glue-definition record, which compared a sum with itself, as the digests
# of the earlier reports with hops - 3 on both existence-chain records
# (three sheaf_axiom_check runs each).
_FROZEN_REPORTS = {
    ("geometry", ()): "74863f82ebf8ece5",
    ("sheaf", (("samples", 5),)): "9e0feec99aea6cf7",
    ("sheaf", (("samples", 40),)): "fe53b37e3c444160",
}


@pytest.mark.parametrize("suite,extra", sorted(_FROZEN_REPORTS))
def test_form_and_sheaf_reports_frozen(suite, extra):
    report = run_suite(suite, seed=0, **dict(extra))
    assert _report_digest(report) == _FROZEN_REPORTS[(suite, extra)]


# frozen before check_module_laws kept each law's outcome by its arguments:
# the module laws must read the same on the benchmark's rewrite shape at
# both its seeds, at the suite's defaults, and with the budget exhausted
_FROZEN_SOUPED = {
    (("samples", 200), ("seed", 0)): "8496b9a64c57341a",
    (("samples", 200), ("seed", 13)): "d3bca47e6f1d16e4",
    (): "13e25657b90106ea",
    (("budget", 0), ("samples", 5)): "d5776edda7671196",
}


@pytest.mark.parametrize("extra", sorted(_FROZEN_SOUPED))
def test_souped_reports_frozen(extra):
    report = run_suite("souped", **dict(extra))
    assert _report_digest(report) == _FROZEN_SOUPED[extra]


# frozen before the deep-tail builders shared their derivative towers: the
# qc/qa tails at the benchmark's truncation level must not see the change.
# Re-frozen when every check went through case_check, as the digests of the
# earlier reports with each sampled record's samples renamed to cases.
_FROZEN_DEEP_TAILS = {
    "borcherds": "706502f795e73925",
    "commutator": "ce08bce2ab61d18b",
}


@pytest.mark.parametrize("suite", sorted(_FROZEN_DEEP_TAILS))
def test_deep_tail_reports_frozen(suite):
    report = run_suite(suite, trunc_level=16, samples=5, seed=0)
    assert _report_digest(report) == _FROZEN_DEEP_TAILS[suite]


def test_souped_reductions_obey_the_budget():
    # with no rewrite steps allowed the leaf-closure reductions cannot
    # finish, so every model's module laws fail
    report = run_suite("souped", budget=0, samples=5)
    laws = [c for c in report["checks"] if c["id"].endswith("-module-laws")]
    assert len(laws) == 4
    for c in laws:
        assert c["status"] == "fail", c
        assert c["witness"].startswith(("law1-reduction: ", "law2-reduction: ")), c


@pytest.mark.parametrize("field", ("budget", "samples"))
def test_negative_budget_and_samples_are_refused(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
        SuiteConfig(suite="collapse", **{field: -1})
    SuiteConfig(suite="collapse", **{field: 0})


def test_unknown_suite_is_refused_by_name():
    # the CLI's choices refuse an unknown suite first; the API refuses it here
    with pytest.raises(ValueError, match="unknown suite 'nope'; known: "):
        SuiteConfig(suite="nope")


def _b_on_derham1():
    return Element.sym(shipped_model("derham1").alphabet, "b")


def _qc_of_mixed_parity():
    b = _b_on_derham1()
    return fam_qc(b + Element.sym(b.alphabet, "db"), b, 0, None, K=2)


@pytest.mark.parametrize("refused,message", [
    (lambda: borcherds_bridge(
        "i-induction", {"x": _b_on_derham1(), "n": 0, "reading": 3},
        TruncationPolicy(default_locality=3)),
     "i-induction reading must be 1 or 2"),
    (_qc_of_mixed_parity, "qc arg x is parity-inhomogeneous"),
    (lambda: Symbol("x", 2), "parity must be 0 or 1, got 2"),
    (lambda: Symbol("x", 0, 0, "bogus"), "unknown symbol kind 'bogus'"),
    (lambda: _b_on_derham1().D_pow(-1), "negative derivative power"),
    (lambda: run_suite("borcherds", SuiteConfig(suite="dong")),
     "config.suite does not match suite_id"),
], ids=("bridge-reading", "qc-parity", "symbol-parity", "symbol-kind",
        "negative-D-power", "config-suite"))
def test_refusals_name_their_cause(refused, message):
    with pytest.raises(ValueError) as err:
        refused()
    assert str(err.value) == message


def test_report_schema():
    for suite in SUITE_IDS:
        report = run_suite(suite, seed=0, samples=5)
        assert set(report["counts"]) == {"pass", "fail"}, suite
        for c in report["checks"]:
            assert list(c)[:3] == ["id", "status", "millis"], (suite, c)
            assert c["status"] in ("pass", "fail"), (suite, c)
            # a record that counts its cases ran at least one
            assert c.get("cases", 1) >= 1, (suite, c)


def test_projection_budget_exhaustion_fails():
    # with no firings allowed R_project refuses the first rule that
    # matches; that must fail the check rather than read as a fixpoint
    report = run_suite("injectivity", budget=0, samples=5)
    checks = {c["id"]: c for c in report["checks"]}
    idem = checks["projection-idempotent"]
    assert idem["status"] == "fail"
    assert idem["witness"].startswith("projection budget 0 ran out on ")
    images = checks["generator-images-no-length-one"]
    assert images["status"] == "fail"
    assert "projection budget 0 ran out on " in images["witness"]
    assert report["status"] == "fail"


def _errata_check(**kw):
    report = run_suite("borcherds", samples=5, **kw)
    (check,) = [c for c in report["checks"] if c["id"] == "i-induction-reading-1"]
    return check


def test_errata_default_accepts_i_induction():
    check = _errata_check()
    assert check["kind"] == "errata-candidate"
    assert check["status"] == "pass"


def test_errata_fails_when_the_oracle_fails(monkeypatch):
    # a nonzero commutative value on every draw: the syntactic failures of
    # reading 1 are then no errata candidate, and the record fails
    monkeypatch.setattr(Model, "evaluate_commutative",
                        lambda self, x: Element.unit(self.alphabet))
    check = _errata_check()
    assert check["status"] == "fail"
    assert check["semantic_oracle"] == "fail"
    assert check["syntactic_failures"] > 0
    assert "kind" not in check


# -- the one case loop ---------------------------------------------------------
#
# every sampled check, like every enumerated one, is a models.base.case_check


def _over_three(k):
    return f"k={k}" if k > 3 else None


def test_sampled_check_stops_at_first_witness():
    cases = iter(range(10))
    rec = case_check("c", cases, _over_three)
    assert rec == {"id": "c", "status": "fail", "cases": 5, "witness": "k=4"}
    assert next(cases) == 5  # no case drawn past the witness


def test_sampled_check_counts_skips():
    def odd_skips(k):
        if k % 2:
            raise ModelDegreeError("past the cap")
        return _over_three(k)

    rec = case_check("c", range(4), odd_skips, detail="d")
    assert rec == {
        "id": "c", "status": "pass", "cases": 2, "skipped": 2, "detail": "d"
    }
    rec = case_check("c", range(9), odd_skips)
    assert rec == {
        "id": "c", "status": "fail", "cases": 3, "skipped": 2, "witness": "k=4"
    }
    assert "skipped" not in case_check("c", range(3), _over_three)


def test_sampled_check_limit_stops_the_loop():
    cases = iter(range(100))
    rec = case_check("c", cases, lambda k: None, limit=5)
    assert rec == {"id": "c", "status": "pass", "cases": 5}
    assert next(cases) == 5


def test_sampled_check_finite_cases_run_out():
    rec = case_check("c", [0, 1, 2], _over_three, limit=10)
    assert rec == {"id": "c", "status": "pass", "cases": 3}


def test_sampled_check_all_skipped_fails():
    def always_skips(k):
        raise ModelDegreeError("past the cap")

    rec = case_check("c", range(4), always_skips)
    assert rec == {"id": "c", "status": "fail", "cases": 0, "skipped": 4}
    assert case_check("c", [], _over_three)["status"] == "fail"


# each sampled sheaf check, with the statement it probes broken, fails and
# names the input it failed on
SHEAF_MUTANTS = [
    ("bump_support_check", lambda *a: False, "bump-difference-inclusion-two"),
    ("bump_support_check", lambda *a: False, "bump-difference-inclusion-three"),
    ("rho_transfer_check", lambda *a: False, "core-weight-transfer-two"),
    ("rho_transfer_check", lambda *a: False, "core-weight-transfer-three"),
    ("pi", lambda x, ctx: 2 * x, "projection-idempotent"),
    ("pi", lambda x, ctx: 2 * x, "generator-all-or-nothing"),
    ("k_generator", lambda x, ctx: x, "uniqueness-kernel-probes"),
]


@pytest.mark.parametrize("name,mutant,cid", SHEAF_MUTANTS)
def test_sheaf_sampled_checks_name_their_witness(monkeypatch, name, mutant, cid):
    monkeypatch.setattr(f"vertexalg.suites.{name}", mutant)
    report = run_suite("sheaf", seed=0, samples=5)
    (rec,) = [c for c in report["checks"] if c["id"] == cid]
    assert rec["status"] == "fail", rec
    assert isinstance(rec["witness"], str) and rec["witness"], rec


@pytest.mark.parametrize("mutant,never", [
    (lambda x, ctx: x, "killed"),
    (lambda x, ctx: 0 * x, "kept whole"),
])
def test_all_or_nothing_needs_both_outcomes(monkeypatch, mutant, never):
    # a pi that keeps every instance whole, or kills every one, splits none;
    # the check fails and says which outcome never occurred
    monkeypatch.setattr("vertexalg.suites.pi", mutant)
    report = run_suite("sheaf", seed=0, samples=5)
    (rec,) = [c for c in report["checks"] if c["id"] == "generator-all-or-nothing"]
    assert rec["status"] == "fail", rec
    assert rec["witness"] == f"no instance was {never}", rec


def test_all_skipped_semantic_commutator_fails(monkeypatch):
    # every draw past the degree cap: the check gives up after ten draws
    # per sample and fails, rather than looping or passing on no cases
    def past_the_cap(self, x):
        raise ModelDegreeError("past the cap")

    monkeypatch.setattr(Model, "evaluate_commutative", past_the_cap)
    report = run_suite("commutator", samples=5)
    (rec,) = [c for c in report["checks"] if c["id"] == "commutator-semantic-diffpoly"]
    assert rec["status"] == "fail"
    assert rec["cases"] == 0
    assert rec["skipped"] == 50


def test_dong_tail_certificate_refusal_is_a_witness(monkeypatch):
    # with the derived bound one too high the certificate at the suite's n
    # is refused: the check fails and names the refusal, the suite goes on
    def via_plus_one(self, u, v):
        M = max(self.bound(u.left, u.right), self.bound(u.left, v),
                self.bound(u.right, v))
        return max(0, 3 * M - u.index + 1)

    monkeypatch.setattr(DongTable, "_via", via_plus_one)
    report = run_suite("dong")
    (rec,) = [c for c in report["checks"] if c["id"] == "dong-tail-certificates"]
    assert rec["status"] == "fail", rec
    assert "below the derived bound 11" in rec["witness"], rec


# Faults patched in at runtime, one per witness formatter that the passing
# suites never reach: each record must fail and say where.


def _record(report, check_id):
    (rec,) = [c for c in report["checks"] if c["id"] == check_id]
    assert rec["status"] == "fail", rec
    return rec


def test_semantic_commutator_fault_has_a_witness(monkeypatch):
    # an evaluation that forgets to evaluate leaves the free difference
    monkeypatch.setattr(Model, "evaluate_commutative", lambda self, x: x)
    rec = _record(run_suite("commutator", samples=5),
                  "commutator-semantic-diffpoly")
    assert rec["cases"] == 1
    assert re.fullmatch(r"m=-?\d n=-?\d: \S.*", rec["witness"]), rec


def test_dong_rank_fault_has_a_witness(monkeypatch):
    # one rank too high at m = 2M + 1
    rank = suites.dong_rank
    monkeypatch.setattr(suites, "dong_rank",
                        lambda M, m: rank(M, m) + (m == 2 * M + 1))
    rec = _record(run_suite("dong"), "dong-rank-grid")
    assert rec["witness"] == "M=1 m=3: rank 2"


def test_dong_tail_certified_below_the_bound_has_a_witness(monkeypatch):
    # a certificate that reasons one index up accepts n one below the
    # derived bound 3 * 3 + 1
    cert = suites.dong_tail_certificate
    monkeypatch.setattr(suites, "dong_tail_certificate",
                        lambda x, y, z, r, n, pol: cert(x, y, z, r, n + 1, pol))
    rec = _record(run_suite("dong"), "dong-tail-certificates")
    assert rec["witness"] == "r=-1: certified below the derived bound, at n=9"


def test_length_one_image_fault_has_a_witness(monkeypatch):
    # a length-one filter that keeps every length: the first nonzero image
    # is the witness
    seen = []

    def keep_all(image):
        seen.append(image)
        return image

    monkeypatch.setattr(suites, "length_one_component", keep_all)
    rec = _record(run_suite("injectivity", samples=5),
                  "generator-images-no-length-one")
    assert rec["witness"] == "i: " + to_text(seen[0])
