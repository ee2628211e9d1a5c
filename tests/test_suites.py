"""The verify suites: every suite passes at reduced samples, and the
errata contract accepts exactly the listed identities."""

import pytest

from vertexalg.suites import SUITE_IDS, run_suite

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


def _errata_check(**kw):
    report = run_suite("borcherds", samples=5, **kw)
    (check,) = [c for c in report["checks"] if c["id"] == "i-induction-reading-1"]
    return check


def test_errata_default_accepts_i_induction():
    check = _errata_check()
    assert check["kind"] == "errata-candidate"
    assert check["status"] == "pass"


def test_errata_needs_exact_identity_id():
    # a substring of the identity id is not an acceptance
    assert _errata_check(errata_ok=("induction",))["status"] == "fail"
    assert _errata_check(errata_ok=())["status"] == "fail"
