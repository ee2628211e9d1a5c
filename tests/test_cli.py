"""Command-line front end: malformed input ends in an error line, exit 2."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import vertexalg
from vertexalg.bridges import DongTable
from vertexalg.cli import main
from vertexalg.parsing import DATA_DIR

COVER_TWO = str(resources.files("vertexalg") / "data" / "cover_two.json")
COVER_THREE = str(resources.files("vertexalg") / "data" / "cover_three.json")


def test_reduce_prints_normal_form(capsys):
    assert main(["reduce", "o{-1}(1, u) + 2*u"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3*u"


def test_reduce_with_a_model_runs_the_stock_rules(capsys):
    # without --locality nothing is truncated; with it, o{5}(b, b2) is dead
    term = "o{-1}(1, b) + o{5}(b, b2)"
    assert main(["reduce", term, "--model", "diffpoly"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "b + o{5}(b, b2)"
    assert main(["reduce", term, "--model", "diffpoly", "--locality", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "b"


def test_reduce_refuses_the_retired_locality_rule(capsys):
    assert main(["reduce", "b", "--model", "diffpoly",
                 "--rules", "unit_left,locality_kill"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: unknown rules: ['locality_kill']; ")


def test_reduce_takes_no_trunc_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "b", "--trunc", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trunc 8" in capsys.readouterr().err


def test_zero_denominator_is_a_parse_error(capsys):
    assert main(["reduce", "1/0*u"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zero denominator")
    assert "Traceback" not in err


def test_unknown_rule_is_an_error_line(capsys):
    assert main(["reduce", "x", "--rules", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown rules")
    assert "Traceback" not in err


def test_deep_input_reduces(capsys):
    # parsing, reduction and printing all walk the tree without recursion
    depth = 2000
    text = "o{0}(" * depth + "u" + ", v)" * depth
    assert main(["reduce", text]) == 0
    assert capsys.readouterr().out.splitlines()[0] == text


def test_recursion_error_is_an_error_line(capsys, monkeypatch):
    def too_deep(text, alphabet):
        raise RecursionError

    monkeypatch.setattr("vertexalg.cli.parse", too_deep)
    assert main(["reduce", "u"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_sheaf_check_global_section_passes(capsys):
    argv = ["sheaf", "check", "--cover", COVER_TWO, "--global", "o{-1}(f, g)"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "12/12 checks passed"
    assert all(line.startswith("ok   ") for line in lines[:-1])


def test_sheaf_check_unit_sections_pass(capsys):
    argv = ["sheaf", "check", "--cover", COVER_TWO]
    argv += ["--sections", "1", "--sections", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "12/12 checks passed"


def test_sheaf_check_disagreeing_sections_fail(capsys):
    argv = ["sheaf", "check", "--cover", COVER_TWO]
    argv += ["--sections", "f", "--sections", "g"]
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL overlap-U1-U2  (on [1, 2])" in out
    assert out[-1] == "1/2 checks passed"


@pytest.mark.parametrize("extra,error", (
    (["--sections", "f"], "cover has 2 patches, got 1 sections"),
    (["--sections", "f"] * 3, "cover has 2 patches, got 3 sections"),
    ([], "sheaf check needs --sections or --global"),
), ids=("one-section", "three-sections", "no-sections"))
def test_sheaf_check_refusal_is_an_error_line(capsys, extra, error):
    assert main(["sheaf", "check", "--cover", COVER_TWO, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {error}"]
    assert captured.out == ""


def test_verify_report_records(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["verify", "dong", "sheaf", "--samples", "5", "--report", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"report written to {path}"
    assert "suite dong: pass (5 pass, 0 fail)" in out
    report = json.loads(path.read_text())
    assert report["status"] == "pass"
    assert [r["suite"] for r in report["suites"]] == ["dong", "sheaf"]
    for rep in report["suites"]:
        assert rep["checks"]
        for c in rep["checks"]:
            assert {"id", "status", "millis"} <= set(c), c
            assert c["status"] == "pass"


def test_verify_prints_the_witness_of_a_failing_check(capsys, monkeypatch):
    # the derived bound one too high: the tail certificate is refused
    def via_plus_one(self, u, v):
        M = max(self.bound(u.left, u.right), self.bound(u.left, v),
                self.bound(u.right, v))
        return max(0, 3 * M - u.index + 1)

    monkeypatch.setattr(DongTable, "_via", via_plus_one)
    assert main(["verify", "dong", "--samples", "5"]) == 1
    out = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(out)
              if line.startswith("fail   dong:dong-tail-certificates ("))
    assert out[at + 1].startswith("       witness: ")
    assert "below the derived bound 11" in out[at + 1]
    assert out[-1].startswith("suite dong: fail (")


def test_free_symbols_are_the_parser_identifiers(capsys):
    # any identifier the parser reads is declared, not only ASCII names
    assert main(["grade", "é + x"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "degree: 0", "lengths: 1, 1", "shapes: 1",
    ]
    assert main(["reduce", "o{0}(é, x)"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "o{0}(é, x)"
    # a quoted name is an identifier too, and prints back quoted
    assert main(["reduce", "o{0}('f|0..1', x) + 'x'"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "x + o{0}('f|0..1', x)"


@pytest.mark.parametrize("argv", (
    ["reduce", "--budget", "-1", "o{-1}(1, b)"],
    ["verify", "collapse", "--budget", "-1"],
), ids=("reduce", "verify"))
def test_negative_budget_is_an_error_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: budget must be >= 0, got -1"]
    assert captured.out == ""


# a negative locality would truncate the products the vacuum axiom needs:
# o{-1}(1, b) + b2 would reduce to b2
@pytest.mark.parametrize("argv,error", (
    (["reduce", "o{-1}(1, b) + b2", "--model", "diffpoly", "--locality", "-1"],
     "default_locality must be >= 0, got -1"),
    (["gen", "c", "--args", "u", "--args", "v", "--n", "3", "--locality", "-2"],
     "default_locality must be >= 0, got -2"),
), ids=("reduce", "gen"))
def test_negative_locality_is_an_error_line(capsys, argv, error):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {error}"]
    assert captured.out == ""


def test_gen_missing_indices_is_an_error_line(capsys):
    assert main(["gen", "e", "--args", "u", "--args", "v"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: family e needs --n"]
    argv = ["gen", "qa", "--args", "u", "--args", "v", "--args", "w", "--n", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: family qa needs --m and --n"
    ]


# diffpoly is weyl1's function part, built by the same maker, so a
# product past the degree cap is refused in the same words
@pytest.mark.parametrize("model", ("diffpoly", "weyl1"))
def test_degree_cap_is_one_error_line(capsys, model):
    assert main(["reduce", "o{-1}(b6, b)", "--model", model]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: degree 7 exceeds the cap 6"]
    assert captured.out == ""


def test_models_lists_shipped_models(capsys):
    assert main(["models"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "derham1: 32 symbols (algebra, lie, unit)" in lines
    assert "diffpoly: 7 symbols (algebra, unit); morphisms double, shift" in lines
    assert len(lines) == 7


def test_grade_prints_degree_lengths_shapes(capsys):
    assert main(["grade", "o{-1}(b,b)", "--model", "diffpoly"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "degree: 0", "lengths: 2", "shapes: 1",
    ]


def test_gen_builds_one_generator(capsys):
    assert main(["gen", "e", "--args", "u", "--args", "v", "--n", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "o{0}(u, v) + o{1}(o{-2}(u, 1), v)"


def test_gen_tail_bound_below_certificate_is_an_error_line(capsys):
    argv = ["gen", "qc", "--args", "u", "--args", "v", "--n", "0", "--k-bound", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: qc: bound K=0 keeps alive dropped terms; need K>=2"
    ]
    argv = ["gen", "qa", "--args", "u", "--args", "v", "--args", "w"]
    assert main(argv + ["--m", "-1", "--n", "0", "--k-bound", "0"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: qa: bound K=0 keeps alive dropped terms; need K>=2"
    ]


def test_gen_takes_no_certify_switch(capsys):
    # a bound is either certified against the policy or refused
    with pytest.raises(SystemExit) as exc:
        main(["gen", "qc", "--args", "u", "--args", "v", "--n", "0",
              "--k-bound", "0", "--no-certify"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-certify" in capsys.readouterr().err


# the families that only `gen` builds: c on a free alphabet, the model
# families against a shipped model, k against a cover file
@pytest.mark.parametrize("argv,first", (
    (["c", "--args", "u", "--args", "v", "--n", "3"], "o{3}(u, v)"),
    (["s", "--args", "del", "--args", "bdel", "--model", "weyl1"],
     "-1*del + o{0}(del, bdel)"),
    (["a", "--args", "b", "--args", "del", "--model", "weyl1"],
     "-1*bdel + o{-1}(b, del)"),
    (["am", "--args", "b", "--args", "b", "--args", "b2", "--model", "diffpoly"],
     "-1*o{-1}(b, o{-1}(b, b2)) + o{-1}(b2, b2)"),
    # s1 and s3 are bumps on disjoint windows: pi kills their product
    (["k", "--args", "o{-1}(s1, s3) + f", "--cover", COVER_THREE], "o{-1}(s1, s3)"),
), ids=("c", "s", "a", "am", "k"))
def test_gen_builds_every_family(capsys, argv, first):
    assert main(["gen"] + argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == first


@pytest.mark.parametrize("argv,error", (
    (["c", "--args", "u", "--args", "v", "--n", "0"],
     "c-family needs a dead pair: u o_0 v is below locality 3 or exempt"),
    (["s", "--args", "g", "--args", "g1"], "s-family needs --model"),
    (["k", "--args", "f"], "k-family needs --cover"),
    (["i", "--args", "u", "--args", "v", "--n", "0"],
     "i-family takes 1 args and indices ('n',)"),
    # a current algebra's commutative part is the unit alone
    (["am", "--args", "e1", "--args", "e2", "--args", "e1", "--model", "current2"],
     "am-family slot a takes kind algebra or unit, not e1 of kind lie"),
    (["a", "--args", "e1", "--args", "e2", "--model", "current2"],
     "a-family slot a takes kind algebra or unit, not e1 of kind lie"),
    # the a and am families' function slots take functions on every model,
    # refused by slot before any table is read: a vector field is none
    (["a", "--args", "del", "--args", "b", "--model", "weyl1"],
     "a-family slot a takes kind algebra or unit, not del of kind lie"),
    (["a", "--args", "del", "--args", "del", "--model", "weyl1"],
     "a-family slot a takes kind algebra or unit, not del of kind lie"),
    (["am", "--args", "del", "--args", "b", "--args", "b", "--model", "weyl1"],
     "am-family slot a takes kind algebra or unit, not del of kind lie"),
    (["am", "--args", "b", "--args", "b + del", "--args", "b", "--model",
      "weyl1"],
     "am-family slot b takes kind algebra or unit, not del of kind lie"),
), ids=("c-live-pair", "s-without-model", "k-without-cover", "i-two-args",
        "am-on-current", "a-on-current", "a-field-on-function",
        "a-field-on-field", "am-field-times-function",
        "am-function-times-field-term"))
def test_gen_family_refusals_are_error_lines(capsys, argv, error):
    assert main(["gen"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {error}"]
    assert captured.out == ""


@pytest.mark.parametrize("argv,error", (
    (["borcherds", "--index-window", "-2"], "index_window must be >= 0, got -2"),
    (["commutative", "--max-len", "0"], "max_len must be >= 1, got 0"),
), ids=("index-window", "max-len"))
def test_empty_sampling_ranges_are_error_lines(capsys, argv, error):
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {error}"]
    assert captured.out == ""


def test_locality_above_the_truncation_level_is_an_error_line(capsys):
    assert main(["verify", "borcherds", "--locality", "4", "--trunc", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: need 1 <= locality <= trunc_level"]
    assert captured.out == ""


def test_index_window_zero_runs(capsys):
    assert main(["verify", "borcherds", "--index-window", "0", "--samples", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("suite borcherds: pass")


@pytest.mark.parametrize("text,error", (
    ("[1]", "model file must hold a JSON object, got [1]"),
    ("null", "model file must hold a JSON object, got null"),
    ('{"name": "m"}', "model file has no 'kind' field"),
    ('{"kind": []}', "kind: expected a model kind, got []"),
    ('{"kind": "Octonion"}', "unknown model kind 'Octonion'; kinds: DiffPoly, "
     "Weyl1, CurrentLie, DeRham1, DeRham2Conn"),
    ('{"kind": "DiffPoly", "max_degre": 3}', "DiffPoly takes no parameter 'max_degre'"),
    ('{"kind": "CurrentLie"}', "CurrentLie needs the parameter 'variables'"),
    ('{"kind": "DiffPoly", "max_degree": "x"}',
     'max_degree: expected a non-negative integer, got "x"'),
    # the makers build every symbol up to max_degree, so 2**70 would not end
    ('{"kind": "Weyl1", "max_degree": 1180591620717411303424}',
     "max_degree: expected at most 64, got 1180591620717411303424"),
    ('{"kind": "DeRham2Conn", "max_degree": 65}',
     "max_degree: expected at most 64, got 65"),
    ('{"kind": "CurrentLie", "variables": ["e1", "e2"], '
     '"structure_constants": [[0, 5, 1, "1"]]}',
     'structure_constants[0]: expected [i, j, k, c] with i, j, k in 0..1, '
     'got [0, 5, 1, "1"]'),
    ('{"kind": "CurrentLie", "variables": ["e1", "e2"], "structure_constants": [[0, 1]]}',
     "structure_constants[0]: expected [i, j, k, c] with i, j, k in 0..1, got [0, 1]"),
    ('{"kind": "CurrentLie", "variables": ["e1", "e2"], '
     '"structure_constants": [[0, 0, 1, "1"]]}',
     "structure_constants[0]: needs i != j"),
    ('{"kind": "CurrentLie", "variables": 3}', "variables: expected a list of names, got 3"),
    ('{"kind": "DeRham2Conn", "connection": [1, 2]}',
     "connection: expected [a1, a2] as polynomial text, got [1, 2]"),
    ('{"kind": "DeRham2Conn", "connection": ["1/0", "0"]}',
     "connection[0]: bad coefficient '1/0' in '1/0'"),
), ids=("list", "null", "no-kind", "kind-list", "unknown-kind", "misspelt-field",
        "missing-field", "degree-text", "degree-huge", "degree-derham2",
        "constant-index", "constant-short", "constant-diagonal", "variables-number",
        "connection-numbers", "connection-zero-denominator"))
def test_malformed_model_file_is_an_error_line(tmp_path, capsys, text, error):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["reduce", "b", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {error}"]
    assert "Traceback" not in captured.err


def test_python_m_vertexalg_exits_2_with_one_error_line(tmp_path):
    # the __main__ path: main()'s return code becomes the process's
    path = tmp_path / "kind.json"
    path.write_text('{"kind": []}')
    src = Path(vertexalg.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "vertexalg", "reduce", "b", "--model", str(path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: kind: expected a model kind, got []"]
    assert done.stdout == ""


def test_unknown_shipped_model_is_an_error_line(capsys):
    assert main(["reduce", "b", "--model", "nope"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown model 'nope'; shipped: current2, current3, derham1, "
        "derham2_b2, derham2_lin, diffpoly, weyl1"
    ]


def _cover_two_with(**fields):
    with open(COVER_TWO) as fh:
        return json.dumps({**json.load(fh), **fields})


def _section_with(**fields):
    return [{"name": "f", "support": [0, 3], **fields}]


@pytest.mark.parametrize("text,error", (
    ("[1]", "cover file must hold a JSON object, got [1]"),
    ('"ab"', 'cover file must hold a JSON object, got "ab"'),
    ("5", "cover file must hold a JSON object, got 5"),
    ("null", "cover file must hold a JSON object, got null"),
    (_cover_two_with(patches=[1]), "patches[0]: expected an object, got 1"),
    (_cover_two_with(sections=[1]), "sections[0]: expected an object, got 1"),
    (_cover_two_with(universe=[0]), "universe: expected [lo, hi], got [0]"),
    (_cover_two_with(sections=5), "sections: expected a list of objects, got 5"),
    (_cover_two_with(patches="ab"), 'patches: expected a list of objects, got "ab"'),
    (_cover_two_with(sections=_section_with(parity=[1])),
     "sections[0].parity: expected 0 or 1, got [1]"),
    (_cover_two_with(universe=[0, "x"]), 'universe[1]: expected a rational, got "x"'),
    # a string bound is read by parsing.DIGITS, not by Fraction's own rule
    (_cover_two_with(universe=[0, "\u0663"]),
     'universe[1]: expected a rational, got "\\u0663"'),
    (_cover_two_with(universe=[0, "1_0"]), 'universe[1]: expected a rational, got "1_0"'),
    (_cover_two_with(universe=[0, "1e3"]), 'universe[1]: expected a rational, got "1e3"'),
    (_cover_two_with(universe=[0, " 3"]), 'universe[1]: expected a rational, got " 3"'),
    (_cover_two_with(universe=[0, "3/0"]), 'universe[1]: expected a rational, got "3/0"'),
    (_cover_two_with(sections=_section_with(name=7)),
     "sections[0].name: expected a name, got 7"),
    (_cover_two_with(patches=[{"window": [0, 3], "core": [0, 3], "sigma": "s1"}]),
     "patches[0].rho: missing"),
    # a field no reader reads is refused, not dropped
    (_cover_two_with(sectoins=_section_with()), "sectoins: unknown field"),
    (_cover_two_with(sections=_section_with(degre=1)),
     "sections[0].degre: unknown field"),
    (_cover_two_with(patches=[{"window": [0, 3], "core": [0, 3], "sigma": "s1",
                               "rho": "r1", "corr": [0, 3]}]),
     "patches[0].corr: unknown field"),
    # a reversed span is refused, not read as the empty set
    (_cover_two_with(universe=[3, 0]),
     "universe: expected [lo, hi] with lo <= hi, got [3, 0]"),
    (_cover_two_with(sections=[{"name": "f", "support": [0, 3]},
                               {"name": "g", "support": [2, 0]}]),
     "sections[1].support: expected [lo, hi] with lo <= hi, got [2, 0]"),
    (_cover_two_with(patches=[{"window": [0, 3], "core": ["3/2", "1/2"],
                               "sigma": "s1", "rho": "r1"}]),
     'patches[0].core: expected [lo, hi] with lo <= hi, got ["3/2", "1/2"]'),
    # a set without interior holds no section
    (_cover_two_with(universe=[1, 1]), "universe [1, 1] has no interior"),
    (_cover_two_with(sections=[{"name": "f", "support": [0, 3]},
                               {"name": "p", "support": [1, 1]}]),
     "support [1, 1] of p has no interior"),
    (_cover_two_with(patches=[{"window": [0, 3], "core": [1, 1],
                               "sigma": "s1", "rho": "r1"}]),
     "support [1, 1] of bump r1 has no interior"),
    # a section is not silently taken over by a patch's bump
    (_cover_two_with(sections=[{"name": "f", "support": [0, 3]},
                               {"name": "s1", "support": [0, 2]}]),
     "s1 is declared twice"),
    # a section is not taken for the restriction its name spells
    (_cover_two_with(sections=[{"name": "f", "support": [0, 3]},
                               {"name": "g", "support": [0, 2]},
                               {"name": "g|1..2", "support": [1, 2], "parity": 1}]),
     "name g|1..2 holds '|', which minted names use"),
    (_cover_two_with(patches=[{"window": [0, 3], "core": [0, 3], "sigma": "s1*f",
                               "rho": "r1"}]),
     "bump name s1*f holds '*', which minted names use"),
), ids=("list", "string", "number", "null", "patch-not-object",
        "section-not-object", "short-universe", "sections-not-list",
        "patches-not-list", "parity-list", "bound-not-rational", "bound-other-digit",
        "bound-underscore", "bound-exponent", "bound-space", "bound-zero-denominator",
        "name-not-string", "rho-missing", "unknown-top-field",
        "unknown-section-field", "unknown-patch-field", "reversed-universe",
        "reversed-support", "reversed-core", "point-universe", "point-support",
        "point-core", "section-named-like-a-bump", "section-named-like-a-restriction",
        "bump-named-like-a-dressing"))
def test_malformed_cover_file_is_an_error_line(tmp_path, capsys, text, error):
    path = tmp_path / "cover.json"
    path.write_text(text)
    assert main(["support", "f", "--cover", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {error}"]
    assert captured.out == ""


# -- malformed documents never raise --------------------------------------------

_SHIPPED_DOCS = tuple(json.loads(p.read_text()) for p in sorted(DATA_DIR.glob("*.json")))
_COVER_DOCS = tuple(doc for doc in _SHIPPED_DOCS if "kind" not in doc)
_MODEL_DOCS = tuple(doc for doc in _SHIPPED_DOCS if "kind" in doc)

# every field name a shipped document or a model maker reads
_FIELDS = sorted({k for doc in _SHIPPED_DOCS for k in doc}
                 | {"name", "support", "parity", "degree", "window", "core",
                    "sigma", "rho", "max_degree"})

# integers stay small: a model's max_degree of 64 builds some 15k symbols
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.floats(-4, 4, allow_nan=False)
    | st.sampled_from(("f", "g", "s1", "r1", "3/2", "1", "b", "e1", "Weyl1",
                       "CurrentLie", "DeRham2Conn", "g|1..2"))
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def _positions(doc, at=()):
    """The path of every value in doc, doc itself first."""
    yield at
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _positions(value, at + (key,))


@st.composite
def _mutants(draw):
    """A shipped cover or model document, as often one as the other, with
    one field replaced, deleted or added.  A new value is as often one of
    the document's own values of the replaced value's type as a random
    one, so many mutants still load."""
    doc = draw(st.sampled_from(_COVER_DOCS) | st.sampled_from(_MODEL_DOCS))
    doc = json.loads(json.dumps(doc))
    positions = list(_positions(doc))
    at = draw(st.sampled_from(positions))
    alike = [json.dumps(_at(doc, p)) for p in positions
             if type(_at(doc, p)) is type(_at(doc, at))]
    value = draw(_JSON | st.sampled_from(alike).map(json.loads))
    if not at:
        return value
    parent = _at(doc, at[:-1])
    action = draw(st.sampled_from(("replace", "delete", "add")))
    if action == "delete":
        del parent[at[-1]]
    elif action == "add" and isinstance(parent[at[-1]], dict):
        parent[at[-1]][draw(st.sampled_from(_FIELDS))] = value
    else:
        parent[at[-1]] = value
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# DOC stands for the document's path
_DOCUMENT_COMMANDS = (
    ["support", "f", "--cover", "DOC"],
    ["sheaf", "check", "--cover", "DOC", "--global", "f"],
    ["gen", "k", "--cover", "DOC", "--args", "f"],
    ["reduce", "o{-1}(1, 1)", "--model", "DOC"],
    ["gen", "s", "--model", "DOC", "--args", "1", "--args", "1"],
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docs") / "doc.json"


@settings(max_examples=150, deadline=None)
@given(_mutants() | _JSON)
def test_a_malformed_document_never_raises(doc_path, doc):
    # each command reads the document as a cover or as a model file: a
    # verdict or an error line, never an exception
    doc_path.write_text(json.dumps(doc))
    for argv in _DOCUMENT_COMMANDS:
        assert main([str(doc_path) if a == "DOC" else a for a in argv]) in (0, 1, 2)


def test_grade_reads_degree_and_parity_assignments(capsys):
    argv = ["grade", "o{-1}(g, a)", "--degrees", "g=1,a=0", "--parities", "a=1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "degree: 1", "lengths: 2", "shapes: 1",
    ]
    # an assigned degree overrides the degree-0 default of a
    assert main(["grade", "o{-1}(g, a)", "--degrees", "a=5/2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "degree: 7/2"
    assert main(["grade", "g", "--degrees", "g"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: expected name=value, got 'g'"]


def test_support_prints_syntactic_and_semantic(capsys):
    assert main(["support", "o{-1}(f,g)", "--cover", COVER_TWO]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "support: [0, 2]", "semantic: [0, 2]",
    ]
