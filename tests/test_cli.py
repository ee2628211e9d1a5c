"""Command-line front end: malformed input ends in an error line, exit 2."""

import json
from importlib import resources

from vertexalg.cli import main

COVER_TWO = str(resources.files("vertexalg") / "data" / "cover_two.json")


def test_reduce_prints_normal_form(capsys):
    assert main(["reduce", "o{-1}(1, u) + 2*u"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3*u"


def test_zero_denominator_is_a_parse_error(capsys):
    assert main(["reduce", "1/0*u"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zero denominator")
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
    assert lines[-1] == "13/13 checks passed"
    assert all(line.startswith("ok   ") for line in lines[:-1])


def test_sheaf_check_disagreeing_sections_fail(capsys):
    argv = ["sheaf", "check", "--cover", COVER_TWO]
    argv += ["--sections", "f", "--sections", "g"]
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL overlap-U1-U2  (on [1, 2])" in out
    assert out[-1] == "1/2 checks passed"


def test_verify_report_records(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["verify", "dong", "sheaf", "--samples", "5", "--report", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"report written to {path}"
    report = json.loads(path.read_text())
    assert report["status"] == "pass"
    assert [r["suite"] for r in report["suites"]] == ["dong", "sheaf"]
    for rep in report["suites"]:
        assert rep["checks"]
        for c in rep["checks"]:
            assert {"id", "status", "millis"} <= set(c), c
            assert c["status"] == "pass"
