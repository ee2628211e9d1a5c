"""Command-line front end: malformed input ends in an error line, exit 2."""

from vertexalg.cli import main


def test_reduce_prints_normal_form(capsys):
    assert main(["reduce", "o{-1}(1, u) + 2*u"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3*u"


def test_zero_denominator_is_a_parse_error(capsys):
    assert main(["reduce", "1/0*u"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zero denominator")
    assert "Traceback" not in err


def test_too_deep_input_is_an_error_line(capsys):
    depth = 2000
    text = "o{0}(" * depth + "u" + ", v)" * depth
    assert main(["reduce", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
