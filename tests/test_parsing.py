"""Term grammar: parse and the canonical printer are mutually inverse."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from vertexalg.parsing import ParseError, parse, to_text
from vertexalg.terms import Alphabet, Element, Symbol


@pytest.fixture
def al():
    a = Alphabet()
    for nm in ("a", "b", "g2"):
        a.add(Symbol(nm, 0, Q(0), "generic"))
    return a


class TestAtoms:
    def test_symbol(self, al):
        assert parse("a", al) == Element.sym(al, "a")

    def test_unit(self, al):
        assert parse("1", al) == Element.unit(al)

    def test_zero(self, al):
        assert parse("0", al).is_zero()

    def test_product(self, al):
        got = parse("o{2}(a, b)", al)
        assert got == Element.sym(al, "a").o(2, Element.sym(al, "b"))

    def test_negative_index(self, al):
        got = parse("o{-2}(a, 1)", al)
        assert got == Element.sym(al, "a").D()

    def test_nesting(self, al):
        got = parse("o{0}(o{-1}(a, b), g2)", al)
        a, b, g = (Element.sym(al, n) for n in ("a", "b", "g2"))
        assert got == a.o(-1, b).o(0, g)


class TestCombinations:
    def test_sum_and_difference(self, al):
        a, b = Element.sym(al, "a"), Element.sym(al, "b")
        assert parse("a + b - a", al) == b

    def test_rational_coefficients(self, al):
        a = Element.sym(al, "a")
        assert parse("3*a", al) == 3 * a
        assert parse("-1/2 * a + a", al) == Q(1, 2) * a

    def test_coefficient_on_product(self, al):
        a, b = Element.sym(al, "a"), Element.sym(al, "b")
        assert parse("2/3 * o{1}(a, b)", al) == Q(2, 3) * a.o(1, b)

    def test_leading_negative_coefficient(self, al):
        a = Element.sym(al, "a")
        assert parse("-1*a", al) == -a

    def test_bare_leading_minus_is_outside_the_grammar(self, al):
        # the sign belongs to a rational coefficient, never to an atom
        with pytest.raises(ParseError):
            parse("-a", al)


class TestErrors:
    def test_unknown_symbol(self, al):
        with pytest.raises(ParseError, match="unknown symbol"):
            parse("nope", al)

    def test_malformed_product(self, al):
        with pytest.raises(ParseError):
            parse("o{1}(a b)", al)

    def test_trailing_garbage(self, al):
        with pytest.raises(ParseError):
            parse("a +", al)

    def test_missing_index(self, al):
        with pytest.raises(ParseError):
            parse("o{}(a, b)", al)


# round-trip property over random elements
_al = Alphabet()
for _nm in ("a", "b", "c"):
    _al.add(Symbol(_nm, 0, Q(0), "generic"))


@st.composite
def elements(draw):
    def tree(k):
        if k == 1:
            name = draw(st.sampled_from(("a", "b", "c", "1")))
            return (
                Element.unit(_al)
                if name == "1"
                else Element.sym(_al, name)
            )
        split = draw(st.integers(1, k - 1))
        return tree(split).o(draw(st.integers(-4, 4)), tree(k - split))

    out = Element.zero(_al)
    for _ in range(draw(st.integers(0, 3))):
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 4))
        out = out + Q(num, den) * tree(draw(st.integers(1, 3)))
    return out


class TestRoundTrip:
    @given(elements())
    def test_parse_inverts_print(self, x):
        assert parse(to_text(x), _al) == x

    def test_zero_prints_as_zero(self):
        assert to_text(Element.zero(_al)) == "0"
        assert parse("0", _al).is_zero()

    def test_printer_is_deterministic(self):
        a, b = Element.sym(_al, "a"), Element.sym(_al, "b")
        x = a.o(1, b) - 2 * b.o(1, a) + Element.unit(_al)
        assert to_text(x) == to_text(a.o(1, b) - 2 * b.o(1, a) + Element.unit(_al))


# messages and positions of the recursive-descent parser the explicit-stack
# parser replaced
_ERRORS = [
    ("nope", "unknown symbol 'nope' (at position 0)"),
    ("o{1}(a b)", "expected ',', got 'b' (at position 7)"),
    ("a +", "expected an atom, got '' (at position 3)"),
    ("o{}(a, b)", "expected an integer product index (at position 2)"),
    ("-a", "expected an atom, got '-' (at position 0)"),
    ("a $ b", "unexpected character '$' (at position 2)"),
    ("2 a", "bare number '2' is not an atom (at position 0)"),
    ("-2 a", "expected '*' after coefficient (at position 3)"),
    ("1/0*a", "zero denominator (at position 2)"),
    ("o{1}(a, b", "expected ')', got '' (at position 9)"),
    ("o{1}(a, b))", "trailing input ')' (at position 10)"),
    ("o{1}a, b)", "expected '(', got 'a' (at position 4)"),
    ("o{1(a, b)", "expected '}', got '(' (at position 3)"),
    ("o{1}(a, o{2}(b, )", "expected an atom, got ')' (at position 16)"),
    ("o{1}(a,, b)", "expected an atom, got ',' (at position 7)"),
    ("", "expected an atom, got '' (at position 0)"),
    ("2/*a", "expected 'num', got '*' (at position 2)"),
    ("o{0}(o{1}(a, b) c, a)", "expected ',', got 'c' (at position 16)"),
    (
        "o{0}(a, o{1}(b, a) + 2 * o{2}(a, nope))",
        "unknown symbol 'nope' (at position 33)",
    ),
    ("1/2", "expected '*', got '' (at position 3)"),
    ("o{1}(a, 'b)", "unterminated quoted name (at position 8)"),
    ("'a''", "unterminated quoted name (at position 0)"),
    ("2*'no pe'", "unknown symbol 'no pe' (at position 2)"),
    # numbers are ASCII digits: other Unicode digits are no number
    ("\u00b2*1", "unexpected character '\u00b2' (at position 0)"),
    ("\u0663*1", "unexpected character '\u0663' (at position 0)"),
]


@pytest.mark.parametrize("text,message", _ERRORS)
def test_error_messages(al, text, message):
    with pytest.raises(ParseError) as info:
        parse(text, al)
    assert str(info.value) == message


class TestDeep:
    # the parser keeps its own stack, so nesting depth only costs time

    def test_deep_tower_round_trips(self, al):
        a, b = Element.sym(al, "a"), Element.sym(al, "b")
        x = a.D_pow(1500)
        assert parse(to_text(x), al) == x
        y = Q(2, 3) * b.o(-1, x) - x + Element.unit(al)
        assert parse(to_text(y), al) == y

    def test_deep_right_nesting(self, al):
        depth = 1500
        text = "o{1}(a, " * depth + "2*b - a" + ")" * depth
        want = 2 * Element.sym(al, "b") - Element.sym(al, "a")
        for _ in range(depth):
            want = Element.sym(al, "a").o(1, want)
        assert parse(text, al) == want


class TestQuotedNames:
    def test_a_quoted_identifier_is_the_bare_one(self, al):
        assert parse("o{0}('a', 'g2')", al) == parse("o{0}(a, g2)", al)
        assert parse("'1'", al) == Element.unit(al)

    def test_only_non_identifiers_are_quoted(self):
        al = Alphabet()
        for nm in ("_x1", "f|0..1", "it's", "2b", ""):
            al.add(Symbol(nm))
        x = Element.sym(al, "_x1").o(0, Element.sym(al, "f|0..1"))
        assert to_text(x) == "o{0}(_x1, 'f|0..1')"
        assert to_text(Element.sym(al, "it's")) == "'it''s'"
        assert to_text(Element.sym(al, "2b") - Element.sym(al, "")) == "-1*'' + '2b'"

    @given(st.text(max_size=6).filter(lambda nm: nm != "1"))
    def test_any_name_round_trips(self, name):
        al = Alphabet()
        al.add(Symbol(name))
        x = Element.sym(al, name)
        y = x.o(-2, x) - Q(1, 2) * x + Element.unit(al)
        assert parse(to_text(y), al) == y
