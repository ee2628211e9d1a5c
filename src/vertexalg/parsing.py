"""Text form of elements: tokenizer, parser, printer.

Grammar:
    element  := term (("+" | "-") term)*
    term     := [rational "*"] atom
    atom     := "1" | symbol | "o{" integer "}" "(" element "," element ")"
    symbol   := identifier | "'" name "'"
    rational := ["-"] digits ["/" digits]

digits are ASCII 0-9: another Unicode digit, such as the superscript 2,
starts no number and is a ParseError.  "0" is accepted for the zero
element and is what the printer emits for it.  A symbol name that is not
an identifier, such as the sheaf's minted 'f|0..5/3' or 's1*f', is
quoted, with any quote inside it doubled; the parser looks a quoted name
up in the alphabet like any other.  The printer orders monomials
canonically, so print/parse round-trips exactly.  Neither the parser nor
the printer recurses on nesting depth: a deep tree costs time, never
RecursionError.

read_document reads the JSON documents the program takes from outside,
model files and cover files, and refuses one that is not a JSON object.
expect and read_rational check one field of such a document; a field of
the wrong shape is a ValueError that names its JSON path.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

from .terms import Alphabet, Element, render

Q = Fraction

# the one digit rule, read by tokens, models.polys.parse_poly and
# read_rational: ASCII 0-9 only, since str.isdigit, str.isdecimal and
# Fraction(str) take other scripts' digits
DIGITS = re.compile("[0-9]+")
_RATIONAL_TEXT = re.compile(f"-?{DIGITS.pattern}(?:/{DIGITS.pattern})?")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def tokens(text: str):
    """(kind, text, position) triples; kind is num, ident, prod, op or end."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        number = DIGITS.match(text, i)
        if number:
            yield ("num", number.group(), i)
            i = number.end()
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "o" and j < n and text[j] == "{":
                yield ("prod", "o{", i)
                i = j + 1
                continue
            yield ("ident", word, i)
            i = j
            continue
        if ch == "'":
            j = i + 1
            while True:
                j = text.find("'", j)
                if j < 0:
                    raise ParseError("unterminated quoted name", i)
                if text[j + 1 : j + 2] != "'":
                    break
                j += 2  # a doubled quote is a quote inside the name
            yield ("ident", text[i + 1 : j].replace("''", "'"), i)
            i = j + 1
            continue
        if ch in "+-*/(),}":
            yield ("op", ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    yield ("end", "", n)


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.toks = list(tokens(text))
        self.pos = 0
        self.alphabet = alphabet

    def peek(self, ahead: int = 0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, got {tok[1]!r}", tok[2])
        return tok

    def parse_element(self) -> Element:
        """element := term (("+" | "-") term)*, with every product operand
        parsed on an explicit stack rather than by recursion.

        Each open o{n}( pushes a frame holding the sum and sign of the
        element it interrupts, the product term's coefficient, its index
        and, once the comma is passed, its left operand."""
        frames = []
        total, sign = None, 1
        while True:
            coeff = self.parse_coefficient()
            kind, value, pos = self.next()
            if kind == "prod":
                index = self.parse_index()
                self.expect("op", "}")
                self.expect("op", "(")
                frames.append([total, sign, coeff, index, None])
                total, sign = None, 1
                continue
            term = self.parse_leaf_atom(kind, value, pos)
            while True:
                if coeff is not None:
                    term = coeff * term
                total = term if total is None else total + sign * term
                tok = self.peek()
                if tok[0] == "op" and tok[1] in "+-":
                    sign = 1 if self.next()[1] == "+" else -1
                    break
                if not frames:
                    return total
                frame = frames[-1]
                if frame[4] is None:
                    self.expect("op", ",")
                    frame[4] = total
                    total, sign = None, 1
                    break
                self.expect("op", ")")
                outer, sign, coeff, index, left = frames.pop()
                term = left.o(index, total)
                total = outer

    def parse_coefficient(self):
        """The optional leading 'rational *' of a term, or None."""
        kind, value, _ = self.peek()
        negative = False
        if kind == "op" and value == "-" and self.peek(1)[0] == "num":
            self.next()
            negative = True
            kind, value, _ = self.peek()
        if kind == "num":
            # "1"/"0" standing alone are atoms, anything else a coefficient
            nxt = self.peek(1)
            is_coeff = nxt[0] == "op" and nxt[1] in "*/"
            if negative and not is_coeff:
                raise ParseError("expected '*' after coefficient", nxt[2])
            if is_coeff:
                coeff = self.parse_rational(negative)
                self.expect("op", "*")
                return coeff
        return None

    def parse_rational(self, negative: bool) -> Fraction:
        num = int(self.expect("num")[1])
        den = 1
        if self.peek()[0] == "op" and self.peek()[1] == "/":
            self.next()
            _, value, pos = self.expect("num")
            den = int(value)
            if den == 0:
                raise ParseError("zero denominator", pos)
        val = Q(num, den)
        return -val if negative else val

    def parse_leaf_atom(self, kind: str, value: str, pos: int) -> Element:
        """Every atom but a product, from its already-consumed token."""
        if kind == "num":
            if value == "1":
                return Element.unit(self.alphabet)
            if value == "0":
                return Element.zero(self.alphabet)
            raise ParseError(f"bare number {value!r} is not an atom", pos)
        if kind == "ident":
            if not self.alphabet.has(value):
                raise ParseError(f"unknown symbol {value!r}", pos)
            return Element.sym(self.alphabet, value)
        raise ParseError(f"expected an atom, got {value!r}", pos)

    def parse_index(self) -> int:
        kind, value, pos = self.next()
        if kind == "op" and value == "-":
            return -int(self.expect("num")[1])
        if kind == "num":
            return int(value)
        raise ParseError("expected an integer product index", pos)


def parse(text: str, alphabet: Alphabet) -> Element:
    p = _Parser(text, alphabet)
    out = p.parse_element()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return out


def _name_text(name: str) -> str:
    """name as the parser reads it back: bare for the unit's 1 or for what
    tokens reads as one identifier ("_" may stand wherever a letter may),
    else quoted."""
    head = name[:1]
    plain = (head.isalpha() or head == "_") and name.replace("_", "a").isalnum()
    if plain or name == "1":
        return name
    return "'" + name.replace("'", "''") + "'"


def _atom_text(t) -> str:
    return render(t, lambda s: _name_text(s.name), lambda n: (f"o{{{n.index}}}(", ", "))


def to_text(x: Element) -> str:
    items = x.sorted_terms()
    if not items:
        return "0"
    parts = []
    for i, (t, c) in enumerate(items):
        mag = c if i == 0 else abs(c)
        lead = "" if i == 0 else (" + " if c > 0 else " - ")
        piece = _atom_text(t) if mag == 1 else f"{mag}*{_atom_text(t)}"
        parts.append(lead + piece)
    return "".join(parts)


DATA_DIR = Path(__file__).parent / "data"  # the shipped model and cover files


def read_document(path, what: str) -> dict:
    """The JSON object in the file at path; what ("model file", "cover
    file") names the document in the ValueError for any other value."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must hold a JSON object, got {json.dumps(doc)[:40]}")
    return doc


def expect(ok, path: str, expected: str, value):
    """value, when ok; else a ValueError naming the field at path, what it
    expected and the value it got."""
    if not ok:
        got = json.dumps(value, default=repr)[:40]
        raise ValueError(f"{path}: expected {expected}, got {got}")
    return value


def read_rational(value, path: str) -> Fraction:
    """The rational a JSON number or a string at path gives.  A string
    is read by the digit rule: an optional "-", a DIGITS run, and an
    optional "/" with a nonzero DIGITS run ("3", "-3/2")."""
    expect(type(value) in (int, float, str), path, "a rational", value)
    if type(value) is str:
        expect(_RATIONAL_TEXT.fullmatch(value), path, "a rational", value)
    try:
        return Q(str(value))
    except (ValueError, ZeroDivisionError):
        return expect(False, path, "a rational", value)
