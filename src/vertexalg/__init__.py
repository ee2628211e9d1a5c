"""Exact symbolic engine for integer-indexed nonassociative products.

Free algebra over a symbol alphabet, ideal generator families with
certified truncation, a projection/rewrite engine, concrete models with
commutative and operator semantics, interval-supported section algebra,
and a batch verification CLI.
"""

from .intervals import Piece, SupportSet, overlap_core
from .parsing import ParseError, parse, to_text
from .terms import (
    Alphabet,
    Element,
    GradeReport,
    Node,
    Symbol,
    binom,
    falling,
    grade,
    is_homogeneous,
    parity,
)

__all__ = [
    "Alphabet",
    "Element",
    "GradeReport",
    "Node",
    "ParseError",
    "Piece",
    "SupportSet",
    "Symbol",
    "binom",
    "falling",
    "grade",
    "is_homogeneous",
    "overlap_core",
    "parity",
    "parse",
    "to_text",
]
