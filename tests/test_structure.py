"""Structure rules of the package source, read through `ast`.

Each rule names the files it reads, a predicate over their syntax nodes
and a planted violation, a snippet its predicate must flag, so that every
rule is shown to be able to fail.  A rule's name is that of the CI grep
step that guards the same rule on source text.
"""

import ast
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "vertexalg"


def _modules_but(*names) -> tuple:
    """Every module of the package except the named ones, which are paths
    relative to the package."""
    return tuple(p for p in sorted(PKG.rglob("*.py"))
                 if p.relative_to(PKG).as_posix() not in names)


def _reads_policy_level(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "level"
            and isinstance(node.value, ast.Name) and node.value.id == "policy")


_DEADNESS_TESTS = {"_term_is_dead", "locality_kill"}


def _names_a_deadness_test(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _DEADNESS_TESTS
    if isinstance(node, ast.Attribute):
        return node.attr in _DEADNESS_TESTS
    # an import of the name
    return isinstance(node, ast.alias) and node.name in _DEADNESS_TESTS


class Rule(NamedTuple):
    name: str
    files: tuple
    flags: Callable
    planted: str


RULES = (
    # generators._certified_bound is the one rule that picks a tail bound
    Rule("Tail bounds come from _certified_bound",
         _modules_but("generators.py"), _reads_policy_level,
         "def bound(policy, K):\n    return max(K, policy.level)\n"),
    # generators.truncate is the one place a dead product is dropped
    Rule("Locality is cut only by truncate",
         _modules_but("generators.py"), _names_a_deadness_test,
         "from .generators import _term_is_dead\n"),
)


def _hits(source: str, flags, where: str) -> list:
    return [f"{where}:{node.lineno}" for node in ast.walk(ast.parse(source))
            if flags(node)]


@pytest.mark.parametrize("rule", RULES,
                         ids=[r.name.lower().replace(" ", "-") for r in RULES])
def test_the_package_keeps_the_rule(rule):
    assert _hits(rule.planted, rule.flags, "planted"), "cannot flag its plant"
    assert rule.files
    found = [hit for p in rule.files
             for hit in _hits(p.read_text(), rule.flags,
                              p.relative_to(PKG).as_posix())]
    assert found == []
