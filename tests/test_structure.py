"""Structure rules of the package source, read through `ast` or `tokenize`.

Each rule is one row of RULES: a name, the files it reads, a function
hits(source) that returns the line numbers of the rule's violations in
one file's source, and planted violations, snippets each of which hits
must flag, so that every rule is shown to be able to fail.  Each file is
read, parsed and tokenized once, however many rules read it.
"""

import ast
import io
import re
import tokenize
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "vertexalg"


def _modules_but(*names) -> tuple:
    """Every module of the package except the named ones, which are paths
    relative to the package."""
    return tuple(p for p in sorted(PKG.rglob("*.py"))
                 if p.relative_to(PKG).as_posix() not in names)


@cache
def _read(path: Path) -> str:
    return path.read_text()


@cache
def _nodes(source: str) -> tuple:
    """Every syntax node of the source."""
    return tuple(ast.walk(ast.parse(source)))


@cache
def _tokens(source: str) -> tuple:
    return tuple(tokenize.generate_tokens(io.StringIO(source).readline))


def _node_hits(flags) -> Callable:
    """hits of a rule that flags single syntax nodes."""
    return lambda source: [node.lineno for node in _nodes(source) if flags(node)]


def _name_of(node):
    """The name a node reads or binds: a name, an attribute, a definition,
    a parameter, a keyword or an import; None for any other node."""
    for field in ("id", "attr", "name", "arg"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return None


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


_CUT_BUILDS = ("o", "fam_i", "fam_e", "fam_f")


def _truncates_a_built_base(node) -> bool:
    """truncate(...) whose first argument is a call of .o, fam_i, fam_e or
    fam_f: a base built whole, then cut."""
    return (isinstance(node, ast.Call) and _is_named(node.func, "truncate")
            and bool(node.args) and isinstance(node.args[0], ast.Call)
            and any(_is_named(node.args[0].func, nm) for nm in _CUT_BUILDS))


_OPEN_SET_NAMES = {"interior", "closure", "lo_closed", "hi_closed"}


def _names_an_open_set_tool(node) -> bool:
    """A name, attribute, definition, parameter, keyword or import named
    after an open or half-open set."""
    return any(getattr(node, field, None) in _OPEN_SET_NAMES
               for field in ("id", "attr", "name", "arg"))


def _walks_a_stack(node) -> bool:
    """A while loop whose test reads the name stack."""
    return isinstance(node, ast.While) and any(
        isinstance(n, ast.Name) and n.id == "stack" for n in ast.walk(node.test))


def _word_leaf_hits(source: str) -> list:
    """Lines holding the word Leaf in any token: a name, a comment or a
    string, each line of a string that spans lines counted as its own."""
    return [start[0] + text[:m.start()].count("\n")
            for _, text, start, _, _ in _tokens(source)
            for m in re.finditer(r"\bLeaf\b", text)]


# a hand-written case loop seeds its witness with None, keeps an ok flag or
# collects a failures list; a name ending in the stem counts, as all_ok does
_CASE_LOOP_SEEDS = {"witness": {"None"}, "ok": {"True", "False"}, "failures": {"[]"}}


def _seeds_a_case_loop(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        (_name_of(t) or "").endswith(stem) and ast.unparse(node.value) in seeds
        for t in node.targets for stem, seeds in _CASE_LOOP_SEEDS.items())


def _is_named(node, name: str) -> bool:
    return isinstance(node, (ast.Name, ast.Attribute)) and _name_of(node) == name


def _float_check(node) -> bool:
    """isinstance(x, float), float alone or in a tuple of types."""
    if not (isinstance(node, ast.Call) and _is_named(node.func, "isinstance")
            and len(node.args) == 2):
        return False
    types = node.args[1]
    types = types.elts if isinstance(types, ast.Tuple) else [types]
    return any(_is_named(t, "float") for t in types)


def _leaf_test(node) -> bool:
    return isinstance(node, ast.Compare) and any(
        isinstance(op, ast.IsNot) and _is_named(right, "Symbol")
        for op, right in zip(node.ops, node.comparators))


def _calls_id(node) -> bool:
    return isinstance(node, ast.Call) and _is_named(node.func, "id")


def _compares_model_name(node) -> bool:
    return isinstance(node, ast.Compare) and any(
        isinstance(n, ast.Attribute) and n.attr == "name"
        and _name_of(n.value) == "model"
        for n in [node.left, *node.comparators])


def _spells_function_kinds(node) -> bool:
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return False
    values = [e.value for e in node.elts if isinstance(e, ast.Constant)]
    return len(values) == len(node.elts) == 2 and set(values) == {"algebra", "unit"}


def _driver_hits(source: str) -> list:
    """Lines defining or calling _one_pass, except, in rewrite.py, its
    module-level definition and its one call inside reduce_element."""
    sites = [n for n in _nodes(source)
             if isinstance(n, ast.FunctionDef) and n.name == "_one_pass"
             or isinstance(n, ast.Call) and _is_named(n.func, "_one_pass")]
    if source == _read(PKG / "rewrite.py"):
        module = _nodes(source)[0]
        defs = [n for n in module.body if n in sites]
        calls = [n for f in module.body if isinstance(f, ast.FunctionDef)
                 and f.name == "reduce_element"
                 for n in ast.walk(f) if n in sites]
        if len(defs) != 1 or len(calls) != 1:
            return [n.lineno for n in sites] or [1]
        sites = [n for n in sites if n is not defs[0] and n is not calls[0]]
    return [n.lineno for n in sites]


def _second_rule_table(node) -> bool:
    """A branch on a rule's name, or a name of a second pair table."""
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return (any((_name_of(n) or "").endswith("rule") for n in sides)
                and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                        for n in sides))
    name = _name_of(node) or ""
    return ("_punct" in name or "is_exempt" in name or name.endswith("_table")
            or name == "_pairs")


_DECLARERS = {"declare_section", "declare_bump", "declare_partition"}


def _adds_a_declaration(node) -> bool:
    """A def, call or attribute named after a declaration mutator."""
    return (isinstance(node, (ast.FunctionDef, ast.Name, ast.Attribute))
            and _name_of(node) in _DECLARERS)


def _knows_supports(node) -> bool:
    """An import from the intervals module, or the name support."""
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[-1] == "intervals"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "intervals" for a in node.names)
    return _name_of(node) == "support"


class Rule(NamedTuple):
    name: str
    files: tuple
    hits: Callable   # source -> line numbers of the violations in it
    planted: tuple   # snippets, each of which hits must flag


RULES = (
    # preorder, fold_tree, render and any_leaf_pair are the tree walks
    Rule("Tree walks live in terms.py", _modules_but("terms.py"),
         _node_hits(_walks_a_stack),
         ("while stack:\n    node = stack.pop()\n",)),
    # a tree's leaf is the alphabet's Symbol itself, with no wrapper class
    Rule("Trees have one leaf type", _modules_but(), _word_leaf_hits,
         ("class Leaf:\n    pass\n", "x = 1  # a Leaf\n",
          "'''a tree\nof Leaf nodes'''\n")),
    # models.base.case_check is the one case loop of every check
    Rule("Check loops go through case_check", _modules_but(),
         _node_hits(_seeds_a_case_loop),
         ("witness = None\n", "ok = True\n", "failures = []\n")),
    # generators._certified_bound is the one rule that picks a tail bound
    Rule("Tail bounds come from _certified_bound",
         _modules_but("generators.py"), _node_hits(_reads_policy_level),
         ("def bound(policy, K):\n    return max(K, policy.level)\n",)),
    # terms.as_coeff is the one rule that stores a coefficient
    Rule("Exact coefficients follow one rule", _modules_but("terms.py"),
         _node_hits(_float_check),
         ("if isinstance(c, float):\n    raise TypeError(c)\n",)),
    # terms.leaf_terms is the one test of whether an Element is a leaf
    # combination
    Rule("Leaf combinations are read by leaf_terms", _modules_but("terms.py"),
         _node_hits(_leaf_test),
         ("flat = all(t.__class__ is not Symbol for t in x.terms)\n",)),
    # generators.py is where a dead product is dropped: by truncate, and
    # from the bases _cut_o builds
    Rule("Locality is cut only by truncate",
         _modules_but("generators.py"), _node_hits(_names_a_deadness_test),
         ("from .generators import _term_is_dead\n",)),
    # a tail base is built under the cut, by _cut_o or a family given the
    # cut, so a leaf pair the policy kills is never built
    Rule("Tail bases are built under the cut",
         (PKG / "bridges.py", PKG / "generators.py"),
         _node_hits(_truncates_a_built_base),
         ("base = truncate(y.o(n + k, x), cut)\n",
          "base = truncate(fam_f(y, x, n + k), cut)\n")),
    # ids are reused once a form is freed, so a memo keyed by id() hands
    # back stale images
    Rule("Operator memos are keyed by content", (PKG / "models" / "geometry.py",),
         _node_hits(_calls_id), ("memo[id(section)] = image\n",)),
    # diffpoly and weyl1 are one line model, built by one rule
    Rule("Shipped morphisms come from one rule", (PKG / "models" / "morphisms.py",),
         _node_hits(_compares_model_name),
         ("if model.name == \"weyl1\":\n    pass\n",)),
    # generators.FUNCTION_KINDS is the one tuple of the function kinds
    Rule("Function kinds come from FUNCTION_KINDS", _modules_but("generators.py"),
         _node_hits(_spells_function_kinds),
         ("pool = model.symbols((\"algebra\", \"unit\"))\n",)),
    # reduce_element is the one loop over the pass engine, so every budget
    # counts rule firings; the tests and the benchmark are read too
    Rule("Reductions have one driver",
         tuple(p for top in ("src", "tests", "perfbench")
               for p in sorted((ROOT / top).rglob("*.py"))),
         _driver_hits,
         ("def drive(x, rules):\n    return _one_pass(x, rules, 10)\n",
          "def _one_pass(x, rules, allowance):\n    pass\n")),
    # rewrite.RULES is the one table of root rules and TruncationPolicy's
    # _rules the one table of pair localities and exemptions
    Rule("Each rule system is one table",
         (PKG / "rewrite.py", PKG / "generators.py"),
         _node_hits(_second_rule_table),
         ("if rule == \"unit_strip\":\n    pass\n", "_punctured = {}\n",
          "pair_table = {}\n", "def is_exempt(pair, index):\n    pass\n",
          "hit = self._pairs.get((u, v))\n")),
    # a SheafContext takes every declaration in its constructor, so its
    # caches never see a declaration arrive
    Rule("Sheaf contexts are fixed when built",
         tuple(p for top in ("src", "tests") for p in sorted((ROOT / top).rglob("*.py"))),
         _node_hits(_adds_a_declaration),
         ("def declare_section(self, name, support):\n    pass\n",
          "ctx.declare_bump(\"s\", window, core)\n",
          "declare_partition((\"r1\", \"r2\"))\n")),
    # a Symbol is its name, parity, degree and kind; windows live in
    # sheaf.TaggedInfo
    Rule("The term layer knows nothing of supports", (PKG / "terms.py",),
         _node_hits(_knows_supports),
         ("from .intervals import SupportSet\n",
          "import vertexalg.intervals\n",
          "support: object = None\n", "x = sym.support\n")),
    # every SupportSet is closed, so no interior or closure is ever taken
    Rule("Supports are closed", _modules_but(), _node_hits(_names_an_open_set_tool),
         ("inner = s.interior()\n",)),
)


@pytest.mark.parametrize("rule", RULES,
                         ids=[r.name.lower().replace(" ", "-") for r in RULES])
def test_the_package_keeps_the_rule(rule):
    for snippet in rule.planted:
        assert rule.hits(snippet), f"cannot flag its plant {snippet!r}"
    assert rule.files
    found = [f"{p.relative_to(ROOT).as_posix()}:{line}" for p in rule.files
             for line in rule.hits(_read(p))]
    assert found == []
