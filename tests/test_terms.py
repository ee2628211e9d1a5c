"""Core free-algebra layer: symbols, trees, exact linear combinations."""

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

import vertexalg
from vertexalg.models.factory import shipped_model
from vertexalg.models.morphisms import random_tree, shipped_morphisms
from vertexalg.terms import (
    Alphabet,
    Element,
    GradeReport,
    Node,
    Symbol,
    any_leaf_pair,
    binom,
    falling,
    grade,
    is_homogeneous,
    leaf_terms,
    leaves,
    parity,
    preorder,
    shape_key,
    sort_key,
    term_degree,
    term_length,
)
from vertexalg.parsing import parse, to_text


@pytest.fixture
def al():
    a = Alphabet()
    a.add(Symbol("x", 0, Q(0), "generic"))
    a.add(Symbol("y", 0, Q(1), "generic"))
    a.add(Symbol("p", 1, Q(0), "generic"))
    return a


def E(al, name):
    return Element.sym(al, name)


class TestBinomials:
    def test_small_values(self):
        assert [binom(4, k) for k in range(6)] == [1, 4, 6, 4, 1, 0]

    def test_negative_upper_index(self):
        # binom(-2, k) = (-1)^k (k + 1): -2 choose k over falling factorials
        assert [binom(-2, k) for k in range(5)] == [1, -2, 3, -4, 5]

    def test_negative_one(self):
        assert [binom(-1, k) for k in range(4)] == [1, -1, 1, -1]

    def test_negative_k_is_zero(self):
        assert binom(3, -1) == 0

    def test_falling(self):
        assert falling(5, 2) == 20
        assert falling(-2, 3) == (-2) * (-3) * (-4)
        assert falling(7, 0) == 1


class TestAlphabet:
    def test_unit_exists(self):
        al = Alphabet()
        assert al.unit.kind == "unit"
        assert al.has("1")

    def test_second_unit_rejected(self, al):
        with pytest.raises(ValueError):
            al.add(Symbol("one", 0, Q(0), "unit"))

    def test_reregistering_same_symbol_is_noop(self, al):
        before = len(al.names())
        al.add(Symbol("x", 0, Q(0), "generic"))
        assert len(al.names()) == before

    def test_clashing_redefinition_rejected(self, al):
        with pytest.raises(ValueError):
            al.add(Symbol("x", 1, Q(0), "generic"))

    def test_unknown_symbol_raises(self, al):
        with pytest.raises(KeyError):
            al.symbol("nope")


class TestElementArithmetic:
    def test_zero_identity(self, al):
        x = E(al, "x")
        assert (x + Element.zero(al)) == x
        assert (x - x).is_zero()

    def test_scalar_multiplication(self, al):
        x = E(al, "x")
        assert (2 * x) + x == 3 * x
        assert (Q(1, 2) * x) * 2 == x
        assert (0 * x).is_zero()

    def test_float_coefficients_rejected(self, al):
        with pytest.raises(TypeError):
            Element.sym(al, "x", 0.5)

    def test_mixed_alphabets_rejected(self, al):
        other = Alphabet()
        other.add(Symbol("x", 0, Q(0), "generic"))
        with pytest.raises(ValueError):
            E(al, "x") + Element.sym(other, "x")

    def test_product_is_bilinear(self, al):
        x, y = E(al, "x"), E(al, "y")
        lhs = (x + 2 * y).o(1, x - y)
        rhs = x.o(1, x) - x.o(1, y) + 2 * y.o(1, x) - 2 * y.o(1, y)
        assert lhs == rhs

    def test_product_with_zero(self, al):
        x = E(al, "x")
        assert x.o(3, Element.zero(al)).is_zero()
        assert Element.zero(al).o(3, x).is_zero()

    def test_derivative_is_unit_product(self, al):
        x = E(al, "x")
        assert x.D() == x.o(-2, Element.unit(al))

    def test_derivative_powers_compose(self, al):
        x = E(al, "x")
        assert x.D_pow(3) == x.D().D().D()
        assert x.D_pow(0) == x


class TestTreeShape:
    def test_term_length(self, al):
        x, y = E(al, "x"), E(al, "y")
        (t,) = x.o(-2, y).o(1, x).terms
        assert term_length(t) == 3
        assert [s.name for s in leaves(t)] == ["x", "y", "x"]

    def test_leaf_terms(self, al):
        x, y, p = E(al, "x"), E(al, "y"), E(al, "p")
        got = leaf_terms(2 * x - y + Element.unit(al, Q(1, 2)))
        assert got == [al.symbol("x"), al.symbol("y"), al.unit]
        assert leaf_terms(Element.zero(al)) == []
        for compound in (x.o(0, y), x + y.o(-1, p), x.D()):
            assert leaf_terms(compound) is None

    def test_sort_key_total_order(self, al):
        x, y = E(al, "x"), E(al, "y")
        terms = list((x.o(0, y) + y.o(0, x) + x + y).terms)
        keys = sorted(terms, key=sort_key)
        assert len(set(map(sort_key, terms))) == len(terms)
        assert keys == sorted(keys, key=sort_key)


class TestGrading:
    def test_product_degree_rule(self, al):
        # |x o_n y| = |x| + (-n - 1) + |y|
        x, y = E(al, "x"), E(al, "y")
        assert grade(x.o(0, y)).degree == Q(0)  # 0 + (-1) + 1
        assert grade(x.o(-2, y)).degree == Q(2)  # 0 + 1 + 1
        assert grade(x.D()).degree == Q(1)

    def test_mixed_degree_reports_none(self, al):
        x = E(al, "x")
        assert grade(x + x.D()).degree is None
        assert not is_homogeneous(x + x.D())
        assert is_homogeneous(Element.zero(al))

    def test_lengths_multiset(self, al):
        x, y = E(al, "x"), E(al, "y")
        g = grade(x + x.o(1, y))
        assert g.lengths == (1, 2)

    def test_parity(self, al):
        x, p = E(al, "x"), E(al, "p")
        assert parity(x) == 0
        assert parity(p) == 1
        assert parity(p.o(2, p)) == 0
        assert parity(x + p) is None
        assert parity(Element.zero(al)) == 0


# random monomials over a fixed three-symbol alphabet
_al = Alphabet()
for _nm in ("x", "y", "z"):
    _al.add(Symbol(_nm, 0, Q(0), "generic"))


@st.composite
def monomials(draw, max_len=3):
    length = draw(st.integers(1, max_len))

    def tree(k):
        if k == 1:
            return Element.sym(_al, draw(st.sampled_from(("x", "y", "z"))))
        split = draw(st.integers(1, k - 1))
        return tree(split).o(draw(st.integers(-3, 3)), tree(k - split))

    return tree(length)


@st.composite
def elements(draw):
    out = Element.zero(_al)
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.integers(-3, 3))
        out = out + c * draw(monomials())
    return out


class TestRingProperties:
    @given(elements(), elements(), elements())
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(elements(), elements())
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(elements(), st.integers(-3, 3), elements(), elements())
    def test_left_distributive(self, a, n, b, c):
        assert a.o(n, b + c) == a.o(n, b) + a.o(n, c)

    @given(elements(), st.integers(-3, 3), elements())
    def test_scalars_pull_out(self, a, n, b):
        assert (2 * a).o(n, b) == 2 * a.o(n, b)
        assert a.o(n, Q(1, 3) * b) == Q(1, 3) * a.o(n, b)

    @given(elements())
    def test_negation(self, a):
        assert (a + (-a)).is_zero()


class TestDeepTrees:
    def test_deep_derivative_tower(self, al):
        # a 1500-deep left spine: construction, equality between separately
        # built copies, leaves() and parity() must not recurse per level
        u = E(al, "x")
        deep, again = u.D_pow(1500), u.D_pow(1500)
        assert deep == again
        (t,) = deep.terms
        assert term_length(t) == 1501
        assert parity(deep) == 0

    def test_deep_tower_prints_sorts_and_grades(self, al):
        u = E(al, "x")
        deep = u.D_pow(1500)
        text = to_text(deep)
        assert text.count("o{-2}(") == 1500
        assert repr(deep) == f"<Element {text}>"
        assert [t for t, _ in deep.sorted_terms()] == list(deep.terms)
        g = grade(deep)
        assert g.degree == Q(1500)  # each D adds -(-2) - 1 = 1
        assert g.lengths == (1501,)
        assert g.shape_keys[0].count("o-2") == 1500


def _nested_key(t):
    # the recursive reference the flat sort_key must order identically to
    if isinstance(t, Symbol):
        return (0, t.name)
    return (1, t.index, _nested_key(t.left), _nested_key(t.right))


class TestSortKey:
    @given(monomials(max_len=5), monomials(max_len=5))
    def test_flat_key_orders_like_nested(self, x, y):
        ((s, _),), ((t, _),) = x.terms.items(), y.terms.items()
        assert (sort_key(s) < sort_key(t)) == (_nested_key(s) < _nested_key(t))
        assert (sort_key(s) == sort_key(t)) == (s == t)


# the derived walks against recursive references ------------------------------

# graded symbols, so the degree rule is exercised, plus the unit
_gal = Alphabet()
_gsyms = [
    _gal.add(Symbol("x", 0, Q(0), "generic")),
    _gal.add(Symbol("y", 1, Q(1, 2), "generic")),
    _gal.add(Symbol("z", 0, Q(2), "generic")),
    _gal.unit,
]


@st.composite
def tree_monomials(draw, max_len=6):
    """One monomial from morphisms.random_tree, seeded by hypothesis."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    x = random_tree(_gal, _gsyms, rng, draw(st.integers(1, max_len)), -3, 3)
    ((t, _),) = x.terms.items()
    return t


def _degree_ref(t):
    if isinstance(t, Symbol):
        return t.degree
    return _degree_ref(t.left) + (-t.index - 1) + _degree_ref(t.right)


def _shape_ref(t):
    if isinstance(t, Symbol):
        return "*"
    return f"({_shape_ref(t.left)}o{t.index}{_shape_ref(t.right)})"


def _text_ref(t):
    if isinstance(t, Symbol):
        return t.name
    return f"o{{{t.index}}}({_text_ref(t.left)}, {_text_ref(t.right)})"


class TestDerivedWalks:
    @given(tree_monomials())
    def test_preorder_is_node_left_right(self, t):
        def ref(t):
            if isinstance(t, Symbol):
                return [t]
            return [t] + ref(t.left) + ref(t.right)

        got = list(preorder(t))
        assert len(got) == len(ref(t))
        assert all(a is b for a, b in zip(got, ref(t)))

    @given(tree_monomials())
    def test_term_degree(self, t):
        assert term_degree(t) == _degree_ref(t)

    @given(tree_monomials())
    def test_shape_key(self, t):
        assert shape_key(t) == _shape_ref(t)

    @given(tree_monomials(), st.integers(-3, 3).filter(bool))
    def test_to_text_of_one_term(self, t, c):
        ref = _text_ref(t)
        assert to_text(Element.of_term(_gal, t)) == ref
        assert to_text(Element.of_term(_gal, t, c)) == (ref if c == 1 else f"{c}*{ref}")


# cached hashes and the trusted coefficient form ------------------------------


class TestCachedHash:
    @given(monomials(max_len=4))
    def test_hash_is_the_dataclass_formula(self, m):
        # the formula a frozen dataclass uses; it fixes dict iteration order
        (t,) = m.terms
        stack = [t]
        while stack:
            t = stack.pop()
            if isinstance(t, Symbol):
                assert hash(t) == hash(t._fields())
                assert t._fields() == (t.name, t.parity, t.degree, t.kind)
            else:
                assert hash(t) == hash((t.index, t.left, t.right))
                stack += [t.left, t.right]

    @given(monomials(max_len=4), monomials(max_len=4))
    def test_equality_is_structural(self, a, b):
        def rebuild(t):
            if isinstance(t, Symbol):
                return dataclasses.replace(t)
            return Node(t.index, rebuild(t.left), rebuild(t.right))

        (s,), (t,) = a.terms, b.terms
        copy = rebuild(s)
        assert copy is not s and copy == s and hash(copy) == hash(s)
        assert (s == t) == (sort_key(s) == sort_key(t))


    def test_one_leaf_per_symbol(self, al):
        # a leaf is its Symbol: Element.sym, the unit and the parser all key
        # their term by the alphabet's own object
        s = al.symbol("x")
        assert next(iter(E(al, "x").terms)) is s
        assert next(iter(Element.unit(al).terms)) is al.unit
        (t,) = parse("o{0}(x, 1)", al).terms
        assert t.left is s and t.right is al.unit
        assert next(iter(parse("x", al).terms)) is s

    def test_equal_symbols_give_equal_distinct_leaves(self, al):
        s, y = al.symbol("x"), al.symbol("y")
        twin = dataclasses.replace(s)
        assert twin is not s and twin == s and hash(twin) == hash(s)
        assert Node(0, twin, y) == Node(0, s, y)
        assert hash(Node(0, twin, y)) == hash(Node(0, s, y))

    def test_copies_rebuild_their_leaves(self, al):
        # a copy shares the leaves, a deep copy or pickle rebuilds each
        # Symbol from its fields; every one is an equal, hash-equal tree
        (t,) = E(al, "x").o(0, E(al, "y")).terms
        assert copy.copy(t).left is t.left
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and hash(twin) == hash(t)
            assert twin.left == t.left and hash(twin.left) == hash(t.left)
        for twin in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin.left is not t.left

    def test_symbol_fields_cannot_be_assigned_or_deleted(self, al):
        s = al.symbol("x")
        for name in ("name", "parity", "degree", "kind", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(s, name, 0)
            with pytest.raises(AttributeError):
                delattr(s, name)
        assert s == Symbol("x", 0, Q(0), "generic") and hash(s) == hash(s._fields())

    def test_pickles_load_under_another_hash_seed(self):
        # a pickled node carries no hash: one written under one string-hash
        # seed equals the same tree built where it is loaded, and finds it
        # as a dict key
        build = (
            "from vertexalg.terms import Alphabet, Element, Symbol\n"
            "al = Alphabet()\n"
            "al.add(Symbol('x'))\n"
            "x = Element.sym(al, 'x')\n"
            "(t,) = x.o(0, x).terms\n"
        )
        dump = build + "import pickle, sys\nsys.stdout.buffer.write(pickle.dumps(t))\n"
        load = build + (
            "import pickle, sys\n"
            "u = pickle.loads(sys.stdin.buffer.read())\n"
            "assert u == t and hash(u) == hash(t), 'unequal'\n"
            "assert {t: 1}.get(u) == 1, 'lookup missed'\n"
        )
        src = os.path.dirname(os.path.dirname(vertexalg.__file__))

        def run(code, seed, data=b""):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            return subprocess.run([sys.executable, "-c", code], input=data,
                                  env=env, capture_output=True, check=True).stdout

        run(load, "2", run(dump, "1"))

    def test_colliding_hashes_still_compare_fields(self, al):
        # hash(-1) == hash(-2) in CPython, so o_{-1} and o_{-2} over the same
        # children share a hash, however deep they sit; equality and dict
        # keys must still tell them apart
        x, y = E(al, "x"), E(al, "y")
        (s,) = x.o(-1, y).o(0, x).terms
        (t,) = x.o(-2, y).o(0, x).terms
        assert hash(s) == hash(t)
        assert s != t
        assert len(Element(al, {s: 1, t: 1})) == 2


class TestNode:
    @pytest.fixture
    def xy(self, al):
        return al.symbol("x"), al.symbol("y")

    def test_hash_is_the_tuple_formula(self, xy):
        x, y = xy
        inner = Node(0, x, y)
        for n, left, right in ((0, x, y), (-2, inner, x), (3, inner, inner)):
            assert hash(Node(n, left, right)) == hash((n, left, right))

    def test_fields_cannot_be_assigned_or_deleted(self, xy):
        node = Node(1, *xy)
        for name in ("index", "left", "right", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, 0)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert (node.index, node.left, node.right) == (1, *xy)
        assert hash(node) == hash((1, *xy))

    def test_copies_and_pickles_are_equal(self, xy):
        node = Node(-1, Node(0, *xy), xy[0])
        for twin in (copy.copy(node), copy.deepcopy(node),
                     pickle.loads(pickle.dumps(node))):
            assert twin == node and hash(twin) == hash(node)
            assert isinstance(twin, Node)

    def test_repr_names_the_fields(self, al):
        x, y = al.symbol("x"), al.symbol("p")
        symbol = "Symbol(name='{}', parity={}, degree=Fraction(0, 1), kind='generic')"
        assert repr(Node(3, x, Node(-2, y, x))) == (
            f"Node(index=3, left={symbol.format('x', 0)}, right=Node(index=-2, "
            f"left={symbol.format('p', 1)}, right={symbol.format('x', 0)}))")
        assert repr(Node(index=0, left=x, right=x)) == repr(Node(0, x, x))

    def test_shared_children_are_equal_at_once(self, xy):
        x, y = xy
        inner = Node(0, x, y)
        assert Node(-2, inner, x) == Node(-2, inner, x)
        assert Node(-2, inner, x) != Node(-2, x, inner)

    def test_equal_hash_different_index_is_unequal(self, xy):
        # hash(-1) == hash(-2), so these collide without help
        x, y = xy
        s, t = Node(-1, x, y), Node(-2, x, y)
        assert hash(s) == hash(t) and s != t
        # and a hash forced equal on indices that do not collide
        s, t = Node(0, x, y), Node(1, x, y)
        object.__setattr__(t, "_hash", s._hash)
        assert s != t and t != s

    def test_a_forced_root_collision_walks_the_children(self, xy):
        # roots with one hash and index but different children: the walk
        # must reject a pair of another class, or of another hash
        x, y = xy
        s = Node(0, x, Node(1, x, y))
        for t in (Node(0, x, y), Node(0, y, x)):
            object.__setattr__(t, "_hash", s._hash)
            assert s != t and t != s

    def test_colliding_leaf_hashes_compare_symbols(self, xy):
        # two leaves of different symbols with one hash: the walk must
        # compare the symbols themselves
        x, y = xy
        z = Symbol("z")
        object.__setattr__(z, "_hash", y._hash)
        s, t = Node(0, x, y), Node(0, x, z)
        assert hash(s) == hash(t) and s != t

    def test_a_non_node_is_not_implemented(self, xy):
        x, y = xy
        node = Node(0, x, y)
        assert node.__eq__(x) is NotImplemented
        assert node.__eq__((0, x, y)) is NotImplemented
        assert node != x and node != (0, x, y)

    def test_deep_equal_and_unequal_pairs(self, al):
        # 10^5 levels built twice share only their leaves; the walk is a loop.
        # o_{-1} and o_{-2} collide in hash at every level, so the unequal
        # pair is told apart only at the bottom
        x, y = E(al, "x"), E(al, "y")
        depth = 10**5
        (deep,), (again,) = x.D_pow(depth).terms, x.D_pow(depth).terms
        assert deep is not again and deep == again
        (s,), (t,) = x.o(-1, y).D_pow(depth).terms, x.o(-2, y).D_pow(depth).terms
        assert hash(s) == hash(t) and s != t


_weyl = shipped_model("weyl1")
_scale, _shift = shipped_morphisms(_weyl)
_pool = [s.name for s in _weyl.sample_symbols()]


def _trusted(x: Element) -> bool:
    """The coefficient rule: every coefficient is a nonzero int or Fraction."""
    return all(type(c) in (int, Q) and c != 0 for c in x.terms.values())


def _ints(x: Element) -> bool:
    return all(type(c) is int for c in x.terms.values())


def _fold(al, pairs) -> Element:
    """sum of c * x over (c, x) pairs, through a plain dict and the public
    constructor: the reference every fast path must agree with."""
    acc = {}
    for c, x in pairs:
        for t, v in x.terms.items():
            acc[t] = acc.get(t, 0) + Q(c) * v
    return Element(al, acc)


def _fold_o(x: Element, n: int, y: Element) -> Element:
    al = x.alphabet
    return _fold(
        al,
        [
            (c1 * c2, Element(al, {Node(n, t1, t2): 1}))
            for t1, c1 in x.terms.items()
            for t2, c2 in y.terms.items()
        ],
    )


def _fold_apply(phi, t) -> Element:
    if isinstance(t, Symbol):
        return phi.image_of_symbol(t)
    return _fold_o(_fold_apply(phi, t.left), t.index, _fold_apply(phi, t.right))


@st.composite
def weyl_elements(draw, max_len=3):
    """Combinations over weyl1 with integer coefficients, some cancelling."""
    al = _weyl.alphabet

    def tree(k):
        if k == 1:
            return al.symbol(draw(st.sampled_from(_pool)))
        split = draw(st.integers(1, k - 1))
        return Node(draw(st.integers(-3, 2)), tree(split), tree(k - split))

    pairs = [
        (draw(st.integers(-2, 2)), tree(draw(st.integers(1, max_len))))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return _fold(al, [(c, Element(al, {t: 1})) for c, t in pairs])


@st.composite
def weyl_leaves(draw):
    al = _weyl.alphabet
    names = draw(st.lists(st.sampled_from(_pool), max_size=3))
    return Element(al, {al.symbol(nm): draw(st.integers(-2, 2)) for nm in names})


class TestTrustedResults:
    @given(weyl_elements(), weyl_elements(), st.integers(-2, 2))
    def test_linear_operations(self, a, b, k):
        al = _weyl.alphabet
        cases = [
            (a + b, _fold(al, [(1, a), (1, b)])),
            (a - b, _fold(al, [(1, a), (-1, b)])),
            (a + (-a), Element.zero(al)),
            (-a, _fold(al, [(-1, a)])),
            (k * a, _fold(al, [(k, a)])),
            (a * Q(k, 3), _fold(al, [(Q(k, 3), a)])),
        ]
        for got, want in cases:
            assert _trusted(got)
            assert got == want

    @given(weyl_elements(), weyl_elements(), st.integers(-3, 2), st.integers(0, 4))
    def test_products_and_derivatives(self, a, b, n, k):
        al = _weyl.alphabet
        got = a.o(n, b)
        assert _trusted(got)
        assert got == _fold_o(a, n, b)
        want = a
        for _ in range(k):
            want = _fold_o(want, -2, Element.unit(al))
        got = a.D_pow(k)
        assert _trusted(got)
        assert got == want

    @given(weyl_elements())
    def test_morphism_apply(self, x):
        al = _weyl.alphabet
        for phi in (_scale, _shift):
            got = phi.apply(x)
            assert _trusted(got)
            want = _fold(al, [(c, _fold_apply(phi, t)) for t, c in x.terms.items()])
            assert got == want

    @given(weyl_leaves(), weyl_leaves())
    def test_bracket_elem(self, x, y):
        got = _weyl.bracket_elem(x, y)
        assert _trusted(got)
        want = _fold(
            _weyl.alphabet,
            [
                (c1 * c2, _weyl.bracket(s, t))
                for s, c1 in x.terms.items()
                for t, c2 in y.terms.items()
            ],
        )
        assert got == want


class TestDerivativeTowers:
    @given(weyl_elements(), st.integers(0, 5))
    def test_one_pass_power_is_repeated_derivative(self, x, k):
        want = x
        for _ in range(k):
            want = want.D()
        got = x.D_pow(k)
        assert got == want
        # same terms in the same order, with the same coefficient types
        assert [(t, c, type(c)) for t, c in got.terms.items()] == [
            (t, c, type(c)) for t, c in want.terms.items()
        ]

    @given(weyl_elements())
    def test_derivative_is_built_once(self, x):
        d = x.D()
        assert x.D() is d
        assert d.D() is x.D().D()
        # the memo is invisible to equality, hashing and printing
        fresh = Element(x.alphabet, x.terms)
        assert fresh == x
        assert hash(fresh) == hash(x)
        assert repr(fresh) == repr(x)


class TestIntCoefficients:
    """Int inputs stay int; division stays exact; floats are refused."""

    @given(weyl_elements(), weyl_elements(), st.integers(-3, 3), st.integers(-3, 2),
           st.integers(0, 4))
    def test_int_inputs_give_int_coefficients(self, a, b, k, n, p):
        assert _ints(a) and _ints(b)
        for got in (a + b, a - b, -a, k * a, a * k, a.o(n, b), a.D_pow(p)):
            assert _trusted(got) and _ints(got)

    @given(weyl_elements())
    def test_morphism_apply_keeps_int_images_int(self, x):
        # b -> b + 1 sends every symbol to an integer combination
        assert all(_ints(img) for img in _shift.table.values())
        assert _ints(_shift.apply(x))

    @given(st.integers(-5, 5).filter(bool), st.integers(1, 7))
    def test_integral_fraction_is_stored_as_int(self, n, d):
        al = _weyl.alphabet
        t = al.symbol(_pool[0])
        (c,) = Element(al, {t: Q(n * d, d)}).terms.values()
        assert type(c) is int and c == n
        (c,) = (Element.of_term(al, t) * Q(n * d, d)).terms.values()
        assert type(c) is int and c == n

    @given(weyl_elements())
    def test_division_stays_exact(self, x):
        third = x / 3
        assert _trusted(third)
        assert all(third.coeff(t) == Q(c, 3) for t, c in x.terms.items())
        assert third * 3 == x

    @given(weyl_elements(), st.floats(allow_nan=False))
    def test_floats_are_refused(self, x, f):
        al = _weyl.alphabet
        t = al.symbol(_pool[0])
        with pytest.raises(TypeError):
            Element(al, {t: f})
        with pytest.raises(TypeError):
            x * f
        acc = dict(x.terms)
        with pytest.raises(TypeError):
            Element.of_term(al, t)._add_into(acc, f)
        assert acc == x.terms


# the leaf-pair walk and the one-term product ---------------------------------


def _leaf_pairs(t) -> list:
    """Reference: every product of two leaves in t, as (left, right, index),
    in preorder."""
    return [
        (n.left, n.right, n.index)
        for n in preorder(t)
        if isinstance(n, Node) and isinstance(n.left, Symbol)
        and isinstance(n.right, Symbol)
    ]


class TestAnyLeafPair:
    @given(tree_monomials(), st.integers(1, 6))
    def test_stops_at_the_first_passing_pair_in_preorder(self, t, j):
        # the j-th call passes: the walk must make exactly the reference's
        # first j calls, in order, and then stop
        calls = []

        def test(u, v, n):
            calls.append((u, v, n))
            return len(calls) == j

        pairs = _leaf_pairs(t)
        assert any_leaf_pair(t, test) == (j <= len(pairs))
        assert calls == pairs[:j]

    @given(tree_monomials(), st.integers(-3, 4))
    def test_agrees_with_the_preorder_reference(self, t, k):
        def test(u, v, n):
            return n >= k and u.parity == v.parity

        assert any_leaf_pair(t, test) == any(test(*p) for p in _leaf_pairs(t))

    def test_a_leaf_has_no_pair(self, al):
        def never(u, v, n):
            raise AssertionError("a leaf has no product to test")

        assert not any_leaf_pair(al.symbol("x"), never)


def _general_o(x: Element, n: int, y: Element) -> dict:
    """The bilinear product as one comprehension, every term shape alike."""
    return {
        Node(n, t1, t2): c1 * c2
        for t1, c1 in x.terms.items()
        for t2, c2 in y.terms.items()
    }


_coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Q, st.integers(-3, 3).filter(bool), st.integers(2, 4)),
)


class TestOneTermProduct:
    @given(tree_monomials(), tree_monomials(), _coeffs, _coeffs, st.integers(-3, 3))
    def test_one_term_path_equals_the_general_path(self, t1, t2, c1, c2, n):
        x, y = Element.of_term(_gal, t1, c1), Element.of_term(_gal, t2, c2)
        got = x.o(n, y)
        want = _general_o(x, n, y)
        # same terms in the same order, with the same coefficient types
        assert [(t, c, type(c)) for t, c in got.terms.items()] == [
            (t, c, type(c)) for t, c in want.items()
        ]
        assert got.alphabet is _gal
        assert got.D() == got.o(-2, Element.unit(_gal))

    @given(weyl_elements(), weyl_elements(), st.integers(-3, 2))
    def test_every_shape_equals_the_general_path(self, a, b, n):
        got = a.o(n, b)
        assert [(t, c, type(c)) for t, c in got.terms.items()] == [
            (t, c, type(c)) for t, c in _general_o(a, n, b).items()
        ]

    def test_products_across_alphabets_raise(self, al):
        other = Alphabet()
        other.add(Symbol("x", 0, Q(0), "generic"))
        one, two = E(al, "x"), E(al, "x") + E(al, "y")
        for x in (one, two):
            for y in (Element.sym(other, "x"), Element.zero(other)):
                with pytest.raises(ValueError, match="^elements over different alphabets$"):
                    x.o(0, y)
                with pytest.raises(ValueError, match="^elements over different alphabets$"):
                    y.o(0, x)
