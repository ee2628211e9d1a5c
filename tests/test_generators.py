"""Ideal generator families, truncation, and certified tail bounds."""

import itertools
import random
import re
from fractions import Fraction as Q
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from vertexalg import generators
from vertexalg.models import base
from vertexalg.models.factory import shipped_model
from vertexalg.suites import _rand_element
from vertexalg.generators import (
    FAMILIES,
    FUNCTION_KINDS,
    CertificationError,
    TruncationPolicy,
    _cut_o,
    _qa_sum,
    _term_is_dead,
    build_generator,
    fam_a,
    fam_c,
    fam_d,
    fam_e,
    fam_f,
    fam_i,
    fam_qa,
    fam_qc,
    truncate,
)
from vertexalg.terms import (
    Alphabet,
    Element,
    Node,
    Symbol,
    fold_tree,
    is_homogeneous,
)


@pytest.fixture
def al():
    a = Alphabet()
    for nm in ("x", "y", "z"):
        a.add(Symbol(nm, 0, Q(0), "generic"))
    for nm in ("p", "q"):
        a.add(Symbol(nm, 1, Q(0), "generic"))
    return a


def E(al, name):
    return Element.sym(al, name)


POL = TruncationPolicy(default_locality=3, level=8)
POL6 = TruncationPolicy(default_locality=3, level=6)


def policy_grid(*names):
    """Policies at levels 0 and 8 over the named leaves: default locality
    1 and 3, each pair overridden to locality + 4 and to 8, the first pair
    exempt at locality + 2; and POL6."""
    pairs = list(itertools.combinations(names, 2))
    grid = [POL6]
    for level, loc in itertools.product((0, 8), (1, 3)):
        grid.append(TruncationPolicy(loc, level=level))
        grid += [
            TruncationPolicy(loc, ((a, b, over),), level=level)
            for a, b in pairs
            for over in (loc + 4, 8)
        ]
        exempt = frozenset({pairs[0] + (loc + 2,)})
        grid.append(TruncationPolicy(loc, level=level, exempt=exempt))
    return grid


class TestTruncation:
    def test_negative_locality_is_refused(self):
        with pytest.raises(ValueError, match="default_locality must be >= 0, got -1"):
            TruncationPolicy(-1)
        with pytest.raises(ValueError,
                           match=r"locality override of \(x, y\) must be >= 0, got -2"):
            TruncationPolicy(3, overrides=(("x", "y", -2),))
        assert TruncationPolicy(0, overrides=(("x", "y", 0),)).locality("x", "y") == 0

    # one row per int field; a bool is an int to Python, and refused too
    @pytest.mark.parametrize("fields,message", [
        ({"default_locality": 2.5}, "default_locality must be an int, got 2.5"),
        ({"level": True}, "level must be an int, got True"),
        ({"overrides": (("x", "y", 2.5),)},
         "overrides[0]: locality must be an int, got 2.5"),
        ({"exempt": frozenset({("x", "y", True)})},
         "exempt (x, y): index must be an int, got True"),
    ], ids=("default_locality", "level", "overrides", "exempt"))
    def test_a_field_that_is_not_an_int_is_refused(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TruncationPolicy(**fields)

    def test_dead_leaf_pair_dropped(self, al):
        x, y = E(al, "x"), E(al, "y")
        assert truncate(x.o(3, y), POL).is_zero()
        assert truncate(x.o(7, y), POL).is_zero()

    def test_alive_leaf_pair_kept(self, al):
        x, y = E(al, "x"), E(al, "y")
        assert truncate(x.o(2, y), POL) == x.o(2, y)
        assert truncate(x.o(-5, y), POL) == x.o(-5, y)

    def test_dead_subtree_kills_whole_term(self, al):
        x, y, z = E(al, "x"), E(al, "y"), E(al, "z")
        term = x.o(3, y).o(-2, z)
        assert truncate(term, POL).is_zero()
        assert truncate(z.o(-4, x.o(3, y)), POL).is_zero()

    def test_high_outer_index_on_compound_survives(self, al):
        # deadness is a leaf-pair notion; node-leaf products stay
        x, y, z = E(al, "x"), E(al, "y"), E(al, "z")
        term = x.o(2, y).o(9, z)
        assert truncate(term, POL) == term

    def test_override_changes_threshold(self, al):
        pol = TruncationPolicy(3, overrides=(("x", "y", 5),))
        x, y = E(al, "x"), E(al, "y")
        assert truncate(x.o(4, y), pol) == x.o(4, y)
        assert truncate(x.o(5, y), pol).is_zero()
        # pair key is unordered
        assert truncate(y.o(4, x), pol) == y.o(4, x)

    def test_exempt_index_punches_through(self, al):
        pol = TruncationPolicy(1, exempt=frozenset({("x", "y", 4)}))
        x, y = E(al, "x"), E(al, "y")
        assert truncate(x.o(4, y), pol) == x.o(4, y)
        assert truncate(x.o(5, y), pol).is_zero()
        assert truncate(x.o(1, y), pol).is_zero()

    def test_linearity(self, al):
        x, y, z = E(al, "x"), E(al, "y"), E(al, "z")
        mixed = 2 * x.o(3, y) + 5 * x.o(1, z)
        assert truncate(mixed, POL) == 5 * x.o(1, z)


class TestUnitFamily:
    def test_at_minus_one_subtracts_the_element(self, al):
        x = E(al, "x")
        one = Element.unit(al)
        assert fam_i(x, -1) == one.o(-1, x) - x

    def test_elsewhere_is_bare_product(self, al):
        x = E(al, "x")
        one = Element.unit(al)
        assert fam_i(x, 2) == one.o(2, x)
        assert fam_i(x, -3) == one.o(-3, x)


class TestDerivationFamilies:
    def test_d_shape(self, al):
        x, y = E(al, "x"), E(al, "y")
        assert fam_d(x, y, 1) == x.o(1, y).D() - x.D().o(1, y) - x.o(1, y.D())

    def test_e_shape(self, al):
        x, y = E(al, "x"), E(al, "y")
        assert fam_e(x, y, 0) == x.D().o(0, y)
        assert fam_e(x, y, 2) == x.D().o(2, y) + 2 * x.o(1, y)

    def test_f_is_d_plus_e(self, al):
        x, y = E(al, "x"), E(al, "y")
        assert fam_f(x, y, -2) == fam_d(x, y, -2) + fam_e(x, y, -2)


_WEYL1 = shipped_model("weyl1")


def _weyl1_element(seed: int) -> Element:
    # the suites' random element, with a second draw added so that most
    # elements have several terms
    rng = random.Random(seed)
    return _rand_element(_WEYL1, rng, 3, 4) + _rand_element(_WEYL1, rng, 3, 4)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
def test_closed_form_f_is_d_plus_e(sx, sy, n):
    # values only: the closed form never builds the cancelling
    # (Dx) o_n y summands, so its term order may differ from d + e's
    x, y = _weyl1_element(sx), _weyl1_element(sy)
    assert fam_f(x, y, n) == fam_d(x, y, n) + fam_e(x, y, n)


class TestDeadPairFamily:
    def test_accepts_dead_pair(self, al):
        x, y = E(al, "x"), E(al, "y")
        assert fam_c(x, y, 4, POL) == x.o(4, y)

    def test_rejects_live_pair(self, al):
        x, y = E(al, "x"), E(al, "y")
        with pytest.raises(ValueError, match="dead pair"):
            fam_c(x, y, 2, POL)

    def test_rejects_compound_arguments(self, al):
        x, y = E(al, "x"), E(al, "y")
        with pytest.raises(ValueError, match="leaf"):
            fam_c(x.o(0, y), y, 9, POL)


class TestCommutatorFamily:
    def test_expansion_at_minus_one_bound_one(self, al):
        # hand expansion: head + sum_{k<=1} (-1)^{n+k}/k! D^k(y o_{n+k} x)
        # at n = -1: x o_{-1} y - y o_{-1} x + D(y o_0 x)
        x, y = E(al, "x"), E(al, "y")
        got = fam_qc(x, y, -1, None, K=1)
        want = x.o(-1, y) - y.o(-1, x) + y.o(0, x).D()
        assert got == want

    def test_odd_odd_sign_flip(self, al):
        # odd parities multiply the sum through by -1
        p, q = E(al, "p"), E(al, "q")
        got = fam_qc(p, q, -1, None, K=1)
        want = p.o(-1, q) + q.o(-1, p) - q.o(0, p).D()
        assert got == want

    def test_certified_bound_from_policy(self, al):
        x, y = E(al, "x"), E(al, "y")
        gen = fam_qc(x, y, -1, POL)
        # all tail terms y o_{-1+k} x with -1+k >= 3 are dead, so the
        # certified build truncates to itself
        assert truncate(gen, POL) == truncate(
            fam_qc(x, y, -1, None, K=20), POL
        )

    def test_underestimated_bound_rejected(self, al):
        x, y = E(al, "x"), E(al, "y")
        with pytest.raises(CertificationError, match="K"):
            fam_qc(x, y, -2, POL, K=2)

    def test_compound_argument_needs_explicit_bound(self, al):
        x, y = E(al, "x"), E(al, "y")
        with pytest.raises(CertificationError):
            fam_qc(x.o(-1, y), y, 0, POL)
        # so is an explicit bound under it; without a policy the bound is
        # taken as given
        with pytest.raises(CertificationError, match="compound"):
            fam_qc(x.o(-1, y), y, 0, POL, K=3)
        got = fam_qc(x.o(-1, y), y, 0, None, K=3)
        assert not got.is_zero()


class TestAssociatorFamily:
    def test_head_term_present(self, al):
        x, y, z = E(al, "x"), E(al, "y"), E(al, "z")
        gen = fam_qa(x, y, z, 2, 1, None, K=6)
        (head,) = x.o(2, y).o(1, z).terms
        assert gen.terms.get(head) == Q(1)

    def test_nonnegative_m_closes_at_k_equals_m(self, al):
        # for m >= 0 the binomial sum is finite; K beyond m adds nothing
        x, y, z = E(al, "x"), E(al, "y"), E(al, "z")
        a = fam_qa(x, y, z, 2, -1, None, K=2)
        b = fam_qa(x, y, z, 2, -1, None, K=9)
        assert a == b

    def test_certification_rejects_short_tail(self, al):
        x, y, z = E(al, "x"), E(al, "y"), E(al, "z")
        with pytest.raises(CertificationError):
            fam_qa(x, y, z, -1, -1, POL, K=1)

    @pytest.mark.parametrize("cut", (None, POL), ids=("uncut", "cut"))
    @pytest.mark.parametrize("m", range(4))
    def test_a_finite_sum_is_the_same_past_k_equals_m(self, al, m, cut):
        # the loop stops at k = m, so a larger K builds nothing more, and
        # the sum comes out term for term in the same order
        x, y, z = E(al, "x"), E(al, "y"), E(al, "z")
        for n in (-2, 0, 1):
            short = _qa_sum(x, y, z, m, n, 1, m, cut)
            long = _qa_sum(x, y, z, m, n, 1, m + 8, cut)
            assert list(short.terms.items()) == list(long.terms.items())
            if cut is None:
                # the summand at k = m itself is built
                (last,) = y.o(n, x.o(m, z)).terms
                assert short.terms[last] == 1


class TestHomogeneity:
    # every family output must be degree-homogeneous
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(("i", "d", "e", "qc", "qa")),
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.sampled_from(("x", "y", "p")),
        st.sampled_from(("y", "z", "q")),
    )
    def test_families_are_homogeneous(self, fam, m, n, nx, ny):
        al = Alphabet()
        for nm in ("x", "y", "z"):
            al.add(Symbol(nm, 0, Q(0), "generic"))
        for nm in ("p", "q"):
            al.add(Symbol(nm, 1, Q(0), "generic"))
        x, y, z = E(al, nx), E(al, ny), E(al, "z")
        if fam == "i":
            gen = fam_i(x, n)
        elif fam == "d":
            gen = fam_d(x, y, n)
        elif fam == "e":
            gen = fam_e(x, y, n)
        elif fam == "qc":
            gen = fam_qc(x, y, n, None, K=6)
        else:
            gen = fam_qa(x, y, z, m, n, None, K=6)
        assert is_homogeneous(gen)


class TestDispatch:
    def test_indexed_families(self, al):
        x, y = E(al, "x"), E(al, "y")
        assert build_generator("d", (x, y), (1,), POL) == fam_d(x, y, 1)

    def test_qa_indices(self, al):
        x, y, z = E(al, "x"), E(al, "y"), E(al, "z")
        built = build_generator("qa", (x, y, z), (2, -1), POL, K=6)
        assert built == fam_qa(x, y, z, 2, -1, POL, K=6)

    def test_unknown_family(self, al):
        with pytest.raises(ValueError, match="unknown family"):
            build_generator("zz", (E(al, "x"),), (0,), POL)

    def test_model_families_need_model(self, al):
        x, y = E(al, "x"), E(al, "y")
        with pytest.raises(ValueError, match="model"):
            build_generator("s", (x, y), (), POL)

    def test_k_family_needs_context(self, al):
        with pytest.raises(ValueError, match="context"):
            build_generator("k", (E(al, "x"),), (), POL)

    def test_c_family_needs_policy(self, al):
        # deadness is read off the policy, so a missing one is refused
        # before any pair is looked at
        x, y = E(al, "x"), E(al, "y")
        with pytest.raises(ValueError, match="c-family needs a truncation policy"):
            build_generator("c", (x, y), (4,), None)

    def test_wrong_arity_is_refused(self, al):
        with pytest.raises(ValueError, match="takes 2 args"):
            build_generator("d", (E(al, "x"),), (1,), POL)

    def test_function_slots_share_the_models_kinds(self):
        # one tuple of function kinds, read by the tables and the families
        assert base.FUNCTION_KINDS is FUNCTION_KINDS
        slots = {nm: [(pos, slot) for pos, slot, kinds in fam.kinds]
                 for nm, fam in FAMILIES.items() if fam.kinds}
        assert slots == {"a": [(0, "a")], "am": [(0, "a"), (1, "b")]}
        for fam in FAMILIES.values():
            assert all(kinds is FUNCTION_KINDS for _, _, kinds in fam.kinds)

    @pytest.mark.parametrize("family,names,error", (
        ("a", ("del", "b"), "a-family slot a takes kind algebra or unit, "
         "not del of kind lie"),
        ("am", ("del", "b", "b"), "am-family slot a takes kind algebra or "
         "unit, not del of kind lie"),
        ("am", ("b", "bdel", "b"), "am-family slot b takes kind algebra or "
         "unit, not bdel of kind lie"),
    ))
    def test_function_slots_refuse_other_kinds_by_name(self, family, names,
                                                       error):
        weyl = shipped_model("weyl1")
        args = tuple(Element.sym(weyl.alphabet, nm) for nm in names)
        with pytest.raises(ValueError, match=f"^{error}$"):
            build_generator(family, args, (), POL, model=weyl)

    def test_every_term_of_a_function_slot_is_checked(self):
        weyl = shipped_model("weyl1")
        b, dl = (Element.sym(weyl.alphabet, nm) for nm in ("b", "del"))
        with pytest.raises(ValueError, match="slot a takes .* not del"):
            build_generator("a", (b + 2 * dl, b), (), POL, model=weyl)
        # other slots take any kind, and a compound argument is left to
        # the model, which refuses it by its own rule
        assert build_generator("a", (b, dl), (), POL, model=weyl) == fam_a(
            b, dl, weyl)
        with pytest.raises(ValueError, match="leaf combinations"):
            build_generator("a", (b.o(-1, dl), b), (), POL, model=weyl)


def test_truncate_walks_deep_towers_without_recursion(al):
    # a D tower 1500 levels deep over a live and over a dead leaf pair
    pol = TruncationPolicy(level=8)
    live = E(al, "x").D_pow(1500)
    assert truncate(live, pol) == live
    dead = E(al, "x").o(1, E(al, "y")).D_pow(1500)
    assert truncate(dead, pol).is_zero()
    assert truncate(dead + live, pol) == live


def _dead_by_fold(t, policy) -> bool:
    """Reference: fold the whole tree, a node is dead if a subtree is or
    it is itself a truncated leaf-pair product."""

    def node(n, left_dead, right_dead):
        u, v = n.left, n.right
        pair = isinstance(u, Symbol) and isinstance(v, Symbol)
        return (
            left_dead
            or right_dead
            or (pair and policy.is_dead(u, v, n.index))
        )

    return fold_tree(t, lambda leaf: False, node)


_SEARCH_LEAVES = [Symbol(nm, 0, Q(0), "generic") for nm in ("x", "y", "z")]


@st.composite
def _trees(draw, max_leaves=6):
    def tree(k):
        if k == 1:
            return draw(st.sampled_from(_SEARCH_LEAVES))
        split = draw(st.integers(1, k - 1))
        return Node(draw(st.integers(-3, 4)), tree(split), tree(k - split))

    return tree(draw(st.integers(1, max_leaves)))


_names = st.sampled_from(("x", "y", "z"))
_policies = st.builds(
    TruncationPolicy,
    default_locality=st.integers(0, 4),
    overrides=st.lists(st.tuples(_names, _names, st.integers(0, 4)), max_size=2).map(
        tuple
    ),
    exempt=st.frozensets(st.tuples(_names, _names, st.integers(0, 4)), max_size=2),
)


@given(_trees(), _policies)
@settings(max_examples=200, deadline=None)
def test_term_is_dead_matches_the_reference_fold(t, policy):
    assert _term_is_dead(t, policy) == _dead_by_fold(t, policy)


def _dead_by_fields(policy, u, v, n) -> bool:
    # read from the frozen fields alone, not through the policy's tables:
    # the last override of the unordered pair wins
    u, v = getattr(u, "name", u), getattr(v, "name", v)
    pair = {u, v}
    loc = policy.default_locality
    for a, b, N in policy.overrides:
        if {a, b} == pair:
            loc = N
    exempt = any({a, b} == pair and m == n for a, b, m in policy.exempt)
    return n >= loc and not exempt


@given(_policies, st.lists(st.tuples(st.sampled_from(_SEARCH_LEAVES),
                                     st.sampled_from(_SEARCH_LEAVES),
                                     st.integers(-1, 5)), max_size=12))
@settings(max_examples=200, deadline=None)
def test_is_dead_reads_its_pair_table_like_the_fields(policy, cases):
    # each case asked by Symbol and by name, with the table cold and warm
    for _ in range(2):
        for u, v, n in cases:
            want = _dead_by_fields(policy, u, v, n)
            assert _dead_by_fields(policy, u.name, v.name, n) == want
            assert policy.is_dead(u, v, n) == want
            assert policy.is_dead(u.name, v.name, n) == want


# Certified truncation at its tight bound.  With level 0 the certificate
# alone sets K, so the tests below see the bound the certificate derives:
# every summand the builder drops past it must be truncation-dead, and
# past K = 0 the last summand it keeps must be alive.
_TIGHT_POLICIES = (
    TruncationPolicy(default_locality=3, level=0),
    TruncationPolicy(default_locality=1, overrides=(("x", "z", 4), ("y", "z", 2)), level=0),
    TruncationPolicy(default_locality=2, exempt=frozenset({("x", "y", 3)}), level=0),
)

# (family, leaf names, indices): qc, and qa with its infinite tail (m < 0)
_TIGHT_CASES = [
    ("qc", names, (n,))
    for names in (("x", "y"), ("y", "x"), ("x", "z"), ("p", "q"))
    for n in range(-3, 3)
] + [
    ("qa", names, (m, n))
    for names in (("x", "y", "z"), ("y", "x", "z"), ("p", "q", "z"))
    for m in (-1, -2, -3)
    for n in range(-2, 2)
]


def _tight_build(al, fam, names, idx, policy, K):
    builder = fam_qc if fam == "qc" else fam_qa
    args = [E(al, nm) for nm in names]
    return builder(*args, *idx, policy, K=K)


def _smallest_certified_bound(build, policy):
    for K in range(20):
        try:
            build(policy, K)
        except CertificationError:
            continue
        return K
    raise AssertionError("no bound below 20 certifies")


def _tight_bound_faults(al):
    """Every way the builders' certified bounds misstate the tail at
    level 0, as (fault, case, K) triples."""
    faults = []
    for pol in _TIGHT_POLICIES:
        for case in _TIGHT_CASES:
            build = partial(_tight_build, al, *case)
            K = _smallest_certified_bound(build, pol)
            where = (case, pol, K)
            if build(pol, None) != build(None, K):
                faults.append(("the default build is not cut at K", where))

            def summand(k):
                # the k-th tail summand: the build at bound k minus at k - 1
                head = build(None, k)
                return head - build(None, k - 1) if k else head

            for k in range(K + 1, K + 5):
                if not truncate(summand(k), pol).is_zero():
                    faults.append((f"dropped summand k={k} is alive", where))
            if K > 0 and truncate(summand(K), pol).is_zero():
                faults.append(("the last kept summand is dead", where))
    return faults


def test_certified_bounds_are_tight(al):
    assert _tight_bound_faults(al) == []


def _bound_one_short(monkeypatch):
    honest = generators._tail_bound_for_pairs
    monkeypatch.setattr(
        generators, "_tail_bound_for_pairs", lambda *a: honest(*a) - 1
    )


def _dead_one_early(monkeypatch):
    honest = TruncationPolicy.is_dead
    monkeypatch.setattr(
        TruncationPolicy, "is_dead", lambda self, u, v, n: honest(self, u, v, n + 1)
    )


@pytest.mark.parametrize("mutant", (_bound_one_short, _dead_one_early))
def test_certificate_mutants_are_caught(al, monkeypatch, mutant):
    mutant(monkeypatch)
    assert _tight_bound_faults(al)


# Products built under the cut.  Leaf combinations of one to three terms
# over even and odd leaves and the unit, with int and Fraction
# coefficients, and compound operands built from them.
_CUT_AL = Alphabet()
for _nm, _parity in (("x", 0), ("y", 0), ("z", 0), ("p", 1), ("q", 1)):
    _CUT_AL.add(Symbol(_nm, _parity, Q(0), "generic"))
_CUT_GRID = policy_grid("x", "p", "1")

_coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Q, st.integers(-3, 3).filter(bool), st.integers(2, 4)),
)


@st.composite
def _leaf_combinations(draw):
    names = draw(st.lists(st.sampled_from(("x", "y", "z", "p", "q", "1")),
                          min_size=1, max_size=3, unique=True))
    return Element(_CUT_AL, {_CUT_AL.symbol(nm): draw(_coeffs) for nm in names})


@st.composite
def _cut_operands(draw):
    """A leaf combination, its derivative, a product of two, or such a
    product plus a leaf combination."""
    u = draw(_leaf_combinations())
    shape = draw(st.sampled_from(("leaves", "D", "o", "o+leaves")))
    if shape == "leaves":
        return u
    if shape == "D":
        return u.D()
    w = u.o(draw(st.integers(-3, 4)), draw(_leaf_combinations()))
    return w if shape == "o" else w + draw(_leaf_combinations())


def _listed(x: Element) -> list:
    return list(x.terms.items())


def _cut_build_faults(x, y, n) -> list:
    """Every policy of the grid under which a product or family built under
    the cut differs from the truncation of the one built uncut, term order
    included."""
    faults = []
    for pol in _CUT_GRID:
        builds = {
            "o": (_cut_o(x, n, y, pol), x.o(n, y)),
            "i": (fam_i(x, n, pol), fam_i(x, n)),
            "e": (fam_e(x, y, n, pol), fam_e(x, y, n)),
            "f": (fam_f(x, y, n, pol), fam_f(x, y, n)),
        }
        faults += [(what, pol) for what, (cut, uncut) in builds.items()
                   if _listed(cut) != _listed(truncate(uncut, pol))]
    return faults


@pytest.mark.parametrize("mutant", (None, _dead_one_early),
                         ids=("honest", "dead-one-early"))
@given(_cut_operands(), _cut_operands(), st.integers(-4, 8))
@settings(max_examples=60, deadline=None)
def test_builds_under_the_cut_are_the_truncated_builds(mutant, x, y, n):
    # a rule patched onto the class is seen, so the equality holds under
    # any deadness rule
    with pytest.MonkeyPatch.context() as mp:
        if mutant is not None:
            mutant(mp)
        assert _cut_build_faults(x, y, n) == []
    assert _cut_o(x, n, y, None) == x.o(n, y)


def test_a_dead_leaf_pair_is_never_built(al, monkeypatch):
    def no_node(*args):
        raise AssertionError("a Node was built")

    monkeypatch.setattr(generators, "Node", no_node)
    x, y = E(al, "x"), E(al, "y")
    assert _cut_o(x, 3, y, POL).is_zero()
    assert _cut_o(2 * x, 5, y - E(al, "z"), POL).is_zero()
    with pytest.raises(AssertionError, match="a Node was built"):
        _cut_o(x, 2, y, POL)
