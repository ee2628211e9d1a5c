"""Bridge identities and the derived-locality machinery."""

import itertools
from fractions import Fraction as Q

import pytest

from vertexalg import bridges
from vertexalg.bridges import (
    BRIDGE_IDS,
    BRIDGES,
    DongTable,
    borcherds_bridge,
    dong_matrix,
    dong_rank,
    dong_row,
    dong_tail_certificate,
)
from vertexalg.generators import (
    CertificationError,
    TruncationPolicy,
    _certified_bound,
    fam_qa,
    fam_qc,
    truncate,
)
from vertexalg.suites import run_suite
from vertexalg.terms import Alphabet, Element, Node, Symbol

from test_generators import _dead_one_early


@pytest.fixture(scope="module")
def al():
    a = Alphabet()
    for nm in ("u", "v", "w"):
        a.add(Symbol(nm, 0, Q(0), "generic"))
    for nm in ("p", "q"):
        a.add(Symbol(nm, 1, Q(0), "generic"))
    return a


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


def S(al, name):
    return Element.sym(al, name)


def picked_bound(identity, args, policy):
    """The series bound borcherds_bridge picks when given no K."""
    tails = BRIDGES[identity][2]
    return _certified_bound(identity, None, policy, tails(**args))


def assert_bridge(identity, args, policy):
    lhs, rhs = borcherds_bridge(identity, args, policy)
    diff = lhs - rhs
    assert diff.is_zero(), (identity, args, policy, str(diff))


class TestClosedFormBridges:
    # e-bridge and d-induction close without truncation
    def test_e_bridge_exact(self, al):
        u, v = S(al, "u"), S(al, "v")
        for n in range(-3, 4):
            lhs, rhs = borcherds_bridge("e-bridge", {"x": u, "y": v, "n": n}, None)
            assert lhs == rhs
            for pol in policy_grid("u", "v"):
                assert_bridge("e-bridge", {"x": u, "y": v, "n": n}, pol)

    def test_d_induction_exact(self, al):
        u, v = S(al, "u"), S(al, "v")
        for n in range(-3, 4):
            lhs, rhs = borcherds_bridge(
                "d-induction", {"x": u, "y": v, "n": n}, None
            )
            assert lhs == rhs
            for pol in policy_grid("u", "v"):
                assert_bridge("d-induction", {"x": u, "y": v, "n": n}, pol)


class TestInductionGrid:
    # every identity over a small exhaustive index window, both parities,
    # at the bound borcherds_bridge picks under every policy of the grid
    PAIRS = (("u", "v"), ("p", "q"), ("u", "p"))

    @pytest.mark.parametrize("nx,ny", PAIRS)
    def test_qc_induction(self, al, nx, ny):
        x, y = S(al, nx), S(al, ny)
        for pol in policy_grid(nx, ny):
            for n in range(-4, 5):
                args = {"x": x, "y": y, "n": n}
                assert_bridge("qc-induction", args, pol)
                # tight at level 0: under the policy one summand fewer is
                # refused, and built unchecked it leaves a live residue
                K = picked_bound("qc-induction", args, pol)
                if pol.level == 0 and K > 0:
                    with pytest.raises(CertificationError):
                        borcherds_bridge("qc-induction", args, pol, K=K - 1)
                    lhs, rhs = borcherds_bridge("qc-induction", args, None, K=K - 1)
                    assert truncate(lhs, pol) != truncate(rhs, pol), (args, pol, K)

    @pytest.mark.parametrize("nx,ny", PAIRS)
    def test_qc_symmetry(self, al, nx, ny):
        x, y = S(al, nx), S(al, ny)
        for pol in policy_grid(nx, ny):
            for n in range(-3, 4):
                assert_bridge("qc-symmetry", {"x": x, "y": y, "n": n}, pol)

    @pytest.mark.parametrize("nx,ny", PAIRS)
    def test_qa_m_induction(self, al, nx, ny):
        x, y, z = S(al, nx), S(al, ny), S(al, "w")
        for pol in policy_grid(nx, ny, "w"):
            for m, n in itertools.product(range(-2, 3), repeat=2):
                assert_bridge(
                    "qa-m-induction", {"x": x, "y": y, "z": z, "m": m, "n": n}, pol
                )

    @pytest.mark.parametrize("nx,ny", PAIRS)
    def test_qa_n_induction(self, al, nx, ny):
        x, y, z = S(al, nx), S(al, ny), S(al, "w")
        for pol in policy_grid(nx, ny, "w"):
            for m, n in itertools.product(range(-2, 3), repeat=2):
                assert_bridge(
                    "qa-n-induction", {"x": x, "y": y, "z": z, "m": m, "n": n}, pol
                )

    def test_i_induction_default_reading(self, al):
        for pol in policy_grid("u", "v"):
            for n in range(-3, 4):
                assert_bridge("i-induction", {"x": S(al, "u"), "n": n}, pol)

    def test_i_induction_reading_one_fails_syntactically(self, al):
        # the alternative reading leaves a nonzero residue at some index
        results = []
        for n in range(-3, 4):
            lhs, rhs = borcherds_bridge(
                "i-induction", {"x": S(al, "u"), "n": n, "reading": 1}, POL
            )
            results.append((lhs - rhs).is_zero())
        assert not all(results)


# fam_f in closed form with one slip each, patched where the bridges call it
F_MUTANTS = {
    "last-coefficient-n+1": lambda x, y, n: (
        x.o(n, y).D() - x.o(n, y.D()) + (n + 1) * x.o(n - 1, y)),
    "y-derivative-dropped": lambda x, y, n: (
        x.o(n, y).D() + n * x.o(n - 1, y)),
}


@pytest.mark.parametrize("mutant", F_MUTANTS.values(), ids=F_MUTANTS)
def test_f_mutants_fail_the_inductions_through_f(monkeypatch, mutant):
    monkeypatch.setattr(bridges, "fam_f", mutant)
    report = run_suite("borcherds", samples=5, seed=0)
    status = {c["id"]: c["status"] for c in report["checks"]}
    for ident in ("qc-induction", "qa-n-induction", "i-induction"):
        assert status[ident] == "fail", ident


class TestCommutatorBridge:
    @pytest.mark.parametrize("nx,ny", (("u", "v"), ("p", "q")))
    def test_grid(self, al, nx, ny):
        x, y, z = S(al, nx), S(al, ny), S(al, "w")
        for pol in policy_grid(nx, ny, "w"):
            for m, n in itertools.product(range(-1, 3), repeat=2):
                assert_bridge(
                    "commutator", {"x": x, "y": y, "z": z, "m": m, "n": n}, pol
                )

    def test_below_range_rejected(self, al):
        x, y, z = S(al, "u"), S(al, "v"), S(al, "w")
        with pytest.raises(ValueError, match="m >= -1"):
            borcherds_bridge(
                "commutator", {"x": x, "y": y, "z": z, "m": -2, "n": 0}, POL
            )


def _cut_cases(al):
    """(identity, args, leaf names) for every identity over a small index
    window, with even and odd (x, y)."""
    cases = [("i-induction", {"x": S(al, "u"), "n": n}, ("u", "v"))
             for n in range(-3, 3)]
    for nx, ny in (("u", "v"), ("p", "q")):
        x, y, z = S(al, nx), S(al, ny), S(al, "w")
        cases += [
            (ident, {"x": x, "y": y, "n": n}, (nx, ny))
            for ident in ("e-bridge", "d-induction", "qc-induction", "qc-symmetry")
            for n in range(-3, 3)
        ]
        cases += [
            (ident, {"x": x, "y": y, "z": z, "m": m, "n": n}, (nx, ny, "w"))
            for ident in ("qa-m-induction", "qa-n-induction", "commutator")
            for m, n in itertools.product((-1, 0, 1), repeat=2)
        ]
    assert {ident for ident, _, _ in cases} == set(BRIDGE_IDS)
    return cases


def _cut_faults(al):
    """Every case and policy of the grid where the sides borcherds_bridge
    builds, cutting each tail summand's base under the policy, differ from
    the truncation of the uncut sides at the same K, term order included."""
    faults = []
    for ident, args, names in _cut_cases(al):
        for pol in policy_grid(*names):
            K = picked_bound(ident, args, pol)
            got = borcherds_bridge(ident, args, pol)
            uncut = borcherds_bridge(ident, args, None, K=K)
            want = tuple(truncate(side, pol) for side in uncut)
            if [list(side.terms.items()) for side in got] != [
                    list(side.terms.items()) for side in want]:
                faults.append((ident, args, pol, K))
    return faults


class TestCutAsBuilt:
    # a term built over a dead base term is dead, so cutting the bases
    # early leaves the truncated sides as they are, under any deadness rule
    def test_cut_sides_equal_the_truncated_uncut_sides(self, al):
        assert _cut_faults(al) == []

    def test_equal_under_a_deadness_mutant(self, al, monkeypatch):
        _dead_one_early(monkeypatch)
        assert _cut_faults(al) == []

    def test_truncate_without_a_policy_is_the_identity(self, al):
        x = S(al, "u").o(5, S(al, "v")) + S(al, "w")
        assert truncate(x, None) is x

    def test_the_families_keep_their_dead_tail_summands(self, al):
        # only the bridges cut: generator instances are the full sums at
        # the certified bound, dead summands included
        u, v, w = S(al, "u"), S(al, "v"), S(al, "w")
        (dead,) = v.o(3, u).D_pow(4).terms
        qc = fam_qc(u, v, -1, POL)
        assert qc.terms[dead] == Q(-1, 24)
        assert truncate(qc, POL) != qc
        (dead,) = u.o(-5, v.o(3, w)).terms
        qa = fam_qa(u, v, w, -1, -1, POL)
        assert qa.terms[dead] == -1
        assert truncate(qa, POL) != qa


class TestLevelIndependence:
    # regression: the series bound must scale with locality, not just the
    # policy level, or boundary terms survive at low levels
    @pytest.mark.parametrize("identity", ("qc-induction", "qa-n-induction"))
    def test_holds_at_level_six(self, al, identity):
        x, y, z = S(al, "u"), S(al, "v"), S(al, "w")
        for n in range(-4, 5):
            if identity == "qc-induction":
                assert_bridge(identity, {"x": x, "y": y, "n": n}, POL6)
            else:
                assert_bridge(
                    identity, {"x": x, "y": y, "z": z, "m": 2, "n": n}, POL6
                )


class TestArgumentHandling:
    def test_tail_bound_needs_a_policy_or_K(self, al):
        # closed forms read the level as 0 without a policy; a tail has
        # no bound to certify without one, nor over compound arguments
        u, v = S(al, "u"), S(al, "v")
        with pytest.raises(CertificationError, match="no policy"):
            borcherds_bridge("qc-induction", {"x": u, "y": v, "n": 0}, None)
        with pytest.raises(CertificationError, match="compound"):
            borcherds_bridge("qc-induction", {"x": u.o(-1, v), "y": v, "n": 0}, POL)
        lhs, rhs = borcherds_bridge(
            "qc-induction", {"x": u.o(-1, v), "y": v, "n": 1}, None, K=3
        )
        assert not lhs.is_zero()

    def test_explicit_bound_under_a_policy_is_checked(self, al):
        # the one K rule: under a policy a given K must reach the certified
        # bound; only policy=None takes it unchecked
        u, v = S(al, "u"), S(al, "v")
        args = {"x": u, "y": v, "n": 0}
        K = picked_bound("qc-induction", args, POL)
        with pytest.raises(CertificationError, match="K=0"):
            borcherds_bridge("qc-induction", args, POL, K=0)
        assert_bridge("qc-induction", args, POL)
        lhs, rhs = borcherds_bridge("qc-induction", args, POL, K=K + 2)
        assert lhs == rhs
        lhs, rhs = borcherds_bridge("qc-induction", args, None, K=0)
        assert truncate(lhs, POL) != truncate(rhs, POL)
        with pytest.raises(CertificationError, match="only policy=None"):
            borcherds_bridge("qc-induction", {**args, "x": u.o(-1, v)}, POL, K=5)

    def test_unknown_identity(self, al):
        with pytest.raises(ValueError, match="unknown bridge identity"):
            borcherds_bridge("zz", {}, POL)

    def test_missing_args(self, al):
        with pytest.raises(ValueError, match="missing args"):
            borcherds_bridge("qc-induction", {"x": S(al, "u")}, POL)

    def test_extra_args(self, al):
        with pytest.raises(ValueError, match="unknown args"):
            borcherds_bridge(
                "e-bridge", {"x": S(al, "u"), "y": S(al, "v"), "n": 0, "w": 1}, POL
            )

    def test_inventory(self):
        assert set(BRIDGE_IDS) == {
            "e-bridge",
            "d-induction",
            "i-induction",
            "qc-induction",
            "qa-m-induction",
            "qa-n-induction",
            "qc-symmetry",
            "commutator",
        }


class TestDongMatrix:
    def test_frozen_two_by_four(self):
        # binom(4-j, k) for j <= 2, k < 2
        assert dong_matrix(2, 4) == [
            [Q(1), Q(4)],
            [Q(1), Q(3)],
            [Q(1), Q(2)],
        ]

    def test_rank_grid(self):
        # M+1 rows of a degree-(M-1) Vandermonde-like system: full rank M
        for M in (1, 2, 3):
            for m in range(3, 9):
                assert dong_rank(M, m) == M

    def test_rows_sum_against_commutator(self, al):
        # each row is a commutator decomposition: past the locality bound
        # the truncated remainder of the decomposition is minus the row
        from vertexalg.terms import binom

        x, y, z = S(al, "u"), S(al, "v"), S(al, "w")
        M, m = 3, 7
        for j in range(M + 1):
            mj, nj = m - j, m - M + j
            lhs = x.o(mj, y.o(nj, z)) - y.o(nj, x.o(mj, z))
            for k in range(mj + 1):
                lhs = lhs - binom(mj, k) * x.o(k, y).o(2 * m - M - k, z)
            row = dong_row(x, y, z, M, m, j)
            assert truncate(lhs, POL) == truncate(-1 * row, POL), j


class TestDongTable:
    def test_leaf_pair_reads_policy(self, al):
        table = DongTable(POL)
        u, v = al.symbol("u"), al.symbol("v")
        assert table.bound(u, v) == 3

    def test_product_bound_formula(self, al):
        # node u o_r v against leaf w: max(0, 3*M - r) with M = 3
        table = DongTable(POL)
        u, v, w = (al.symbol(nm) for nm in ("u", "v", "w"))
        for r in range(-3, 3):
            node = Node(r, u, v)
            assert table.bound(node, w) == max(0, 9 - r)

    def test_symmetric(self, al):
        table = DongTable(POL)
        u, v, w = (al.symbol(nm) for nm in ("u", "v", "w"))
        node = Node(-2, u, v)
        assert table.bound(node, w) == table.bound(w, node)

    def test_two_products_take_the_smaller_decomposition(self, al):
        # through a, M = 8 (b against a leaf: 3*3 - 1); through b, M = 11
        # (a against a leaf: 3*3 + 2)
        u, v, w = (al.symbol(nm) for nm in ("u", "v", "w"))
        a, b = Node(-2, u, v), Node(1, v, w)
        vias = DongTable(POL)._via(a, b), DongTable(POL)._via(b, a)
        assert vias == (26, 32)
        assert DongTable(POL).bound(a, b) == DongTable(POL).bound(b, a) == 26


class TestTailCertificate:
    @pytest.mark.parametrize("r", (-1, -2, -3))
    def test_passes_at_derived_bound(self, al, r):
        x, y, z = S(al, "u"), S(al, "v"), S(al, "w")
        n0 = 9 - r
        counts = dong_tail_certificate(x, y, z, r, n0, POL)
        assert counts["generator"] == 1
        assert counts["dead"] + counts["derived"] > 0

    @pytest.mark.parametrize("r", (-1, -2))
    def test_sharp_below_bound(self, al, r):
        x, y, z = S(al, "u"), S(al, "v"), S(al, "w")
        n0 = 9 - r
        with pytest.raises(CertificationError):
            dong_tail_certificate(x, y, z, r, n0 - 1, POL)

    def test_exempt_summand_past_the_level_is_refused(self, al):
        # u o_30 w stays alive, so the tail must run to k = 30, where the
        # summand v o_{-21} (u o_30 w) is neither dead nor derived
        x, y, z = S(al, "u"), S(al, "v"), S(al, "w")
        pol = TruncationPolicy(3, level=8, exempt=frozenset({("u", "w", 30)}))
        with pytest.raises(CertificationError, match="k=30"):
            dong_tail_certificate(x, y, z, -1, 10, pol)

    def test_rejects_nonnegative_r(self, al):
        x, y, z = S(al, "u"), S(al, "v"), S(al, "w")
        with pytest.raises(ValueError, match="r < 0"):
            dong_tail_certificate(x, y, z, 0, 12, POL)

    def test_rejects_compound_arguments(self, al):
        x, y, z = S(al, "u"), S(al, "v"), S(al, "w")
        with pytest.raises(ValueError, match="x must be a single leaf"):
            dong_tail_certificate(x.o(0, y), y, z, -1, 12, POL)
        with pytest.raises(ValueError, match="z must be a single leaf"):
            dong_tail_certificate(x, y, y + z, -1, 12, POL)
