"""Bridge identities tying the generator families to one another.

`borcherds_bridge` builds both sides of the equalities that let the family
presentation emulate the classical axioms: the e-as-sum bridge, the
index-lowering inductions for d, i, qc and qa, the n-symmetry of qc, and
the commutator decomposition.  Both sides cut their series at one bound
K, which each identity's declared tails give through _certified_bound,
the rule of fam_qc and fam_qa: closed forms come back equal as raw
Elements, and tail-carrying ones agree after truncation.

Also here: the derived-locality machinery that extends pair locality to
longer products (binomial rank matrix, memoized bound table, and the tail
classification certificate for negative product indices).
"""

from fractions import Fraction
from math import factorial

from .generators import (
    CertificationError,
    TruncationPolicy,
    _certified_bound,
    _cut_o,
    _parity_of,
    _qa_sum,
    _qa_tail,
    _qc_sum,
    fam_d,
    fam_e,
    fam_f,
    fam_i,
    truncate,
)
from .models.polys import column_rank
from .terms import Element, Node, Symbol, binom, falling, leaf_terms, minus_one_pow

Q = Fraction


def _koszul(x: Element, y: Element) -> int:
    return minus_one_pow(_parity_of(x, "bridge arg") * _parity_of(y, "bridge arg"))


# identity builders -----------------------------------------------------------
#
# Each takes a policy `cut` and returns an (lhs, rhs) pair at the series
# bound K.  Every tail summand's base, the product that D^k, a derivative
# tower, an outer product or an e, f or i family wraps, is built under cut,
# here or in generators._qc_sum and _qa_sum: a product base by
# generators._cut_o, a family base by fam_e, fam_f or fam_i given cut.
# Either is truncate(base, cut), but a leaf pair that cut kills costs one
# is_dead call and no Node.  In every builder a summand over an empty base
# is skipped.  A wrapper around a cut base is built uncut.  Each wrapper
# keeps the base's terms as subtrees, so a term built over a dead base term
# is dead, and truncating the pair under cut gives what truncating the
# uncut pair would.  With cut=None the pair is the untruncated one.
# The sign conventions follow the qa/qc family builders, so even-parity
# arguments reproduce the classical displays verbatim.

def _eb(x: Element, y: Element, n: int, K: int, cut):
    """e as a qa value plus i-family corrections; exact once K >= |n| - 1."""
    one = Element.unit(x.alphabet)
    lhs = fam_e(x, y, n)
    acc = dict(_qa_sum(x, one, y, -2, n, _koszul(x, one), K, cut).terms)
    for k in range(K + 1):
        c = binom(-2, k) * minus_one_pow(k)  # = k + 1
        base = fam_i(y, n + k, cut)
        if base.terms:
            x.o(-2 - k, base)._add_into(acc, c)
        base = _cut_o(x, k, y, cut)
        if base.terms:
            fam_i(base, -2 + n - k)._add_into(acc, -c)
    return lhs, Element._trusted(x.alphabet, acc)


def _di(x: Element, y: Element, n: int, K: int, cut):
    """Closed form, K unused: lowers the d index by one."""
    lhs = n * fam_d(x, y, n - 1)
    rhs = (
        fam_e(x, y, n).D()
        - fam_d(x.D(), y, n)
        - fam_e(x.D(), y, n)
        - fam_e(x, y.D(), n)
    )
    return lhs, rhs


def _ii(x: Element, n: int, reading: int, K: int, cut):
    """Closed form, K unused: lowers the i index by one.

    The source display applies i to two arguments, which family i does not
    take; `reading` selects which argument the display meant (2 = the
    element x, 1 = the unit).  Reading 2 makes the identity hold.
    """
    if reading not in (1, 2):
        raise ValueError("i-induction reading must be 1 or 2")
    one = Element.unit(x.alphabet)
    probe = x if reading == 2 else one
    lhs = n * fam_i(x, n - 1)
    rhs = fam_i(x.D(), n) - fam_i(probe, n).D() + fam_f(one, x, n)
    return lhs, rhs


def _qci(x: Element, y: Element, n: int, K: int, cut):
    """Lowers the qc index; the two telescopes end one summand apart, on
    y o_{n-1+k} x, so truncation closes them past the tail (y, x, n - 1)."""
    kosz = _koszul(x, y)
    lhs = n * _qc_sum(x, y, n - 1, kosz, K, cut)
    rhs = -_qc_sum(x.D(), y, n, kosz, K, cut) + fam_e(x, y, n)
    acc = dict(rhs.terms)
    for k in range(K + 1):
        base = fam_f(y, x, n + k, cut)
        if base.terms:
            c = -kosz * Q(minus_one_pow(n + k), factorial(k))
            base.D_pow(k)._add_into(acc, c)
    return lhs, Element._trusted(x.alphabet, acc)


def _qami(x: Element, y: Element, z: Element, m: int, n: int, K: int, cut):
    """Lowers the first qa index; exact for m >= 0 once K >= m.  For m < 0
    only the boundary summand y o (x o_K z) survives: the tail (x, z, -1)."""
    kosz = _koszul(x, y)
    lhs = m * _qa_sum(x, y, z, m - 1, n, kosz, K, cut)
    rhs = -_qa_sum(x.D(), y, z, m, n, kosz, K, cut) + fam_e(x, y, m).o(n, z)
    sp = minus_one_pow(m) * kosz
    acc = dict(rhs.terms)
    for k in _qa_tail(m, K):
        c = binom(m, k) * minus_one_pow(k)
        base = _cut_o(y, n + k, z, cut)
        if base.terms:
            fam_e(x, base, m - k)._add_into(acc, -c)
        base = fam_e(x, z, k, cut)
        if base.terms:
            y.o(m + n - k, base)._add_into(acc, c * sp)
    return lhs, Element._trusted(x.alphabet, acc)


def _qani(x: Element, y: Element, z: Element, m: int, n: int, K: int, cut):
    """Lowers the second qa index; exact for m >= 0 once K >= m, else past
    the tails (y, z, n - 1) and (x, z, -1) of its f summands."""
    kosz = _koszul(x, y)
    lhs = n * _qa_sum(x, y, z, m, n - 1, kosz, K, cut)
    rhs = (
        -_qa_sum(x, y, z, m, n, kosz, K, cut).D()
        + _qa_sum(x, y, z.D(), m, n, kosz, K, cut)
        + fam_f(x.o(m, y), z, n)
    )
    sp = minus_one_pow(m) * kosz
    acc = dict(rhs.terms)
    for k in _qa_tail(m, K):
        c = binom(m, k) * minus_one_pow(k)
        base = _cut_o(y, n + k, z, cut)
        if base.terms:
            fam_f(x, base, m - k)._add_into(acc, -c)
        base = _cut_o(x, k, z, cut)
        if base.terms:
            fam_f(y, base, m + n - k)._add_into(acc, c * sp)
        base = fam_f(y, z, n + k, cut)
        if base.terms:
            x.o(m - k, base)._add_into(acc, -c)
        base = fam_f(x, z, k, cut)
        if base.terms:
            y.o(m + n - k, base)._add_into(acc, c * sp)
    return lhs, Element._trusted(x.alphabet, acc)


def _qcs(x: Element, y: Element, n: int, K: int, cut):
    """n-symmetry: y o_n x recovered from the qc generator minus its tail.
    Definitionally exact at any K."""
    lhs = y.o(n, x)
    sp = _koszul(x, y)
    acc = dict(_qc_sum(y, x, n, sp, K, cut).terms)
    for k in range(K + 1):
        base = _cut_o(x, n + k, y, cut)
        if base.terms:
            c = -sp * Q(minus_one_pow(n + k), factorial(k))
            base.D_pow(k)._add_into(acc, c)
    return lhs, Element._trusted(x.alphabet, acc)


def _tower(w: Element, k: int) -> list:
    """[w, Dw, ..., D^k w], each level one memoised D of the one before."""
    out = [w]
    for _ in range(k):
        out.append(out[-1].D())
    return out


def _comm(x: Element, y: Element, z: Element, m: int, n: int, K: int, cut):
    """Commutator decomposition in three index regimes.

    The left side is [x_m, y_n]z minus the binomial sum of products; the
    right side exhibits it inside the ideal.  m >= 0 is closed-form; the
    m = -1 regimes carry tails that die under truncation.  Their double
    sums read D^{j-i}(x o_j y) for every i <= j, so each regime builds the
    derivative tower of x o_j y once, over its cut base, and indexes into
    it.
    """
    kosz = _koszul(x, y)
    al = x.alphabet
    lhs = dict((x.o(m, y.o(n, z)) - kosz * y.o(n, x.o(m, z))).terms)
    rhs = {}
    if m >= 0:
        for k in range(m + 1):
            c = binom(m, k)
            x.o(k, y).o(m + n - k, z)._add_into(lhs, -c)
            qa = _qa_sum(x, y, z, k, m + n - k, kosz, K, cut)
            qa._add_into(rhs, -c)
        return Element._trusted(al, lhs), Element._trusted(al, rhs)
    if m == -1 and n == -1:
        for k in range(K + 1):
            base = _cut_o(x, k, y, cut)
            if base.terms:
                base.o(-2 - k, z)._add_into(lhs, -minus_one_pow(k))
        rhs = dict((
            -_qa_sum(x, y, z, -1, -1, kosz, K, cut)
            + kosz * _qa_sum(y, x, z, -1, -1, kosz, K, cut)
            - kosz * _qc_sum(y, x, -1, kosz, K, cut).o(-1, z)
        ).terms)
        for j in range(K + 1):
            base = _cut_o(x, j, y, cut)
            if not base.terms:
                continue
            tower = _tower(base, j)
            for i in range(j + 1):
                c = Q(minus_one_pow(j + 1) * factorial(i), factorial(j + 1))
                fam_e(tower[j - i], z, -1 - i)._add_into(rhs, -c)
        return Element._trusted(al, lhs), Element._trusted(al, rhs)
    if m == -1 and n >= 0:
        for k in range(K + 1):
            base = _cut_o(x, k, y, cut)
            if base.terms:
                base.o(n - 1 - k, z)._add_into(lhs, -minus_one_pow(k))
        for k in range(n + 1):
            ck = binom(n, k)
            qa = _qa_sum(y, x, z, k, n - 1 - k, kosz, K, cut)
            qa._add_into(rhs, kosz * ck)
            qc = _qc_sum(y, x, k, kosz, K, cut)
            qc.o(n - 1 - k, z)._add_into(rhs, -kosz * ck)
            for j in range(1, K + 1):
                base = _cut_o(x, k + j, y, cut)
                if not base.terms:
                    continue
                tower = _tower(base, j - 1)
                for i in range(j):
                    sgn = minus_one_pow(k + j + i)
                    c = Q(ck * sgn * falling(n - 1 - k, i), factorial(j))
                    e = fam_e(tower[j - 1 - i], z, n - 1 - k - i)
                    e._add_into(rhs, c)
        return Element._trusted(al, lhs), Element._trusted(al, rhs)
    raise ValueError("commutator decomposition covers m >= -1 only")


# identity id -> (argument slots in order, builder, tails).  tails(**args)
# is the identity's series in _certified_bound's terms, read off the
# builder's summands: an int for a closed form, else the leaf-pair groups
# whose products die past K.  tests/test_bridges.py pins them.
_XYN, _XYZMN = ("x", "y", "n"), ("x", "y", "z", "m", "n")
BRIDGES = {
    "e-bridge": (_XYN, _eb, lambda n, **_: abs(n) - 1),
    "d-induction": (_XYN, _di, lambda **_: 0),
    "i-induction": (("x", "n", "reading"), _ii, lambda **_: 0),
    "qc-induction": (_XYN, _qci, lambda x, y, n: [(y, x, n - 1)]),
    "qa-m-induction": (_XYZMN, _qami, lambda x, z, m, **_: (
        m if m >= 0 else [(x, z, -1)])),
    "qa-n-induction": (_XYZMN, _qani, lambda x, y, z, m, n: (
        m if m >= 0 else [(y, z, n - 1), (x, z, -1)])),
    "qc-symmetry": (_XYN, _qcs, lambda **_: 0),
    # at m = -1 the union of its qc and qa summands' own groups
    "commutator": (_XYZMN, _comm, lambda x, y, z, m, n: (
        m if m >= 0 else [(x, y, min(n, 0)), (y, z, min(n, 0)), (x, z, -1)])),
}

BRIDGE_IDS = tuple(BRIDGES)


def borcherds_bridge(identity_id, args, policy, K=None):
    """Build both sides of the named identity, truncated under `policy`.

    `args` maps the identity's slots to values: x, y, z for elements, m, n
    for indices, and `reading` for i-induction (defaults to 2, the reading
    that holds).  The series bound comes from _certified_bound, the one
    rule of fam_qc and fam_qa: without a policy a given `K` is taken as
    given; under one it must reach the bound the identity's tails need, or
    CertificationError is raised.  With no `K` the bound is that need, at
    least the policy's level; a tail without a policy or over compound
    arguments then raises.  The builder gets `policy` as its cut, so the
    tail summands the truncation would drop are never built past their
    base product; the sides equal the truncation of the uncut ones at the
    same K.  Without a policy both sides are returned untruncated.
    Returns (lhs, rhs).
    """
    try:
        names, build, tails = BRIDGES[identity_id]
    except KeyError:
        raise ValueError(f"unknown bridge identity {identity_id!r}") from None
    got = dict(args)
    if identity_id == "i-induction":
        got.setdefault("reading", 2)
    missing = [nm for nm in names if nm not in got]
    if missing:
        raise ValueError(f"{identity_id} missing args: {', '.join(missing)}")
    extra = sorted(set(got) - set(names))
    if extra:
        raise ValueError(f"{identity_id} got unknown args: {', '.join(extra)}")
    K = _certified_bound(identity_id, K, policy, tails(**got))
    lhs, rhs = build(K=K, cut=policy, **got)
    return truncate(lhs, policy), truncate(rhs, policy)


# derived locality ------------------------------------------------------------

def dong_matrix(M: int, m: int):
    """Rows j = 0..M of binomial coefficients (binom(m - j, k))_{k < M}.

    Row j is the coefficient vector of the commutator decomposition at
    indices (m - j, m - M + j); all rows share the total index 2m - M.
    """
    return [[Q(binom(m - j, k)) for k in range(M)] for j in range(M + 1)]


def dong_rank(M: int, m: int) -> int:
    return column_rank(dong_matrix(M, m))


def dong_row(x: Element, y: Element, z: Element, M: int, m: int, j: int):
    """Row j of the vanishing system: sum_k binom(m-j, k) (x_k y) o_{2m-M-k} z."""
    acc = {}
    for k in range(M):
        c = binom(m - j, k)
        if c:
            x.o(k, y).o(2 * m - M - k, z)._add_into(acc, c)
    return Element._trusted(x.alphabet, acc)


class DongTable:
    """Memoized derived-locality bounds over trees.

    A leaf pair's bound is the policy table's.  A product u = x o_r y
    against v gets max(0, 3*M - r) where M is the largest pairwise bound
    among x, y, v; when both sides are products the smaller of the two
    decompositions wins, which keeps the table symmetric.
    """

    def __init__(self, policy: TruncationPolicy):
        self.policy = policy
        self._memo = {}

    def bound(self, u, v) -> int:
        key = (u, v)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if u.__class__ is Symbol and v.__class__ is Symbol:
            out = self.policy.locality(u, v)
        elif u.__class__ is Symbol:
            out = self.bound(v, u)
        elif v.__class__ is Symbol:
            out = self._via(u, v)
        else:
            out = min(self._via(u, v), self._via(v, u))
        self._memo[key] = out
        self._memo[(v, u)] = out
        return out

    def _via(self, u: Node, v) -> int:
        M = max(
            self.bound(u.left, u.right),
            self.bound(u.left, v),
            self.bound(u.right, v),
        )
        return max(0, 3 * M - u.index)


def dong_tail_certificate(
    x: Element,
    y: Element,
    z: Element,
    r: int,
    n: int,
    policy: TruncationPolicy,
) -> dict:
    """Certify (x o_r y) o_n z for r < 0 at n at/above the derived bound.

    Expands through the qa generator at the bound K that fam_qa certifies
    for its tails (y, z, n) and (x, z, 0), so every summand past K is
    truncation-dead, and classifies every summand up to K: `dead` if its
    inner leaf pair is past locality, or `derived` if its outer index
    reaches the derived bound of its two factors (the regime the rank
    argument already covers).  Raises CertificationError if any term is
    neither.
    """
    if r >= 0:
        raise ValueError("tail certificate applies to r < 0 only")
    for what, w in (("x", x), ("y", y), ("z", z)):
        if len(leaf_terms(w) or ()) != 1:
            raise ValueError(f"{what} must be a single leaf")
    (lx,), (ly,), (lz,) = x.terms, y.terms, z.terms
    table = DongTable(policy)
    want = table.bound(Node(r, lx, ly), lz)
    if n < want:
        raise CertificationError(
            f"index n={n} is below the derived bound {want}"
        )
    K = _certified_bound("dong", None, policy, [(y, z, n), (x, z, 0)])
    counts = {"generator": 1, "dead": 0, "derived": 0}
    for k in range(K + 1):
        for head, outer, inner in (
            (lx, r - k, Node(n + k, ly, lz)),
            (ly, r + n - k, Node(k, lx, lz)),
        ):
            if policy.is_dead(inner.left, inner.right, inner.index):
                counts["dead"] += 1
            elif outer >= table.bound(head, inner):
                counts["derived"] += 1
            else:
                raise CertificationError(
                    f"term at k={k} (outer index {outer}) is neither dead "
                    "nor at the derived bound"
                )
    return counts
