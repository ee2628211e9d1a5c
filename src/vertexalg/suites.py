"""Verification suites and report assembly.

Each suite replays one battery of checks at desk scale: random instances
are drawn from a seeded generator, every comparison is exact rational
arithmetic, and the outcome is a JSON-ready report.  A check passes or
fails; a check whose reduction runs out of its budget fails.

Check records.  Every check in every report is one dict built by
models.base.check, the same constructor the model, morphism, collapse,
geometry and sheaf checks use.  Required fields, in this order:

  id       name of the check, unique within its suite
  status   "pass" or "fail"
  millis   wall milliseconds since the suite yielded its previous item

Optional fields follow, present only where they apply:

  cases      cases the one case loop, models.base.case_check, ran (at
             least one); it stops at the first witness.  In the
             module-law and functor-law batteries one case is one draw
  skipped    cases left out because a product passed a degree cap (in
             a battery, because every law did); present only when nonzero
  witness    the first failing input: a term in the term grammar or
             symbol names; a battery's is "<law>: <term>", its first
             failing law on the failing draw
  kind       errata-candidate, display-variant or variant-necessity
  samples    draws of i-induction-reading-1, which keeps one record
  counts     per law of a module-law or functor-law battery, the cases
             on which that law ran and held

and check-specific details (levels, steps, rules, ranks, bounds, ...).

Every check over a list of cases is one case_check call; random draws
are a lazy generator of cases over the suite's seeded rng.

Each suite is a generator.  It yields one check record, or the list of
records one producer call returned (model and morphism laws, collapse,
geometry); run_suite stamps millis on every record of the item, so a
batch shares one timing.  Reports are deterministic per seed up to the
millis fields, and checks are ordered by id.
"""

import json
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction as Q

from .bridges import (
    BRIDGES,
    DongTable,
    borcherds_bridge,
    dong_matrix,
    dong_rank,
    dong_row,
    dong_tail_certificate,
)
from .collapse import punctured_checks, right_mult_checks
from .generators import (
    FAMILIES,
    CertificationError,
    TruncationPolicy,
    build_generator,
    fam_d,
    truncate,
)
from .intervals import SupportSet
from .models.base import case_check, check, check_module_laws, validate_model
from .models.factory import shipped_model
from .models.geometry import classical_geometry_checks
from .models.morphisms import (
    functor_laws,
    random_tree,
    shipped_morphisms,
    validate_morphism,
)
from .parsing import to_text
from .rewrite import R_project, length_one_component
from .sheaf import (
    bump_support_check,
    k_generator,
    make_cover_three,
    make_cover_two,
    pi,
    restrict,
    rho_transfer_check,
    semantic_support,
    sheaf_axiom_check,
)
from .terms import Alphabet, Element, Node, Symbol, binom, sort_key


@dataclass
class SuiteConfig:
    suite: str
    trunc_level: int = 8
    locality: int = 3
    max_len: int = 3
    index_window: int = 4
    samples: int = 0  # 0 picks the suite default
    seed: int = 0
    budget: int = 20000

    def __post_init__(self):
        if self.suite not in SUITE_IDS:
            raise ValueError(f"unknown suite {self.suite!r}; known: {SUITE_IDS}")
        if self.locality < 1 or self.trunc_level < self.locality:
            raise ValueError("need 1 <= locality <= trunc_level")
        for field, least in (("samples", 0), ("budget", 0), ("max_len", 1),
                             ("index_window", 0)):
            value = getattr(self, field)
            if value < least:
                raise ValueError(f"{field} must be >= {least}, got {value}")

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(
            default_locality=self.locality, level=self.trunc_level
        )

    def n_samples(self, default: int) -> int:
        return self.samples if self.samples > 0 else default


def _prefixed(prefix: str, records: list) -> list:
    for c in records:
        c["id"] = prefix + c["id"]
    return records


def _witness(lhs: Element, rhs: Element):
    """Smallest monomial of the difference, in term grammar; None when the
    two sides agree."""
    if lhs == rhs:
        return None
    diff = lhs - rhs
    t = min(diff.terms, key=sort_key)
    return to_text(Element.of_term(diff.alphabet, t, diff.terms[t]))


# -- sampling helpers ----------------------------------------------------------


def _bridge_alphabet() -> Alphabet:
    al = Alphabet()
    for nm in ("u", "v", "w"):
        al.add(Symbol(nm, 0, Q(0), "generic"))
    for nm in ("p", "q"):
        al.add(Symbol(nm, 1, Q(0), "generic"))
    return al


def _bridge_leaf(rng):
    al = _bridge_alphabet()
    names = [nm for nm in al.names() if al.symbol(nm).kind != "unit"]
    return lambda: Element.sym(al, rng.choice(names))


def _rand_element(model, rng, max_len: int, window: int) -> Element:
    al, syms = model.alphabet, model.sample_symbols()
    out = random_tree(al, syms, rng, rng.randint(1, max_len), -window, window)
    if rng.random() < 0.3:
        out = out + rng.choice((-1, 1, 2)) * random_tree(
            al, syms, rng, rng.randint(1, max_len), -window, window
        )
    return out


def _uncertified(fam_id, args, m, n, K) -> Element:
    """fam_id's generator on its leading args; qc/qa tails cut at K unchecked."""
    fam = FAMILIES[fam_id]
    idx = tuple({"m": m, "n": n}[nm] for nm in fam.indices)
    return build_generator(fam_id, args[: fam.arity], idx, None, K=K)


# -- commutative-model suite -----------------------------------------------------


def _suite_commutative(cfg: SuiteConfig):
    model = shipped_model("diffpoly")
    rng = random.Random(cfg.seed)
    per = max(40, cfg.n_samples(250) // 5)
    K = cfg.index_window + 2

    def draw(fam_id):
        x, y, z = (
            _rand_element(model, rng, cfg.max_len, cfg.index_window) for _ in range(3)
        )
        n = rng.randint(-cfg.index_window, cfg.index_window)
        m = rng.randint(-cfg.index_window, cfg.index_window)
        return _uncertified(fam_id, (x, y, z), m, n, K)

    def probe(gen):
        return None if model.evaluate_commutative(gen).is_zero() else to_text(gen)

    for fam_id in ("i", "d", "e", "qc", "qa"):
        cases = (draw(fam_id) for _ in range(10 * per))
        yield case_check(f"commutative-{fam_id}", cases, probe, limit=per)


# -- bridge-identity suite ---------------------------------------------------


def _bridge_args(slots, rng, leaf, window):
    """Random leaves for the element slots, then n, then m if it is a slot."""
    args = {nm: leaf() for nm in slots if nm in ("x", "y", "z")}
    args["n"] = rng.randint(-window, window)
    if "m" in slots:
        args["m"] = rng.randint(-window, window)
    return args


def _suite_borcherds(cfg: SuiteConfig):
    pol = cfg.policy()
    rng = random.Random(cfg.seed)
    per = cfg.n_samples(100)
    leaf = _bridge_leaf(rng)
    for ident, (slots, _, _) in BRIDGES.items():
        if ident == "commutator":
            continue  # its own suite, on a fixed index grid
        cases = (_bridge_args(slots, rng, leaf, cfg.index_window) for _ in range(per))
        yield case_check(
            ident, cases, lambda args: _witness(*borcherds_bridge(ident, args, pol))
        )

    # the other published reading of the i lowering fails syntactically; it
    # passes, as an errata candidate, iff the commutative oracle holds on
    # every draw
    trials = 40
    sides = (
        borcherds_bridge(
            "i-induction", {"x": leaf(), "n": (k % 7) - 3, "reading": 1}, pol
        )
        for k in range(trials)
    )
    failed = [(lhs, rhs) for lhs, rhs in sides if lhs != rhs]
    syn_fails = len(failed)
    witness = _witness(*failed[0]) if failed else None
    model = shipped_model("diffpoly")

    def oracle_holds():
        x = _rand_element(model, rng, 2, 3)
        n = rng.randint(-3, 3)
        lhs, rhs = borcherds_bridge(
            "i-induction", {"x": x, "n": n, "reading": 1}, None,
            K=cfg.trunc_level,
        )
        return model.evaluate_commutative(lhs - rhs).is_zero()

    sem_ok = all(oracle_holds() for _ in range(20))
    yield check(
        "i-induction-reading-1",
        syn_fails == 0 or sem_ok,
        samples=trials,
        syntactic_failures=syn_fails,
        semantic_oracle="pass" if sem_ok else "fail",
        kind="errata-candidate" if syn_fails and sem_ok else None,
        witness=witness,
    )


# -- commutator suite -----------------------------------------------------------


def _suite_commutator(cfg: SuiteConfig):
    pol = cfg.policy()
    rng = random.Random(cfg.seed)
    per = max(3, cfg.n_samples(48) // 16)
    leaf = _bridge_leaf(rng)
    probe = lambda args: _witness(*borcherds_bridge("commutator", args, pol))
    for m in (-1, 0, 1, 2):
        for n in (-1, 0, 1, 2):
            cases = (
                {"x": leaf(), "y": leaf(), "z": leaf(), "m": m, "n": n}
                for _ in range(per)
            )
            yield case_check(f"commutator-m{m}-n{n}", cases, probe)

    # semantic form of the same decomposition in the polynomial model
    model = shipped_model("diffpoly")
    syms = model.sample_symbols()
    mal = model.alphabet

    def draw():
        x, y, z = (Element.of_term(mal, rng.choice(syms)) for _ in range(3))
        return x, y, z, rng.choice((-1, 0, 1, 2)), rng.choice((-1, 0, 1, 2))

    def semantic_probe(case):
        x, y, z, m, n = case
        lhs = x.o(m, y.o(n, z)) - y.o(n, x.o(m, z))
        rhs = Element.zero(mal)
        for k in range(max(m, 0) + 1):
            rhs = rhs + binom(m, k) * x.o(k, y).o(m + n - k, z)
        if model.evaluate_commutative(lhs - rhs).is_zero():
            return None
        return f"m={m} n={n}: " + to_text(lhs - rhs)

    sem_per = cfg.n_samples(48)
    yield case_check(
        "commutator-semantic-diffpoly",
        (draw() for _ in range(10 * sem_per)),
        semantic_probe,
        limit=sem_per,
    )


# -- locality-propagation suite ---------------------------------------------------


def _suite_dong(cfg: SuiteConfig):
    ranks = {(M, m): dong_rank(M, m) for M in (1, 2, 3)
             for m in (2 * M, 2 * M + 1, 2 * M + 2)}
    yield case_check(
        "dong-rank-grid", ranks,
        lambda Mm: None if ranks[Mm] == Mm[0]
        else f"M={Mm[0]} m={Mm[1]}: rank {ranks[Mm]}",
        ranks={f"M{M}-m{m}": r for (M, m), r in ranks.items()},
    )

    frozen = [[Q(1), Q(4)], [Q(1), Q(3)], [Q(1), Q(2)]]
    got = dong_matrix(2, 4)
    yield check(
        "dong-matrix-frozen",
        [list(row) for row in got] == frozen,
        matrix=[[str(v) for v in row] for row in got],
    )

    al = _bridge_alphabet()
    pol = cfg.policy()
    leaf = lambda nm: Element.sym(al, nm)

    # each matrix row is one commutator decomposition: with both bracket
    # indices past the locality bound the truncated remainder is exactly
    # minus the row
    M, m = 3, 7
    x, y, z = leaf("u"), leaf("v"), leaf("w")

    def row_tie(j):
        mj, nj = m - j, m - M + j
        lhs = x.o(mj, y.o(nj, z)) - y.o(nj, x.o(mj, z))
        for k in range(mj + 1):
            lhs = lhs - binom(mj, k) * x.o(k, y).o(2 * m - M - k, z)
        row = dong_row(x, y, z, M, m, j)
        diff = _witness(truncate(lhs, pol), truncate(-1 * row, pol))
        return None if diff is None else f"j={j}: {diff}"

    yield case_check("dong-row-commutator-tie", range(M + 1), row_tie, M=M, m=m)

    dt = DongTable(pol)
    u, v, w = (al.symbol(nm) for nm in ("u", "v", "w"))
    bounds = {r: dt.bound(Node(r, u, v), w) for r in range(-3, 3)}
    yield case_check(
        "dong-derived-locality-table", bounds,
        lambda r: None if bounds[r] == max(0, 3 * cfg.locality - r)
        else f"r={r}: bound {bounds[r]}",
        bounds={f"r{r}": b for r, b in bounds.items()},
    )

    def certify(r, n):
        """The tail certificate at n, or the text of its refusal."""
        try:
            return dong_tail_certificate(x, y, z, r, n, pol)
        except CertificationError as err:
            return str(err)

    n0 = {r: 3 * cfg.locality - r for r in (-1, -2, -3)}
    certs = {r: certify(r, n) for r, n in n0.items()}

    def tail(r):
        cert = certs[r]
        if isinstance(cert, str) or cert.get("generator") != 1:
            return f"r={r} n={n0[r]}: {cert}"
        if isinstance(certify(r, n0[r] - 1), str):
            return None
        return f"r={r}: certified below the derived bound, at n={n0[r] - 1}"

    yield case_check(
        "dong-tail-certificates", certs, tail,
        certificates={f"r{r}": c for r, c in certs.items()},
    )


# -- projection-injectivity suite ----------------------------------------------


def _suite_injectivity(cfg: SuiteConfig):
    model = shipped_model("diffpoly")
    rng = random.Random(cfg.seed)
    al = model.alphabet
    syms = model.sample_symbols()
    leaf = lambda: Element.of_term(al, rng.choice(syms))

    def project(x):
        """R_project's result under the suite budget; None if it ran out."""
        rep = R_project(x, model, budget=cfg.budget)
        return rep.result if rep.status == "normal-form" else None

    def ran_out(x):
        return f"projection budget {cfg.budget} ran out on {to_text(x)}"

    def idempotent(x):
        once = project(x)
        again = None if once is None else project(once)
        if again is None:
            return ran_out(x if once is None else once)
        return None if again == once else to_text(x)

    per = cfg.n_samples(200)
    yield case_check(
        "projection-idempotent",
        (_rand_element(model, rng, 4, 3) for _ in range(10 * per)),
        idempotent,
        limit=per,
    )

    ok = all(
        R_project(Element.sym(al, nm), model).result == Element.sym(al, nm)
        for nm in al.names()
    )
    yield check("projection-fixes-leaves", ok)

    per_fam = max(40, cfg.n_samples(200) // 5)
    K = cfg.index_window + 2

    def generators():
        for fam_id in ("i", "d", "e", "qc", "qa"):
            for _ in range(per_fam):
                n = rng.randint(-cfg.index_window, cfg.index_window)
                m = rng.randint(-cfg.index_window, cfg.index_window)
                args = [leaf() for _ in range(FAMILIES[fam_id].arity)]
                yield fam_id, _uncertified(fam_id, args, m, n, K)

    def no_length_one(case):
        fam_id, gen = case
        image = project(gen)
        if image is None:
            return f"{fam_id}: " + ran_out(gen)
        if length_one_component(image).is_zero():
            return None
        return f"{fam_id}: " + to_text(image)

    yield case_check("generator-images-no-length-one", generators(), no_length_one)

    # the published image table's n=0 row under its string reading vs the
    # structural projection; structural wins, recorded as a variant
    gen = fam_d(Element.sym(al, "b"), Element.sym(al, "b2"), 0)
    image = R_project(gen, model).result
    yield check(
        "display-variant-n0-row",
        length_one_component(image).is_zero(),
        kind="display-variant",
        structural_image=to_text(image),
    )


# -- module-law suite ------------------------------------------------------------


def _suite_souped(cfg: SuiteConfig):
    per = cfg.n_samples(100)
    for name in ("diffpoly", "weyl1", "current2", "current3"):
        model = shipped_model(name)
        yield _prefixed(f"{name}-", validate_model(model, pair_cap=40, case_cap=200))
        yield check_module_laws(
            model, policy=cfg.policy(), samples=per, seed=cfg.seed, budget=cfg.budget
        )


# -- collapse suite ---------------------------------------------------------------


def _suite_collapse(cfg: SuiteConfig):
    yield right_mult_checks(levels=(2, 3, 6), budget=cfg.budget)
    for N in (1, 2):
        yield punctured_checks(N, level=max(N + 6, cfg.trunc_level))


# -- functor suite ----------------------------------------------------------------


def _suite_functor(cfg: SuiteConfig):
    per = cfg.n_samples(100)
    for name in ("diffpoly", "weyl1"):
        phi, psi = shipped_morphisms(shipped_model(name))
        for mor in (phi, psi):
            yield _prefixed(f"{name}-{mor.name}-", validate_morphism(mor))
        yield functor_laws(phi, psi, samples=per, seed=cfg.seed)


# -- sheaf suite ------------------------------------------------------------------


def _tagged_pool(ctx, cover):
    """The leaves of random tagged elements: the declared sections,
    their restrictions to patch windows, and two far-apart slivers."""
    al = ctx.alphabet
    pool = [al.symbol(nm) for nm in ("f", "g", "h")]
    for p in cover:
        pool.append(ctx.restricted_symbol("f", p.window))
    lo = ctx.universe.pieces[0].lo
    hi = ctx.universe.pieces[0].hi
    pool.append(ctx.restricted_symbol("f", SupportSet.closed(lo, lo + 1)))
    pool.append(ctx.restricted_symbol("f", SupportSet.closed(hi - 1, hi)))
    return [s for s in pool if s is not None]


def _rand_tagged(ctx, pool, rng, max_len: int) -> Element:
    return random_tree(ctx.alphabet, pool, rng, rng.randint(1, max_len), -3, 3)


def _rand_windowed(ctx, names, window, rng, max_len: int) -> Element:
    """Random element all of whose slots are sections restricted to the
    window; at least one non-unit leaf per monomial."""
    al = ctx.alphabet
    pool = [ctx.restricted_symbol(nm, window) for nm in names]
    pool = [s for s in pool if s is not None]
    out = _rand_tagged(ctx, pool, rng, max_len)
    if rng.random() < 0.4:
        out = out.o(rng.randint(-2, 1), Element.unit(al))
    return out


def _suite_sheaf(cfg: SuiteConfig):
    rng = random.Random(cfg.seed)
    covers = {"two": make_cover_two(), "three": make_cover_three()}

    ctx, cover = covers["two"]
    pool = _tagged_pool(ctx, cover)
    al = ctx.alphabet

    def idempotent(x):
        p = pi(x, ctx)
        if pi(p, ctx) == p and pi(k_generator(x, ctx), ctx) == Element.zero(al):
            return None
        return to_text(x)

    per = cfg.n_samples(40)
    yield case_check(
        "projection-idempotent",
        (_rand_tagged(ctx, pool, rng, 4) for _ in range(per)),
        idempotent,
    )

    # all-or-nothing on instances over two distinct sections; same-base
    # windowed pairs can cancel class-by-class and are a different statement.
    # Not a case_check: passing also needs both outcomes to occur, and a
    # failure names the first instance pi split, or the outcome never seen
    split = None
    kills = keeps = 0
    pol = cfg.policy()
    lo = ctx.universe.pieces[0].lo
    hi = ctx.universe.pieces[0].hi
    forced = [
        (al.symbol("f"), al.symbol("g")),
        (
            ctx.restricted_symbol("g", SupportSet.closed(lo, lo + Q(1, 2))),
            ctx.restricted_symbol("h", SupportSet.closed(hi - Q(1, 2), hi)),
        ),
    ]
    for trial in range(per + len(forced)):
        if trial < len(forced):
            sa, sb = forced[trial]
        else:
            sa = rng.choice(pool)
            sb = rng.choice(
                [s for s in pool if ctx.info(s).base != ctx.info(sa).base]
            )
        args = [Element.of_term(al, sa), Element.of_term(al, sb)]
        n = rng.randint(-3, 3)
        fam = "d" if trial < len(forced) else rng.choice(("i", "d", "e", "qc"))
        args = args[: FAMILIES[fam].arity]
        gen = build_generator(fam, args, (n,), pol)
        p = pi(gen, ctx)
        if p == gen:
            keeps += 1
        elif p.is_zero():
            kills += 1
        else:
            names = ", ".join(to_text(a) for a in args)
            split = f"pi({fam}({names}; n={n})) is neither the instance nor 0"
            break
    if split is None and not (kills and keeps):
        split = "no instance was " + ("killed" if not kills else "kept whole")
    yield check("generator-all-or-nothing", split is None,
                kept=keeps, killed=kills, witness=split)

    names = ("f", "g", "h")
    per_patch = max(10, cfg.n_samples(25))
    for tag, (ctx_i, cover_i) in covers.items():

        def windowed():
            for p in cover_i:
                for _ in range(per_patch):
                    yield p, _rand_windowed(ctx_i, names, p.window, rng, 5)

        def bump_difference(case):
            p, x = case
            if bump_support_check(p.sigma, x, p.window, p.core, ctx_i):
                return None
            return f"{p.name}: {to_text(x)}"

        yield case_check(
            f"bump-difference-inclusion-{tag}", windowed(), bump_difference
        )

        def transfers():
            for p in cover_i:
                for n in (-2, -1, 0, 2):
                    yield p, n, _rand_windowed(ctx_i, names, p.window, rng, 4)
                yield p, -1, _rand_tagged(ctx_i, _tagged_pool(ctx_i, cover_i), rng, 3)

        def transfer(case):
            p, n, x = case
            if rho_transfer_check(p.rho, p.sigma, x, n, ctx_i):
                return None
            return f"{p.name} n={n}: {to_text(x)}"

        yield case_check(f"core-weight-transfer-{tag}", transfers(), transfer)

        sub = []
        for trial in range(3):
            gl_names = ("f",) if trial == 0 else ("f", "g", "h")
            glob = _rand_tagged(
                ctx_i, [ctx_i.alphabet.symbol(nm) for nm in gl_names], rng, 3
            )
            secs = [restrict(glob, p.window, ctx_i) for p in cover_i]
            sub.extend(sheaf_axiom_check(cover_i, secs, ctx_i))
        bad = [c["id"] for c in sub if c["status"] == "fail"]
        yield check(f"existence-chain-{tag}", not bad, hops=len(sub), failing=bad[:6])

    def in_kernel(x):
        z = k_generator(x, ctx)
        if (
            semantic_support(z, ctx).is_empty()
            and pi(z, ctx) == Element.zero(al)
            and k_generator(z, ctx) == z
        ):
            return None
        return f"k({to_text(x)})"

    per = cfg.n_samples(20)
    yield case_check(
        "uniqueness-kernel-probes",
        (_rand_tagged(ctx, pool, rng, 4) for _ in range(per)),
        in_kernel,
    )


# -- geometry suite ---------------------------------------------------------------


def _suite_geometry(cfg: SuiteConfig):
    for name in ("derham1", "derham2_b2", "derham2_lin"):
        yield _prefixed(f"{name}-", classical_geometry_checks(shipped_model(name)))


# -- assembly ---------------------------------------------------------------------


_DISPATCH = {
    "commutative": _suite_commutative,
    "borcherds": _suite_borcherds,
    "commutator": _suite_commutator,
    "dong": _suite_dong,
    "injectivity": _suite_injectivity,
    "souped": _suite_souped,
    "collapse": _suite_collapse,
    "functor": _suite_functor,
    "sheaf": _suite_sheaf,
    "geometry": _suite_geometry,
}

# the suite ids, in the order verify all runs them
SUITE_IDS = tuple(_DISPATCH)


def run_suite(suite_id: str, config: SuiteConfig = None, **kw) -> dict:
    """Execute one suite and return its report dict.

    Every record of an item the suite yields gets millis, the wall
    milliseconds since the previous item, as its third key.  Checks are
    sorted by id; the report fails iff one of them does.
    """
    if config is None:
        config = SuiteConfig(suite=suite_id, **kw)
    if config.suite != suite_id:
        raise ValueError("config.suite does not match suite_id")
    checks = []
    start = last = time.perf_counter()
    for item in _DISPATCH[suite_id](config):
        now = time.perf_counter()
        ms = int((now - last) * 1000)
        last = now
        for c in [item] if isinstance(item, dict) else item:
            checks.append({"id": c["id"], "status": c["status"], "millis": ms, **c})
    checks.sort(key=lambda c: c["id"])
    counts = {s: sum(c["status"] == s for c in checks) for s in ("pass", "fail")}
    return {
        "suite": suite_id,
        "config": asdict(config),
        "status": "fail" if counts["fail"] else "pass",
        "counts": counts,
        "checks": checks,
        "millis": int((time.perf_counter() - start) * 1000),
    }


def emit_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")
