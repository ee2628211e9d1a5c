"""Verification suites and report assembly.

Each suite replays one battery of checks at desk scale: random instances
are drawn from a seeded generator, every comparison is exact rational
arithmetic, and the outcome is a JSON-ready report.  Report counts have
three states: pass, fail, or budget (a reduction ran out of steps without
deciding anything; listed, never a failure by itself).

Check records.  Every check in every report is one dict built by
models.base.check, the same constructor the model, morphism, collapse,
geometry and sheaf checks use.  Required fields, in this order:

  id       name of the check, unique within its suite
  status   "pass" or "fail"
  millis   wall milliseconds of the smallest unit that produced it

Optional fields follow, present only where they apply:

  samples, cases   how many random instances or enumerated cases ran
  skipped          cases left out because a product passed a degree cap
  witness          the first failing input: a term in the term grammar,
                   symbol names, or a list of failed laws
  kind             errata-candidate, display-variant or variant-necessity
  counts           per-law tallies of a sampled battery

and check-specific details (levels, steps, rules, ranks, bounds, ...).

Reports are deterministic per seed up to the millis fields.  Checks are
ordered by id.  millis is measured around the smallest unit that
produced the check, so batteries produced by one call (model and
morphism laws, collapse, geometry) share one timing across their batch.
"""

import json
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction as Q

from .bridges import (
    DongTable,
    borcherds_bridge,
    dong_matrix,
    dong_rank,
    dong_row,
    dong_tail_certificate,
)
from .collapse import punctured_checks, right_mult_checks
from .generators import (
    FAMILY_ARITY,
    CertificationError,
    GeneratorSpec,
    TruncationPolicy,
    build_generator,
    fam_d,
    truncate,
)
from .intervals import SupportSet
from .models.base import ModelDegreeError, check, check_module_laws, validate_model
from .models.factory import shipped_model
from .models.geometry import classical_geometry_checks
from .models.morphisms import shipped_morphisms, validate_morphism
from .models.morphisms import functor_laws as _functor_laws
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
from .terms import Alphabet, Element, Leaf, Symbol, binom, sort_key

SUITE_IDS = (
    "commutative",
    "borcherds",
    "commutator",
    "dong",
    "injectivity",
    "souped",
    "collapse",
    "functor",
    "sheaf",
    "geometry",
)

# identities where a syntactic failure with a passing semantic oracle is
# reported as an errata candidate instead of a failure
ERRATA_OK = ("i-induction",)


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
    errata_ok: tuple = ERRATA_OK

    def __post_init__(self):
        if self.suite not in SUITE_IDS:
            raise ValueError(f"unknown suite {self.suite!r}; known: {SUITE_IDS}")
        if self.locality < 1 or self.trunc_level < self.locality:
            raise ValueError("need 1 <= locality <= trunc_level")

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(
            default_locality=self.locality, level=self.trunc_level
        )

    def n_samples(self, default: int) -> int:
        return self.samples if self.samples > 0 else default


def _ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _batch(prefix: str, produce, *args, **kw) -> list:
    """Time one producer of check records, prefix their ids, and give each
    record the batch's millis."""
    t0 = time.perf_counter()
    batch = produce(*args, **kw)
    ms = _ms(t0)
    for c in batch:
        c["id"] = prefix + c["id"]
        c["millis"] = ms
    return batch


def _witness(lhs: Element, rhs: Element) -> str:
    """Smallest monomial of the difference, in term grammar."""
    diff = lhs - rhs
    if diff.is_zero():
        return "0"
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


def _rand_tree(al, syms, rng, length: int, window: int) -> Element:
    if length == 1:
        return Element.of_term(al, Leaf(rng.choice(syms)))
    split = rng.randrange(1, length)
    return _rand_tree(al, syms, rng, split, window).o(
        rng.randint(-window, window),
        _rand_tree(al, syms, rng, length - split, window),
    )


def _rand_element(model, rng, max_len: int, window: int) -> Element:
    syms = model.sample_symbols()
    out = _rand_tree(model.alphabet, syms, rng, rng.randint(1, max_len), window)
    if rng.random() < 0.3:
        out = out + rng.choice((-1, 1, 2)) * _rand_tree(
            model.alphabet, syms, rng, rng.randint(1, max_len), window
        )
    return out


def _uncertified(fam_id, args, m, n, K) -> Element:
    """fam_id's generator on its leading args; qc/qa tails cut at K unchecked."""
    idx = (m, n) if fam_id == "qa" else (n,)
    spec = GeneratorSpec(fam_id, tuple(args[: FAMILY_ARITY[fam_id]]), idx, K)
    return build_generator(spec, None, certify=False).element


# -- commutative-model suite -----------------------------------------------------


def _suite_commutative(cfg: SuiteConfig) -> list:
    model = shipped_model("diffpoly")
    rng = random.Random(cfg.seed)
    per = max(40, cfg.n_samples(250) // 5)
    K = cfg.index_window + 2
    checks = []
    for fam_id in ("i", "d", "e", "qc", "qa"):
        t0 = time.perf_counter()
        witness = None
        done = skipped = 0
        attempts = 0
        while done < per and attempts < 10 * per:
            attempts += 1
            x = _rand_element(model, rng, cfg.max_len, cfg.index_window)
            y = _rand_element(model, rng, cfg.max_len, cfg.index_window)
            z = _rand_element(model, rng, cfg.max_len, cfg.index_window)
            n = rng.randint(-cfg.index_window, cfg.index_window)
            m = rng.randint(-cfg.index_window, cfg.index_window)
            gen = _uncertified(fam_id, (x, y, z), m, n, K)
            try:
                val = model.evaluate_commutative(gen)
            except ModelDegreeError:
                skipped += 1
                continue
            done += 1
            if not val.is_zero():
                witness = to_text(gen)
                break
        checks.append(
            check(
                f"commutative-{fam_id}",
                witness is None,
                millis=_ms(t0),
                samples=done,
                skipped=skipped,
                witness=witness,
            )
        )
    return checks


# -- bridge-identity suite ---------------------------------------------------


_BRIDGE_SLOTS = {
    "e-bridge": ("x", "y"),
    "d-induction": ("x", "y"),
    "i-induction": ("x",),
    "qc-induction": ("x", "y"),
    "qa-m-induction": ("x", "y", "z"),
    "qa-n-induction": ("x", "y", "z"),
    "qc-symmetry": ("x", "y"),
}


def _bridge_args(ident, rng, leaf, window):
    args = {nm: leaf() for nm in _BRIDGE_SLOTS[ident]}
    args["n"] = rng.randint(-window, window)
    if ident.startswith("qa-"):
        args["m"] = rng.randint(-window, window)
    return args


def _suite_borcherds(cfg: SuiteConfig) -> list:
    al = _bridge_alphabet()
    names = [nm for nm in al.names() if al.symbol(nm).kind != "unit"]
    pol = cfg.policy()
    rng = random.Random(cfg.seed)
    per = cfg.n_samples(100)
    leaf = lambda: Element.sym(al, rng.choice(names))
    checks = []
    for ident in _BRIDGE_SLOTS:
        t0 = time.perf_counter()
        witness = None
        for _ in range(per):
            args = _bridge_args(ident, rng, leaf, cfg.index_window)
            lhs, rhs = borcherds_bridge(ident, args, pol)
            if lhs != rhs:
                witness = _witness(lhs, rhs)
                break
        checks.append(
            check(ident, witness is None, millis=_ms(t0), samples=per, witness=witness)
        )

    # the other published reading of the i lowering: fails syntactically,
    # holds under the commutative oracle; reported per the errata contract
    t0 = time.perf_counter()
    syn_fails = 0
    witness = None
    trials = 40
    for k in range(trials):
        args = {"x": leaf(), "n": (k % 7) - 3, "reading": 1}
        lhs, rhs = borcherds_bridge("i-induction", args, pol)
        if lhs != rhs:
            syn_fails += 1
            if witness is None:
                witness = _witness(lhs, rhs)
    model = shipped_model("diffpoly")
    sem_ok = True
    for _ in range(20):
        x = _rand_element(model, rng, 2, 3)
        n = rng.randint(-3, 3)
        lhs, rhs = borcherds_bridge(
            "i-induction", {"x": x, "n": n, "reading": 1}, None,
            K=cfg.trunc_level,
        )
        if model.evaluate_commutative(lhs - rhs).is_zero() is False:
            sem_ok = False
            break
    is_errata = syn_fails > 0 and sem_ok
    accepted = is_errata and "i-induction" in cfg.errata_ok
    checks.append(
        check(
            "i-induction-reading-1",
            syn_fails == 0 or accepted,
            millis=_ms(t0),
            samples=trials,
            syntactic_failures=syn_fails,
            semantic_oracle="pass" if sem_ok else "fail",
            kind="errata-candidate" if is_errata else None,
            witness=witness,
        )
    )
    return checks


# -- commutator suite -----------------------------------------------------------


def _suite_commutator(cfg: SuiteConfig) -> list:
    al = _bridge_alphabet()
    names = [nm for nm in al.names() if al.symbol(nm).kind != "unit"]
    pol = cfg.policy()
    rng = random.Random(cfg.seed)
    per = max(3, cfg.n_samples(48) // 16)
    leaf = lambda: Element.sym(al, rng.choice(names))
    checks = []
    for m in (-1, 0, 1, 2):
        for n in (-1, 0, 1, 2):
            t0 = time.perf_counter()
            witness = None
            for _ in range(per):
                args = {"x": leaf(), "y": leaf(), "z": leaf(), "m": m, "n": n}
                lhs, rhs = borcherds_bridge("commutator", args, pol)
                if lhs != rhs:
                    witness = _witness(lhs, rhs)
                    break
            checks.append(
                check(
                    f"commutator-m{m}-n{n}",
                    witness is None,
                    millis=_ms(t0),
                    samples=per,
                    witness=witness,
                )
            )

    # semantic form of the same decomposition in the polynomial model
    model = shipped_model("diffpoly")
    t0 = time.perf_counter()
    witness = None
    syms = model.sample_symbols()
    mal = model.alphabet
    done = 0
    while done < cfg.n_samples(48):
        x, y, z = (Element.of_term(mal, Leaf(rng.choice(syms))) for _ in range(3))
        m = rng.choice((-1, 0, 1, 2))
        n = rng.choice((-1, 0, 1, 2))
        lhs = x.o(m, y.o(n, z)) - y.o(n, x.o(m, z))
        rhs = Element.zero(mal)
        for k in range(max(m, 0) + 1):
            rhs = rhs + binom(m, k) * x.o(k, y).o(m + n - k, z)
        try:
            d = model.evaluate_commutative(lhs - rhs)
        except ModelDegreeError:
            continue
        done += 1
        if not d.is_zero():
            witness = f"m={m} n={n}: " + to_text(lhs - rhs)
            break
    checks.append(
        check(
            "commutator-semantic-diffpoly",
            witness is None,
            millis=_ms(t0),
            samples=done,
            witness=witness,
        )
    )
    return checks


# -- locality-propagation suite ---------------------------------------------------


def _suite_dong(cfg: SuiteConfig) -> list:
    checks = []
    t0 = time.perf_counter()
    table = {}
    ok = True
    for M in (1, 2, 3):
        for m in (2 * M, 2 * M + 1, 2 * M + 2):
            r = dong_rank(M, m)
            table[f"M{M}-m{m}"] = r
            ok = ok and r == M
    checks.append(check("dong-rank-grid", ok, millis=_ms(t0), ranks=table))

    t0 = time.perf_counter()
    frozen = [[Q(1), Q(4)], [Q(1), Q(3)], [Q(1), Q(2)]]
    got = dong_matrix(2, 4)
    checks.append(
        check(
            "dong-matrix-frozen",
            [list(row) for row in got] == frozen,
            millis=_ms(t0),
            matrix=[[str(v) for v in row] for row in got],
        )
    )

    al = _bridge_alphabet()
    pol = cfg.policy()
    rng = random.Random(cfg.seed)
    names = ("u", "v", "w")
    leaf = lambda nm: Element.sym(al, nm)

    # each matrix row is one commutator decomposition: with both bracket
    # indices past the locality bound the truncated remainder is exactly
    # minus the row
    t0 = time.perf_counter()
    ok = True
    M, m = 3, 7
    x, y, z = leaf("u"), leaf("v"), leaf("w")
    for j in range(M + 1):
        mj, nj = m - j, m - M + j
        lhs = x.o(mj, y.o(nj, z)) - y.o(nj, x.o(mj, z))
        for k in range(mj + 1):
            lhs = lhs - binom(mj, k) * x.o(k, y).o(2 * m - M - k, z)
        row = dong_row(x, y, z, M, m, j)
        if truncate(lhs, pol) != truncate(-1 * row, pol):
            ok = False
            break
    checks.append(check("dong-row-commutator-tie", ok, millis=_ms(t0), M=M, m=m))

    t0 = time.perf_counter()
    dt = DongTable(pol)
    ok = True
    bounds = {}
    for r in range(-3, 3):
        u = x.o(r, y)
        (tree,) = u.terms
        got_bound = dt.bound(tree, Leaf(al.symbol("w")))
        bounds[f"r{r}"] = got_bound
        if got_bound != max(0, 3 * cfg.locality - r):
            ok = False
    checks.append(
        check("dong-derived-locality-table", ok, millis=_ms(t0), bounds=bounds)
    )

    t0 = time.perf_counter()
    ok = True
    detail = {}
    for r in (-1, -2, -3):
        n0 = 3 * cfg.locality - r
        cert = dong_tail_certificate(x, y, z, r, n0, pol)
        detail[f"r{r}"] = cert
        sharp = False
        try:
            dong_tail_certificate(x, y, z, r, n0 - 1, pol)
        except CertificationError:
            sharp = True
        ok = ok and sharp and cert.get("generator") == 1
    checks.append(
        check("dong-tail-certificates", ok, millis=_ms(t0), certificates=detail)
    )
    return checks


# -- projection-injectivity suite ----------------------------------------------


def _suite_injectivity(cfg: SuiteConfig) -> list:
    model = shipped_model("diffpoly")
    rng = random.Random(cfg.seed)
    al = model.alphabet
    syms = model.sample_symbols()
    leaf = lambda: Element.of_term(al, Leaf(rng.choice(syms)))
    checks = []

    t0 = time.perf_counter()
    ok = True
    per = cfg.n_samples(200)
    done = skipped = 0
    while done < per and skipped < 10 * per:
        x = _rand_element(model, rng, 4, 3)
        try:
            once = R_project(x, model, budget=cfg.budget).result
            again = R_project(once, model, budget=cfg.budget).result
        except ModelDegreeError:
            skipped += 1
            continue
        done += 1
        if again != once:
            ok = False
            break
    checks.append(
        check(
            "projection-idempotent", ok, millis=_ms(t0), samples=done, skipped=skipped
        )
    )

    t0 = time.perf_counter()
    ok = all(
        R_project(Element.sym(al, nm), model).result == Element.sym(al, nm)
        for nm in al.names()
    )
    checks.append(check("projection-fixes-leaves", ok, millis=_ms(t0)))

    t0 = time.perf_counter()
    witness = None
    per_fam = max(40, cfg.n_samples(200) // 5)
    K = cfg.index_window + 2
    count = skipped = 0
    for fam_id in ("i", "d", "e", "qc", "qa"):
        for _ in range(per_fam):
            n = rng.randint(-cfg.index_window, cfg.index_window)
            m = rng.randint(-cfg.index_window, cfg.index_window)
            args = [leaf() for _ in range(FAMILY_ARITY[fam_id])]
            gen = _uncertified(fam_id, args, m, n, K)
            try:
                image = R_project(gen, model, budget=cfg.budget).result
            except ModelDegreeError:
                skipped += 1
                continue
            count += 1
            if not length_one_component(image).is_zero():
                witness = f"{fam_id}: " + to_text(image)
                break
        if witness:
            break
    checks.append(
        check(
            "generator-images-no-length-one",
            witness is None,
            millis=_ms(t0),
            samples=count,
            skipped=skipped,
            witness=witness,
        )
    )

    # the published image table's n=0 row under its string reading vs the
    # structural projection; structural wins, recorded as a variant
    t0 = time.perf_counter()
    gen = fam_d(Element.sym(al, "b"), Element.sym(al, "b2"), 0)
    image = R_project(gen, model).result
    checks.append(
        check(
            "display-variant-n0-row",
            length_one_component(image).is_zero(),
            millis=_ms(t0),
            kind="display-variant",
            structural_image=to_text(image),
        )
    )
    return checks


# -- module-law suite ------------------------------------------------------------


def _suite_souped(cfg: SuiteConfig) -> list:
    checks = []
    per = cfg.n_samples(100)
    for name in ("diffpoly", "weyl1", "current2", "current3"):
        model = shipped_model(name)
        checks.extend(
            _batch(f"{name}-", validate_model, model, pair_cap=40, case_cap=200)
        )
        t0 = time.perf_counter()
        laws = check_module_laws(
            model, policy=cfg.policy(), samples=per, seed=cfg.seed
        )
        counts = ("law1_reduced", "law1_exact", "law2_reduced", "law2_exact", "skipped")
        checks.append(
            check(
                f"{name}-module-laws",
                laws["status"] == "pass",
                millis=_ms(t0),
                samples=per,
                counts={k: laws[k] for k in counts},
                witness=str(laws["failures"][:2]) if laws["failures"] else None,
            )
        )
    return checks


# -- collapse suite ---------------------------------------------------------------


def _suite_collapse(cfg: SuiteConfig) -> list:
    checks = _batch("", right_mult_checks, levels=(2, 3, 6), budget=cfg.budget)
    for N in (1, 2):
        checks.extend(
            _batch("", punctured_checks, N, level=max(N + 6, cfg.trunc_level))
        )
    return checks


# -- functor suite ----------------------------------------------------------------


def _suite_functor(cfg: SuiteConfig) -> list:
    checks = []
    per = cfg.n_samples(100)
    for name in ("diffpoly", "weyl1"):
        model = shipped_model(name)
        phi, psi = shipped_morphisms(model)
        for mor in (phi, psi):
            checks.extend(_batch(f"{name}-{mor.name}-", validate_morphism, mor))
        t0 = time.perf_counter()
        laws = _functor_laws(phi, psi, samples=per, seed=cfg.seed)
        checks.append(
            check(
                f"functor-laws-{name}",
                laws["status"] == "pass",
                millis=_ms(t0),
                samples=per,
                counts=laws["counts"],
                skipped=laws["skipped"],
                witness=str(laws["failures"][:2]) if laws["failures"] else None,
            )
        )
    return checks


# -- sheaf suite ------------------------------------------------------------------


def _tagged_pool(ctx, cover):
    """Leaf symbols for random tagged elements: the declared sections,
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
    al = ctx.alphabet

    def tree(length):
        if length == 1:
            return Element.of_term(al, Leaf(rng.choice(pool)))
        split = rng.randrange(1, length)
        return tree(split).o(rng.randint(-3, 3), tree(length - split))

    return tree(rng.randint(1, max_len))


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


def _suite_sheaf(cfg: SuiteConfig) -> list:
    rng = random.Random(cfg.seed)
    checks = []
    covers = {"two": make_cover_two(), "three": make_cover_three()}

    ctx, cover = covers["two"]
    pool = _tagged_pool(ctx, cover)
    al = ctx.alphabet

    t0 = time.perf_counter()
    ok = True
    per = cfg.n_samples(40)
    for _ in range(per):
        x = _rand_tagged(ctx, pool, rng, 4)
        p = pi(x, ctx)
        if pi(p, ctx) != p or pi(k_generator(x, ctx), ctx) != Element.zero(al):
            ok = False
            break
    checks.append(check("projection-idempotent", ok, millis=_ms(t0), samples=per))

    # all-or-nothing on instances over two distinct sections; same-base
    # windowed pairs can cancel class-by-class and are a different statement
    t0 = time.perf_counter()
    ok = True
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
        args = [Element.of_term(al, Leaf(sa)), Element.of_term(al, Leaf(sb))]
        n = rng.randint(-3, 3)
        fam = "d" if trial < len(forced) else rng.choice(("i", "d", "e", "qc"))
        spec = GeneratorSpec(fam, tuple(args[: FAMILY_ARITY[fam]]), (n,))
        gen = build_generator(spec, pol).element
        p = pi(gen, ctx)
        if p == gen:
            keeps += 1
        elif p.is_zero():
            kills += 1
        else:
            ok = False
            break
    ok = ok and kills > 0 and keeps > 0
    checks.append(
        check("generator-all-or-nothing", ok, millis=_ms(t0), kept=keeps, killed=kills)
    )

    for tag, (ctx_i, cover_i) in covers.items():
        t0 = time.perf_counter()
        ok = True
        names = ("f", "g", "h")
        per_patch = max(10, cfg.n_samples(25))
        for p in cover_i:
            for _ in range(per_patch):
                x = _rand_windowed(ctx_i, names, p.window, rng, 5)
                if not bump_support_check(p.sigma, x, p.window, p.core, ctx_i):
                    ok = False
                    break
            if not ok:
                break
        checks.append(
            check(
                f"bump-difference-inclusion-{tag}",
                ok,
                millis=_ms(t0),
                per_patch=per_patch,
            )
        )

        t0 = time.perf_counter()
        ok = True
        for p in cover_i:
            for n in (-2, -1, 0, 2):
                x = _rand_windowed(ctx_i, names, p.window, rng, 4)
                if not rho_transfer_check(p.rho, p.sigma, x, n, ctx_i):
                    ok = False
                    break
            x_glob = _rand_tagged(ctx_i, _tagged_pool(ctx_i, cover_i), rng, 3)
            if not rho_transfer_check(p.rho, p.sigma, x_glob, -1, ctx_i):
                ok = False
            if not ok:
                break
        checks.append(check(f"core-weight-transfer-{tag}", ok, millis=_ms(t0)))

        t0 = time.perf_counter()
        sub = []
        for trial in range(3):
            gl_names = ("f",) if trial == 0 else ("f", "g", "h")
            glob = _rand_tagged(
                ctx_i, [ctx_i.alphabet.symbol(nm) for nm in gl_names], rng, 3
            )
            secs = [restrict(glob, p.window, ctx_i) for p in cover_i]
            sub.extend(sheaf_axiom_check(cover_i, secs, ctx_i))
        bad = [c["id"] for c in sub if c["status"] == "fail"]
        checks.append(
            check(
                f"existence-chain-{tag}",
                not bad,
                millis=_ms(t0),
                hops=len(sub),
                failing=bad[:6],
            )
        )

    t0 = time.perf_counter()
    ok = True
    per = cfg.n_samples(20)
    for _ in range(per):
        z = k_generator(_rand_tagged(ctx, pool, rng, 4), ctx)
        if not (
            semantic_support(z, ctx).is_empty()
            and pi(z, ctx) == Element.zero(al)
            and k_generator(z, ctx) == z
        ):
            ok = False
            break
    checks.append(check("uniqueness-kernel-probes", ok, millis=_ms(t0), samples=per))
    return checks


# -- geometry suite ---------------------------------------------------------------


def _suite_geometry(cfg: SuiteConfig) -> list:
    checks = []
    for name in ("derham1", "derham2_b2", "derham2_lin"):
        checks.extend(
            _batch(f"{name}-", classical_geometry_checks, shipped_model(name))
        )
    return checks


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


def run_suite(suite_id: str, config: SuiteConfig = None, **kw) -> dict:
    """Execute one suite and return its report dict.

    Checks are sorted by id.  Overall status: fail if any check failed,
    else budget if any check was budget-limited, else pass.
    """
    if config is None:
        config = SuiteConfig(suite=suite_id, **kw)
    if config.suite != suite_id:
        raise ValueError("config.suite does not match suite_id")
    t0 = time.perf_counter()
    checks = sorted(_DISPATCH[suite_id](config), key=lambda c: c["id"])
    statuses = {c["status"] for c in checks}
    status = "fail" if "fail" in statuses else (
        "budget" if "budget" in statuses else "pass"
    )
    cfg = asdict(config)
    cfg["errata_ok"] = list(cfg["errata_ok"])
    return {
        "suite": suite_id,
        "config": cfg,
        "status": status,
        "counts": {
            "pass": sum(c["status"] == "pass" for c in checks),
            "fail": sum(c["status"] == "fail" for c in checks),
            "budget": sum(c["status"] == "budget" for c in checks),
        },
        "checks": checks,
        "millis": _ms(t0),
    }


def emit_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")


def exit_status(reports) -> int:
    """0 iff no check in any report has status fail."""
    if isinstance(reports, dict):
        reports = [reports]
    return 1 if any(r["status"] == "fail" for r in reports) else 0
