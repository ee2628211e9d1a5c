"""The benchmark's workloads: fixed batches of ``run_suite`` calls.

A workload turns the run's ``--seed`` into a batch of suite calls, each
with a pinned ``SuiteConfig``; the same seed always gives the same batch.
Every call runs in-process and single-threaded, exactly the path of
``vertexalg verify <suite>`` without the printing.

Each layer the roadmap plans to optimise does most of its work in one
workload and almost none in another:

- deep-tails: the term layer on deep trees with few terms
  (qc/qa tails and D^k towers at trunc 16);
- wide-maps: the term layer on shallow trees with many terms
  (morphism images expanded and accumulated);
- forms-sheaf: polynomial, form and interval-sheaf arithmetic, with the
  term layer nearly idle, so term-core changes should not move it;
- rewrite: the two rewrite engines and the model tables.

This module imports nothing from vertexalg at import time, so the set-up
probe can read a workload's model list before the package is imported.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    suite: str
    config: tuple  # (key, value) pairs for SuiteConfig, besides suite

    def suite_config(self):
        from vertexalg.suites import SuiteConfig

        return SuiteConfig(suite=self.suite, **dict(self.config))


def call(suite: str, **config) -> Call:
    return Call(suite, tuple(sorted(config.items())))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    models: tuple  # shipped models the batch builds
    covers: bool  # whether the batch builds the sheaf covers
    plan: object  # seed -> list of Call


def _sub_seeds(name: str, seed: int, count: int) -> list:
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


# -- deep-tails ---------------------------------------------------------------

DEEP_TRUNC = 16
DEEP_BORCHERDS_CALLS = 2
DEEP_BORCHERDS_SAMPLES = 6
DEEP_COMMUTATOR_SAMPLES = 16


def _deep_tails(seed: int) -> list:
    *subs, s2 = _sub_seeds("deep-tails", seed, DEEP_BORCHERDS_CALLS + 1)
    return [
        call("borcherds", trunc_level=DEEP_TRUNC,
             samples=DEEP_BORCHERDS_SAMPLES, seed=s1)
        for s1 in subs
    ] + [
        call("commutator", trunc_level=DEEP_TRUNC,
             samples=DEEP_COMMUTATOR_SAMPLES, seed=s2),
    ]


# -- wide-maps ----------------------------------------------------------------

# The functor suite draws its first random element from Random(seed) with
# morphisms.random_element; its cost grows with the square of the number
# of terms the composite morphism expands that element into.  That size
# is heavy-tailed (median 20 terms, 99th percentile about 1000), so a
# plain sample of seeds gives a batch time that swings several-fold from
# seed to seed.  Instead each batch takes WIDE_CALLS one-sample calls at
# the midpoints of WIDE_CALLS equal-count size strata of a seeded pool:
# every batch holds the same mix of small and large expansions, and the
# seed picks which elements.  Elements that expand past WIDE_CAP terms
# in either model (about 5% of draws) are left out, because one of them
# alone can outlast a whole run.
WIDE_POOL = 1500
WIDE_CALLS = 30
WIDE_CAP = 420
WIDE_MODELS = ("diffpoly", "weyl1")


def expansion_sizes():
    """Per model: (model, {symbol name: terms in its composite image})."""
    from vertexalg.models.factory import shipped_model
    from vertexalg.models.morphisms import shipped_morphisms

    out = []
    for name in WIDE_MODELS:
        model = shipped_model(name)
        phi, psi = shipped_morphisms(model)
        comp = phi.compose(psi)
        out.append(
            (model, {s.name: len(comp.image_of_symbol(s)) for s in model.symbols()})
        )
    return out


def predicted_expansion(model, sizes: dict, sub_seed: int) -> int:
    """Terms of the composite image of the element functor_laws draws
    first for this seed: the product of its leaves' image sizes."""
    from vertexalg.models.morphisms import random_element
    from vertexalg.terms import leaves

    (tree,) = random_element(model, random.Random(sub_seed)).terms
    out = 1
    for sym in leaves(tree):
        out *= sizes[sym.name]
    return out


def _wide_maps(seed: int) -> list:
    per_model = expansion_sizes()
    pool = []
    for sub in _sub_seeds("wide-maps", seed, WIDE_POOL):
        sizes = [predicted_expansion(m, sz, sub) for m, sz in per_model]
        if max(sizes) <= WIDE_CAP:
            pool.append((sum(p * p for p in sizes), sub))
    pool.sort()
    picks = [
        pool[(2 * i + 1) * len(pool) // (2 * WIDE_CALLS)][1]
        for i in range(WIDE_CALLS)
    ]
    return [call("functor", samples=1, seed=sub) for sub in picks]


# -- forms-sheaf --------------------------------------------------------------

SHEAF_SAMPLES = 40


def _forms_sheaf(seed: int) -> list:
    (s1,) = _sub_seeds("forms-sheaf", seed, 1)
    return [call("geometry", seed=s1), call("sheaf", samples=SHEAF_SAMPLES, seed=s1)]


# -- rewrite ------------------------------------------------------------------

INJECTIVITY_SAMPLES = 400
SOUPED_SAMPLES = 200


def _rewrite(seed: int) -> list:
    s1, s2 = _sub_seeds("rewrite", seed, 2)
    return [
        call("injectivity", samples=INJECTIVITY_SAMPLES, seed=s1),
        call("souped", samples=SOUPED_SAMPLES, seed=s2),
        call("collapse", seed=s1),
    ]


# -- the K sweep of the traced run ----------------------------------------------

SWEEP_SAMPLES = 4


def sweep_batch(seed: int, level: int) -> list:
    """borcherds at one trunc level, for the traced run's K sweep."""
    (s1,) = _sub_seeds("sweep", seed, 1)
    return [call("borcherds", trunc_level=level, samples=SWEEP_SAMPLES, seed=s1)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deep-tails",
            "few-term deep trees: qc/qa tails and D^k towers at trunc 16 "
            "load term hashing, Element.o/add and the generator builders",
            ("diffpoly",),
            False,
            _deep_tails,
        ),
        Workload(
            "wide-maps",
            "many-term shallow trees: Morphism.apply expands symbol images, "
            "loading Element add accumulation and Fraction arithmetic",
            WIDE_MODELS,
            False,
            _wide_maps,
        ),
        Workload(
            "forms-sheaf",
            "polynomial, form and sheaf arithmetic with the term layer "
            "nearly idle; term-core changes should leave it unchanged",
            ("derham1", "derham2_b2", "derham2_lin"),
            True,
            _forms_sheaf,
        ),
        Workload(
            "rewrite",
            "R_project, reduce_element and the model tables carry enough of "
            "the time that a rewrite-engine change shows",
            ("diffpoly", "weyl1", "current2", "current3"),
            False,
            _rewrite,
        ),
    )
}
