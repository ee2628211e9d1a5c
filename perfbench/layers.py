"""Which functions the traced run wraps, and the per-layer metrics it
derives from their spans and counts.

Metric names are "<module>.<function>.<quantity>", using vertexalg's
module names for the layers.  ``calls`` counts calls, ``self_s`` is
seconds inside the function but outside any other wrapped function,
``out_terms`` sums the terms of the returned elements.
"""

import statistics

from tracer import Target

T = "vertexalg.terms:Element."
G = "vertexalg.generators:"
R = "vertexalg.rewrite:"
B = "vertexalg.models.base:"
P = "vertexalg.models.polys:"
S = "vertexalg.sheaf:"

TARGETS = (
    # terms
    Target("terms.Element.o", T + "o", "out_terms"),
    Target("terms.Element.add", T + "__add__", "out_terms"),
    Target("terms.Element.init", T + "__init__", "init"),
    Target("terms.Element.D_pow", T + "D_pow"),
    Target("terms.Element.eq", T + "__eq__"),
    # generators
    Target("generators.fam_qc", G + "fam_qc", "out_terms"),
    Target("generators.fam_qa", G + "fam_qa", "out_terms"),
    Target("generators.truncate", G + "truncate", "truncate"),
    # bridges
    Target("bridges.borcherds_bridge", "vertexalg.bridges:borcherds_bridge",
           keep_durations=True),
    # rewrite
    Target("rewrite.reduce_element", R + "reduce_element", "report"),
    Target("rewrite.R_project", R + "R_project", "report"),
    # models.base
    Target("models.base.Model.bracket", B + "Model.bracket"),
    Target("models.base.Model.mul", B + "Model.mul"),
    Target("models.base.Model.act", B + "Model.act"),
    Target("models.base.Model.evaluate_commutative", B + "Model.evaluate_commutative"),
    Target("models.base.validate_model", B + "validate_model"),
    Target("models.base.check_module_laws", B + "check_module_laws"),
    # models.morphisms
    Target("models.morphisms.Morphism.apply",
           "vertexalg.models.morphisms:Morphism.apply", "out_terms",
           keep_durations=True),
    Target("models.morphisms.validate_morphism",
           "vertexalg.models.morphisms:validate_morphism"),
    # models.polys
    Target("models.polys.Poly1.mul", P + "Poly1.__mul__"),
    Target("models.polys.Poly2.mul", P + "Poly2.__mul__"),
    Target("models.polys.Poly2.add", P + "Poly2.__add__"),
    Target("models.polys.PolyVars.mul", P + "PolyVars.__mul__"),
    # models.geometry
    Target("models.geometry.classical_geometry_checks",
           "vertexalg.models.geometry:classical_geometry_checks"),
    Target("models.geometry.Op.commutator", "vertexalg.models.geometry:Op.commutator"),
    # sheaf and intervals
    Target("sheaf.semantic_support", S + "semantic_support"),
    Target("sheaf.pi", S + "pi"),
    Target("sheaf.restrict", S + "restrict"),
    Target("sheaf.sheaf_axiom_check", S + "sheaf_axiom_check"),
    Target("intervals.SupportSet.intersect", "vertexalg.intervals:SupportSet.intersect"),
    # collapse
    Target("collapse.right_mult_checks", "vertexalg.collapse:right_mult_checks"),
    Target("collapse.punctured_checks", "vertexalg.collapse:punctured_checks"),
    # models.factory: models are collected to read their table caches
    Target("models.factory.shipped_model", "vertexalg.models.factory:shipped_model", "model"),
    # suites: the outermost span, so every traced second lands in some span
    Target("suites.run_suite", "vertexalg.suites:run_suite"),
)

TABLE = ("models.base.Model.bracket", "models.base.Model.mul", "models.base.Model.act")

# (target, quantities) for the plain metrics
PLAIN = (
    ("terms.Element.o", ("calls", "self_s", "out_terms")),
    ("terms.Element.add", ("calls", "self_s", "out_terms")),
    ("terms.Element.init", ("calls", "self_s", "out_terms")),
    ("terms.Element.D_pow", ("calls", "self_s")),
    ("terms.Element.eq", ("calls", "self_s")),
    ("generators.fam_qc", ("calls", "self_s", "out_terms")),
    ("generators.fam_qa", ("calls", "self_s", "out_terms")),
    ("generators.truncate", ("calls", "self_s")),
    ("bridges.borcherds_bridge", ("calls", "self_s")),
    ("rewrite.reduce_element", ("calls", "self_s")),
    ("rewrite.R_project", ("calls", "self_s")),
    ("models.base.Model.evaluate_commutative", ("calls", "self_s")),
    ("models.base.validate_model", ("self_s",)),
    ("models.base.check_module_laws", ("self_s",)),
    ("models.morphisms.Morphism.apply", ("calls", "self_s", "out_terms")),
    ("models.morphisms.validate_morphism", ("self_s",)),
    ("models.polys.Poly1.mul", ("calls", "self_s")),
    ("models.polys.Poly2.mul", ("calls", "self_s")),
    ("models.polys.Poly2.add", ("calls", "self_s")),
    ("models.polys.PolyVars.mul", ("calls", "self_s")),
    ("models.geometry.classical_geometry_checks", ("self_s",)),
    ("models.geometry.Op.commutator", ("calls", "self_s")),
    ("sheaf.semantic_support", ("calls", "self_s")),
    ("sheaf.pi", ("calls", "self_s")),
    ("sheaf.restrict", ("calls", "self_s")),
    ("sheaf.sheaf_axiom_check", ("calls", "self_s")),
    ("intervals.SupportSet.intersect", ("calls", "self_s")),
    ("collapse.right_mult_checks", ("self_s",)),
    ("collapse.punctured_checks", ("self_s",)),
    ("models.factory.shipped_model", ("calls", "self_s")),
    ("suites.run_suite", ("self_s",)),
)

UNITS = {"calls": "count", "self_s": "s", "out_terms": "count"}

# per-call latency spreads, where the slow cases sit
SPREAD = ("models.morphisms.Morphism.apply", "bridges.borcherds_bridge")

SWEEP_LEVELS = (8, 12, 16)
SWEEP_GENERATORS = ("generators.fam_qc", "generators.fam_qa", "generators.truncate")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _quantiles(values):
    """(p50, p90, max) of per-call seconds; zeros when there are none."""
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8], max(values)


def terms_self_s(stats) -> float:
    return sum(st.self_s for name, st in stats.items() if name.startswith("terms."))


def layer_metrics(tracer) -> dict:
    """name -> (value, unit) for one traced batch."""
    st = tracer.stats
    out = {}
    for name, quantities in PLAIN:
        for q in quantities:
            out[f"{name}.{q}"] = (getattr(st[name], q), UNITS[q])
    out["terms.peak_element_terms"] = (tracer.peak_element_terms, "count")
    out["terms.self_share"] = (
        _ratio(terms_self_s(st), sum(s.self_s for s in st.values())),
        "ratio",
    )

    tr = st["generators.truncate"]
    out["generators.truncate.kept_ratio"] = (_ratio(tr.out_terms, tr.in_terms), "ratio")

    red, proj = st["rewrite.reduce_element"], st["rewrite.R_project"]
    out["rewrite.reduce_element.normal_form_ratio"] = (
        _ratio(red.normal_forms, red.calls), "ratio")
    out["rewrite.reduce_element.steps"] = (red.steps, "count")
    out["rewrite.R_project.normal_form_ratio"] = (
        _ratio(proj.normal_forms, proj.calls), "ratio")
    out["rewrite.R_project.passes"] = (proj.steps, "count")

    table_calls = sum(st[n].calls for n in TABLE)
    cache_growth = sum(len(m._cache) for m in tracer.models)
    out["models.base.Model.table.calls"] = (table_calls, "count")
    out["models.base.Model.table.hit_ratio"] = (
        _ratio(table_calls - cache_growth, table_calls), "ratio")
    ev = st["models.base.Model.evaluate_commutative"]
    out["models.base.Model.evaluate_commutative.degree_skips"] = (
        ev.errors.get("ModelDegreeError", 0), "count")

    for name in SPREAD:
        p50, p90, top = _quantiles(st[name].durations)
        out[f"{name}.p50_s"] = (p50, "s")
        out[f"{name}.p90_s"] = (p90, "s")
        out[f"{name}.max_s"] = (top, "s")
        out[f"{name}.samples"] = (len(st[name].durations), "count")
    return out


def sweep_metrics(level: int, untraced_s: float, tracer) -> dict:
    """Per-layer rows for one trunc level of the borcherds K sweep."""
    st = tracer.stats
    pre = f"sweep.borcherds.K{level}"
    return {
        f"{pre}.verify_s": (untraced_s, "s"),
        f"{pre}.terms.self_s": (terms_self_s(st), "s"),
        f"{pre}.generators.self_s": (
            sum(st[n].self_s for n in SWEEP_GENERATORS), "s"),
        f"{pre}.Element.init.calls": (st["terms.Element.init"].calls, "count"),
        f"{pre}.peak_element_terms": (tracer.peak_element_terms, "count"),
    }
