"""Batch command-line front end.

Subcommands: reduce, gen, grade, support, sheaf, verify, models.  All
output is plain text on stdout; `verify --report` additionally writes a
JSON report.  Exit status is 0 unless a check fails or the invocation
is unusable.
"""

import argparse
import re
import sys
from fractions import Fraction as Q

from .generators import (
    FAMILIES,
    CertificationError,
    TruncationPolicy,
    build_generator,
)
from .models.base import ModelDegreeError
from .models.factory import load_model, shipped_model, shipped_model_names
from .models.morphisms import shipped_morphisms
from .parsing import ParseError, parse, to_text, tokens
from .rewrite import RULE_ORDER, UNIT_RULES, RuleSet, reduce_element
from .sheaf import (
    SupportError,
    load_cover,
    restrict,
    semantic_support,
    sheaf_axiom_check,
    support,
)
from .suites import SUITE_IDS, SuiteConfig, emit_report, run_suite
from .terms import Alphabet, Symbol, grade

_LIE_NAME = re.compile(r"^g[0-9]*$")


def _parse_assignments(text, cast):
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        name, _, value = piece.partition("=")
        if not value:
            raise ValueError(f"expected name=value, got {piece!r}")
        out[name.strip()] = cast(value.strip())
    return out


def free_alphabet(texts, degrees=None, parities=None) -> Alphabet:
    """Alphabet for model-less terms: each identifier the parser would
    read is declared on sight.

    Names g, g1, g2, ... are degree-1 Lie slots by convention (matching
    the usual letter for the Lie part); everything else is a degree-0
    generic symbol.  --degrees / --parities entries override both.
    """
    degrees = degrees or {}
    parities = parities or {}
    al = Alphabet()
    for text in texts:
        for kind, name, _ in tokens(text):
            if kind != "ident" or al.has(name):
                continue
            if name in degrees or name in parities:
                deg = degrees.get(name, Q(0))
                par = parities.get(name, 0)
                al.add(Symbol(name, par, deg, "generic"))
            elif _LIE_NAME.match(name):
                al.add(Symbol(name, 0, Q(1), "lie"))
            else:
                al.add(Symbol(name, 0, Q(0), "generic"))
    return al


def _get_model(name):
    if name is None:
        return None
    if name.endswith(".json"):
        return load_model(name)
    return shipped_model(name)


def _element(text, model=None, alphabet=None, degrees=None, parities=None):
    if alphabet is None:
        alphabet = model.alphabet if model else free_alphabet(
            [text], degrees, parities
        )
    return parse(text, alphabet)


def _policy(ns) -> TruncationPolicy:
    return TruncationPolicy(
        default_locality=ns.locality, level=max(ns.trunc, ns.locality)
    )


# -- subcommands -----------------------------------------------------------------


def _cmd_reduce(ns) -> int:
    model = _get_model(ns.model)
    x = _element(ns.term, model)
    policy = None if ns.locality is None else TruncationPolicy(ns.locality)
    if ns.rules:
        enabled = tuple(r.strip() for r in ns.rules.split(","))
    else:
        enabled = None if model is not None else UNIT_RULES
    rules = RuleSet(model, policy, enabled)
    report = reduce_element(x, rules, budget=ns.budget)
    print(to_text(report.result))
    print(f"steps: {report.steps}")
    print(f"status: {report.status}")
    return 0


def _cmd_gen(ns) -> int:
    name, fam = ns.family, FAMILIES[ns.family]
    model = _get_model(ns.model)
    context = None
    if "context" in fam.needs:
        if not ns.cover:
            raise ValueError(f"{name}-family needs --cover")
        context, _ = load_cover(ns.cover)
        alphabet = context.alphabet
    elif model is not None:
        alphabet = model.alphabet
    elif "model" in fam.needs:
        raise ValueError(f"{name}-family needs --model")
    else:
        alphabet = free_alphabet(ns.args, _parse_assignments(ns.degrees, Q),
                                 _parse_assignments(ns.parities, int))
    args = tuple(parse(t, alphabet) for t in ns.args)
    given = {"m": ns.m, "n": ns.n}
    indices = tuple(given[nm] for nm in fam.indices)
    if None in indices:
        flags = " and ".join(f"--{nm}" for nm in fam.indices)
        raise ValueError(f"family {name} needs {flags}")
    el = build_generator(name, args, indices, _policy(ns), K=ns.k_bound,
                         model=model, context=context)
    print(to_text(el))
    g = grade(el)
    print(f"degree: {g.degree if g.degree is not None else 'mixed'}")
    return 0


def _cmd_grade(ns) -> int:
    model = _get_model(ns.model)
    x = _element(ns.term, model,
                 degrees=_parse_assignments(ns.degrees, Q),
                 parities=_parse_assignments(ns.parities, int))
    g = grade(x)
    print(f"degree: {g.degree if g.degree is not None else 'mixed'}")
    print(f"lengths: {', '.join(str(n) for n in g.lengths) or 'none'}")
    print(f"shapes: {len(set(g.shape_keys))}")
    return 0


def _cmd_support(ns) -> int:
    context, _ = load_cover(ns.cover)
    x = parse(ns.term, context.alphabet)
    print(f"support: {support(x, context)}")
    print(f"semantic: {semantic_support(x, context)}")
    return 0


def _cmd_sheaf(ns) -> int:
    context, cover = load_cover(ns.cover)
    if ns.global_section:
        glob = parse(ns.global_section, context.alphabet)
        sections = [restrict(glob, p.window, context) for p in cover]
    elif ns.sections:
        if len(ns.sections) != len(cover):
            raise ValueError(
                f"cover has {len(cover)} patches, got {len(ns.sections)} sections"
            )
        sections = [parse(t, context.alphabet) for t in ns.sections]
    else:
        raise ValueError("sheaf check needs --sections or --global")
    results = sheaf_axiom_check(cover, sections, context)
    failed = 0
    for r in results:
        ok = r["status"] == "pass"
        detail = f"  ({r['detail']})" if r.get("detail") else ""
        print(f"{'ok  ' if ok else 'FAIL'} {r['id']}{detail}")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_verify(ns) -> int:
    suites = list(dict.fromkeys(
        SUITE_IDS if "all" in ns.suites else ns.suites
    ))
    reports = []
    for sid in suites:
        cfg = SuiteConfig(
            suite=sid,
            trunc_level=ns.trunc,
            locality=ns.locality,
            max_len=ns.max_len,
            index_window=ns.index_window,
            samples=ns.samples,
            seed=ns.seed,
            budget=ns.budget,
        )
        rep = run_suite(sid, cfg)
        reports.append(rep)
        for c in rep["checks"]:
            line = f"{c['status']:6s} {sid}:{c['id']} ({c.get('millis', 0)} ms)"
            if c["status"] == "fail" and c.get("witness"):
                line += f"\n       witness: {c['witness']}"
            print(line)
        print(f"suite {sid}: {rep['status']} "
              f"({rep['counts']['pass']} pass, {rep['counts']['fail']} fail)")
    failed = any(r["status"] == "fail" for r in reports)
    if ns.report:
        payload = reports[0] if len(reports) == 1 else {
            "suites": reports,
            "status": "fail" if failed else "pass",
        }
        emit_report(payload, ns.report)
        print(f"report written to {ns.report}")
    return 1 if failed else 0


def _cmd_models(ns) -> int:
    for name in shipped_model_names():
        model = shipped_model(name)
        kinds = sorted({s.kind for s in model.symbols()})
        line = f"{name}: {len(model.symbols())} symbols ({', '.join(kinds)})"
        try:
            phi, psi = shipped_morphisms(model)
            line += f"; morphisms {phi.name}, {psi.name}"
        except (KeyError, ValueError):
            pass
        print(line)
    return 0


# -- argument wiring ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="vertexalg",
        description="Exact symbolic checks for the tree-product algebra, "
        "its ideal generators, concrete models, and interval sheaves.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common_policy(p):
        p.add_argument("--locality", type=int, default=3,
                       help="locality constant (default 3)")
        p.add_argument("--trunc", type=int, default=8,
                       help="truncation level (default 8)")

    p = sub.add_parser("reduce", help="rewrite a term to normal form")
    p.add_argument("term")
    p.add_argument("--model", help="shipped model name or a .json file")
    p.add_argument("--rules", help="comma-separated rule names "
                   f"(from: {', '.join(RULE_ORDER)})")
    p.add_argument("--budget", type=int, default=10000,
                   help="rule firings allowed")
    p.add_argument("--locality", type=int,
                   help="truncate under this locality constant before the "
                   "first pass and after every pass (default: no truncation)")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("gen", help="build one ideal-generator instance")
    p.add_argument("family", choices=tuple(FAMILIES))
    p.add_argument("--args", action="append", default=[],
                   help="argument term (repeat per slot)")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k-bound", type=int, dest="k_bound",
                   help="series bound for qc/qa tails, at least the certified one")
    p.add_argument("--model")
    p.add_argument("--cover", help="cover file (k family)")
    p.add_argument("--degrees", help="free-symbol degrees, e.g. g=1,a=0")
    p.add_argument("--parities", help="free-symbol parities, e.g. p=1")
    common_policy(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("grade", help="degree, lengths, and shapes of a term")
    p.add_argument("term")
    p.add_argument("--model")
    p.add_argument("--degrees", help="free-symbol degrees, e.g. g=1,a=0")
    p.add_argument("--parities")
    p.set_defaults(fn=_cmd_grade)

    p = sub.add_parser("support", help="support of a tagged term under a cover")
    p.add_argument("term")
    p.add_argument("--cover", required=True)
    p.set_defaults(fn=_cmd_support)

    p = sub.add_parser("sheaf", help="sheaf-axiom checks over a cover")
    p.add_argument("action", choices=("check",))
    p.add_argument("--cover", required=True)
    p.add_argument("--sections", action="append",
                   help="one section term per patch, in patch order")
    p.add_argument("--global", dest="global_section",
                   help="a single global term; sections are its restrictions")
    p.set_defaults(fn=_cmd_sheaf)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="+", choices=SUITE_IDS + ("all",))
    p.add_argument("--max-len", type=int, default=3, dest="max_len")
    p.add_argument("--index-window", type=int, default=4, dest="index_window")
    p.add_argument("--samples", type=int, default=0,
                   help="per-check sample count (0 = suite default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=20000,
                   help="rule firings per reduction or projection")
    p.add_argument("--report", help="write a JSON report here")
    common_policy(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("models", help="list shipped models")
    p.set_defaults(fn=_cmd_models)

    return top


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.fn(ns)
    except (ParseError, SupportError, CertificationError, ModelDegreeError,
            ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
