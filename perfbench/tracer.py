"""Spans and counts at the public boundaries of vertexalg's layers.

The tracer wraps functions and methods from outside the package: it
replaces every binding of each target (the defining module, every
module that bound it with ``from ... import``, and every alias in a
class body) with a wrapper, and puts each original back on exit.  A
wrapper records one span per call; a span's self time is its duration
minus the durations of the wrapped spans that ran inside it.

    with Tracer(TARGETS) as tr:
        run_the_batch()
    tr.stats["terms.Element.o"].self_s

Nothing here imports vertexalg at module level; targets are resolved
when the tracer is installed.
"""

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "vertexalg"
MARK = "__perfbench_wrapped__"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    in_terms: int = 0
    out_terms: int = 0
    steps: int = 0
    normal_forms: int = 0
    errors: dict = field(default_factory=dict)
    durations: list = None  # per-call inclusive seconds, when kept


@dataclass(frozen=True)
class Target:
    """One traced function: ``where`` is "module:attr" or
    "module:Class.attr"; ``post`` is one of the count hooks below."""

    name: str
    where: str
    post: str = None
    keep_durations: bool = False


# count hooks: (tracer, stat, args, result) -> None -------------------------


def _post_out_terms(tr, stat, args, out):
    stat.out_terms += len(out.terms)


def _post_init(tr, stat, args, out):
    n = len(args[0].terms)
    stat.out_terms += n
    if n > tr.peak_element_terms:
        tr.peak_element_terms = n


def _post_truncate(tr, stat, args, out):
    stat.in_terms += len(args[0].terms)
    stat.out_terms += len(out.terms)


def _post_report(tr, stat, args, out):
    stat.steps += out.steps
    stat.normal_forms += out.status == "normal-form"


def _post_model(tr, stat, args, out):
    tr.models.append(out)


POSTS = {
    "out_terms": _post_out_terms,
    "init": _post_init,
    "truncate": _post_truncate,
    "report": _post_report,
    "model": _post_model,
}


def _resolve(where: str):
    """(owner, attr, original) for "module:attr" or "module:Class.attr";
    the attribute must be defined on the owner itself, not inherited."""
    modname, _, path = where.partition(":")
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    if not inspect.isfunction(original):
        raise TypeError(f"{where} is not a plain function")
    return owner, attr, original


def package_modules(package: str = PACKAGE):
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


def package_classes(package: str = PACKAGE):
    seen = []
    for mod in package_modules(package):
        for val in vars(mod).values():
            if (
                inspect.isclass(val)
                and val.__module__.startswith(package)
                and val not in seen
            ):
                seen.append(val)
    return seen


def bindings_of(obj, package: str = PACKAGE):
    """Every (namespace owner, name) in the package bound to ``obj``:
    module globals and class-body attributes."""
    out = []
    for owner in package_modules(package) + package_classes(package):
        for name, val in list(vars(owner).items()):
            if val is obj:
                out.append((owner, name))
    return out


def _label(owner, name: str) -> str:
    if inspect.isclass(owner):
        return f"{owner.__module__}:{owner.__name__}.{name}"
    return f"{owner.__name__}:{name}"


def find_wrappers(package: str = PACKAGE):
    """Labels of package bindings that currently hold a tracer wrapper."""
    return [
        _label(owner, name)
        for owner in package_modules(package) + package_classes(package)
        for name, val in vars(owner).items()
        if getattr(val, MARK, False)
    ]


class Tracer:
    """Install wrappers on enter, restore every binding on exit."""

    def __init__(self, targets, package: str = PACKAGE, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.package = package
        self.clock = clock
        self.stats = {}
        self.peak_element_terms = 0
        self.models = []
        self._patched = []  # (owner, name, original), in patch order
        self.bindings_patched = 0  # how many bindings the last install patched
        self._stack = [[0.0]]

    # -- install / restore --------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        importlib.import_module(self.package)
        try:
            for tg in self.targets:
                owner, attr, original = _resolve(tg.where)
                if getattr(original, MARK, False):
                    raise RuntimeError(f"{tg.where} is already wrapped")
                stat = self.stats[tg.name] = Stat(
                    durations=[] if tg.keep_durations else None
                )
                wrapper = self._wrap(original, stat, POSTS.get(tg.post))
                sites = bindings_of(original, self.package)
                if (owner, attr) not in sites:
                    sites.append((owner, attr))
                for site_owner, name in sites:
                    setattr(site_owner, name, wrapper)
                    self._patched.append((site_owner, name, original))
        except BaseException:
            self.uninstall()
            raise
        self.bindings_patched = len(self._patched)
        return self

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, stat: Stat, post):
        stack = self._stack
        clock = self.clock
        durations = stat.durations
        tracer = self

        def wrapper(*args, **kw):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            except BaseException as exc:
                key = type(exc).__name__
                stat.errors[key] = stat.errors.get(key, 0) + 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[0]
                if durations is not None:
                    durations.append(dt)
            if post is not None:
                post(tracer, stat, args, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper
