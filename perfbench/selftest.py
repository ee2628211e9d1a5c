"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Not named test_*.py, so the repository's own test run does not collect
them.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import Target, Tracer, find_wrappers  # noqa: E402
from workloads import WORKLOADS, call  # noqa: E402

import vertexalg.bridges  # noqa: E402
import vertexalg.collapse  # noqa: E402
import vertexalg.generators  # noqa: E402
import vertexalg.rewrite  # noqa: E402
import vertexalg.suites  # noqa: E402
from vertexalg.terms import Element  # noqa: E402


# -- patching every binding, and restoring it ----------------------------------------

IMPORTERS = (vertexalg.suites, vertexalg.bridges, vertexalg.collapse, vertexalg.rewrite)


def test_patches_importers_and_restores():
    fam_qc = vertexalg.generators.fam_qc
    truncate = vertexalg.generators.truncate
    add = vars(Element)["__add__"]
    targets = (
        Target("qc", "vertexalg.generators:fam_qc"),
        Target("tr", "vertexalg.generators:truncate", "truncate"),
        Target("add", "vertexalg.terms:Element.__add__"),
    )
    with Tracer(targets) as tr:
        assert vertexalg.generators.fam_qc is not fam_qc
        for mod in IMPORTERS:
            if hasattr(mod, "truncate"):
                assert getattr(mod.truncate, tracer_mod.MARK)
        for mod in (vertexalg.suites, vertexalg.bridges, vertexalg.collapse):
            assert getattr(mod.fam_qc, tracer_mod.MARK)
        assert find_wrappers()
        # a call through an importer's binding is seen
        from vertexalg.bridges import borcherds_bridge

        al = vertexalg.suites._bridge_alphabet()
        x, y = Element.sym(al, "u"), Element.sym(al, "v")
        borcherds_bridge("qc-symmetry", {"x": x, "y": y, "n": 0},
                         vertexalg.generators.TruncationPolicy(level=4))
    assert tr.stats["qc"].calls > 0
    assert tr.stats["tr"].calls == 2
    assert tr.stats["add"].calls > 0
    assert vertexalg.generators.fam_qc is fam_qc
    for mod in IMPORTERS:
        if hasattr(mod, "truncate"):
            assert mod.truncate is truncate
    assert vars(Element)["__add__"] is add
    assert find_wrappers() == []


def test_restores_after_an_exception():
    with pytest.raises(ZeroDivisionError):
        with Tracer(layers.TARGETS):
            assert find_wrappers()
            1 / 0
    assert find_wrappers() == []


def test_every_target_resolves_and_aliases_are_patched():
    from vertexalg.models.polys import Poly1

    with Tracer(layers.TARGETS) as tr:
        # Poly1.__rmul__ is the same function as __mul__
        assert getattr(vars(Poly1)["__rmul__"], tracer_mod.MARK)
    assert tr.bindings_patched > len(layers.TARGETS)
    assert find_wrappers() == []


# -- nested self time ------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_package(clock):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner():
        clock.now += 3

    def outer():
        clock.now += 2
        core.inner()
        user.inner()  # the same function through an importer's binding
        clock.now += 1

    def broken():
        clock.now += 5
        raise KeyError("x")

    core.inner, core.outer, core.broken = inner, outer, broken
    user.inner = inner
    return {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}


def test_nested_self_time(monkeypatch):
    clock = FakeClock()
    for name, mod in _fake_package(clock).items():
        monkeypatch.setitem(sys.modules, name, mod)
    targets = (
        Target("outer", "fakepkg.core:outer", keep_durations=True),
        Target("inner", "fakepkg.core:inner"),
        Target("broken", "fakepkg.core:broken"),
    )
    core = sys.modules["fakepkg.core"]
    with Tracer(targets, package="fakepkg", clock=clock) as tr:
        core.outer()
        core.outer()
        with pytest.raises(KeyError):
            core.broken()
    st = tr.stats
    assert st["outer"].calls == 2
    assert st["outer"].total_s == 18
    assert st["outer"].self_s == 6
    assert st["outer"].durations == [9, 9]
    assert st["inner"].calls == 4
    assert st["inner"].self_s == 12
    assert st["broken"].calls == 1 and st["broken"].self_s == 5
    assert st["broken"].errors == {"KeyError": 1}
    assert sys.modules["fakepkg.user"].inner is sys.modules["fakepkg.core"].inner
    assert find_wrappers("fakepkg") == []


# -- no wrapper while timing, and the verdict gate ---------------------------------------


def _fake_report(suite, status="pass", millis=3):
    return {
        "suite": suite,
        "status": status,
        "checks": [{"id": "c1", "status": status, "millis": millis}],
        "millis": millis,
    }


def test_no_wrapper_during_timed_runs(monkeypatch):
    seen = []

    def fake_run_suite(suite_id, config=None, **kw):
        seen.append(find_wrappers())
        return _fake_report(suite_id)

    monkeypatch.setattr(vertexalg.suites, "run_suite", fake_run_suite)
    monkeypatch.setattr(run, "setup_probe", lambda name: 0.1)
    calls = [call("dong", seed=1)]
    verdict = run.Verdict()
    reps, _, setups = run.timed_runs(WORKLOADS["rewrite"], calls, 0.0, verdict)
    assert len(reps) == run.MIN_REPS and len(setups) == run.SETUP_PROBES
    assert seen and all(s == [] for s in seen)

    seen.clear()
    metrics = run.traced_run(calls, 0, verdict)
    # the traced batch ran wrapped, every untraced batch did not
    assert sum(1 for s in seen if s) == 1 + len(layers.SWEEP_LEVELS)
    assert sum(1 for s in seen if not s) == 1 + len(layers.SWEEP_LEVELS)
    assert find_wrappers() == []
    assert metrics["trace.bindings_patched"][0] > len(layers.TARGETS)
    assert verdict.correct


def test_digest_ignores_only_millis():
    a = [_fake_report("dong", millis=1)]
    b = [_fake_report("dong", millis=900)]
    c = [_fake_report("dong", status="fail")]
    assert run.digest(a) == run.digest(b)
    assert run.digest(a) != run.digest(c)


def test_verdict_gate():
    v = run.Verdict()
    v.add([_fake_report("dong")])
    v.add([_fake_report("dong", millis=7)])
    assert v.correct and v.attempted == 2 and v.failed == 0

    v.add([_fake_report("dong", status="budget")])
    assert not v.correct and v.failed == 1
    assert v.ratio("budget") == pytest.approx(1 / 3)

    w = run.Verdict()
    w.add([_fake_report("dong")])
    w.add([_fake_report("geometry")])  # same label, different reports
    assert not w.correct


# -- workloads ---------------------------------------------------------------------------


def test_batches_follow_the_seed():
    for wl in WORKLOADS.values():
        assert wl.plan(3) == wl.plan(3)
        assert wl.plan(3) != wl.plan(4)
        for c in wl.plan(3):
            c.suite_config()  # a valid SuiteConfig


def test_refuses_to_run_without_sources(tmp_path):
    dest = tmp_path / "perfbench"
    dest.mkdir()
    for f in HERE.glob("*.py"):
        (dest / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(dest / "run.py"), "--workload", "rewrite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the output contract -------------------------------------------------------------------


def _main_result(monkeypatch, capsys, trace: int) -> dict:
    def fake_run_suite(suite_id, config=None, **kw):
        return _fake_report(suite_id)

    monkeypatch.setattr(vertexalg.suites, "run_suite", fake_run_suite)
    monkeypatch.setattr(run, "setup_probe", lambda name: 0.1)
    code = run.main(["--workload", "rewrite", "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(last)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(monkeypatch, capsys, trace, section):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = _main_result(monkeypatch, capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in bench[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
