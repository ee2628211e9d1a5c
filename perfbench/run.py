"""vertexalg verify benchmark.

    python3 perfbench/run.py --workload deep-tails --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: it imports vertexalg from
``src/`` and builds nothing.  One run executes one workload's batch of
``run_suite`` calls (see workloads.py) in this process, single-threaded.

``--trace 0`` repeats the batch, untraced, while another repetition fits
in ``--seconds`` (at least MIN_REPS times) and reports the end-to-end
metrics:

- setup_s: median over set-up probes of the time from spawning a fresh
  interpreter to the workload being ready (see setup_probe.py);
- verify_s: wall seconds of the batch, load-normalised.  Each call is
  timed together with a calibration kernel run just before and just after
  it (``calibrate``, pure stdlib, no vertexalg); the call's time is
  divided by that kernel time and multiplied by CALIBRATION_REF_S, the
  kernel's time on an unloaded reference host.  verify_s sums, over the
  batch's calls, the median of these normalised times over the
  repetitions.  On a shared host the machine's speed drifts by up to 2x
  for minutes at a time, and the kernel slows with it, so the ratio
  stays put where raw wall time does not.  The raw wall seconds are
  printed alongside in the info line;
- peak_rss_mb: peak resident memory of this process.

``--trace 1`` runs the batch once untraced and once under the tracer
(tracer.py, layers.py), then sweeps borcherds over the trunc levels in
layers.SWEEP_LEVELS, and reports the per-layer metrics, the tracing
overhead and per-call latency spreads.

Verdict gate: every check of every report must have status ``pass``,
and every repetition must produce the same reports apart from their
``millis`` fields; otherwise the run is marked incorrect and exits 1.
The digest of those reports, millis removed, is printed for each run so
that two versions of the program can be compared report for report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from workloads import WORKLOADS, sweep_batch  # noqa: E402

MIN_REPS = 3
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
# calibrate() on an unloaded 2-core Intel Xeon host, CPython 3.11.7
CALIBRATION_REF_S = 0.0055


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import vertexalg from this checkout's src/, and from nowhere else."""
    if not (SRC / "vertexalg" / "__init__.py").is_file():
        fail(f"no vertexalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vertexalg

    if Path(vertexalg.__file__).resolve().parent != (SRC / "vertexalg").resolve():
        fail(f"imported vertexalg from {vertexalg.__file__}, not {SRC}")


# -- reports and the verdict gate ----------------------------------------------


def strip_millis(obj):
    if isinstance(obj, dict):
        return {k: strip_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, list):
        return [strip_millis(v) for v in obj]
    return obj


def digest(reports) -> str:
    text = json.dumps(strip_millis(reports), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class Verdict:
    """Check statuses over every report a run produced.  Reports are
    grouped by batch label; each label must always give one digest."""

    def __init__(self):
        self.counts = {"pass": 0, "fail": 0, "budget": 0}
        self.digests = {}
        self.problems = []

    def add(self, reports, label: str = "batch") -> None:
        for rep in reports:
            for chk in rep["checks"]:
                self.counts[chk["status"]] = self.counts.get(chk["status"], 0) + 1
                if chk["status"] != "pass" and len(self.problems) < 5:
                    self.problems.append(f"{rep['suite']}:{chk['id']}={chk['status']}")
        seen = self.digests.setdefault(label, set())
        seen.add(digest(reports))
        if len(seen) > 1 and len(self.problems) < 5:
            self.problems.append(f"{label}: reports differ between repetitions")

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["pass"]

    @property
    def correct(self) -> bool:
        return (
            self.attempted > 0
            and self.failed == 0
            and all(len(d) == 1 for d in self.digests.values())
        )

    def ratio(self, status: str) -> float:
        return self.counts[status] / self.attempted if self.attempted else 0.0


# -- measuring ------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed stdlib kernel of tuple hashing, dict updates and
    Fraction arithmetic, the operations vertexalg's term layer is made of.
    It does not touch vertexalg, so a change to the program cannot move it;
    only the machine's load can."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(2000):
        key = (i & 63, (i >> 6) & 7, ("x", i & 3))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i & 15, 1 + (i & 3))
    return time.perf_counter() - t0


def run_batch(calls, gauge=None):
    """Run each call once; (wall seconds per call, reports).  With a list
    ``gauge``, calibrate before the first call and after every call, and
    append for each call the mean of the two calibrations around it."""
    from vertexalg.suites import run_suite

    configs = [c.suite_config() for c in calls]
    times, reports = [], []
    before = calibrate() if gauge is not None else None
    for c, cfg in zip(calls, configs):
        t0 = time.perf_counter()
        rep = run_suite(c.suite, cfg)
        times.append(time.perf_counter() - t0)
        if gauge is not None:
            after = calibrate()
            gauge.append((before + after) / 2)
            before = after
        reports.append(rep)
    return times, reports


def setup_probe(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready`` line."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        fail(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def assert_untraced():
    from tracer import find_wrappers

    left = find_wrappers()
    if left:
        fail(f"tracer wrappers installed during a timed run: {left[:5]}")


def timed_runs(wl, calls, seconds: float, verdict: Verdict):
    """Repeat the batch untraced, with the set-up probes spread evenly over
    the run between repetitions.  Returns per-repetition lists of call
    seconds and of calibration seconds, and the set-up probe seconds."""
    reps, gauges, setups = [], [], []
    start = time.perf_counter()
    last = 0.0  # seconds the previous repetition took
    while len(reps) < MIN_REPS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        due = 1 + int(SETUP_PROBES * (t0 - start) / max(seconds, 1e-9))
        while len(setups) < min(due, SETUP_PROBES):
            setups.append(setup_probe(wl.name))
        assert_untraced()
        gc.collect()
        gauge = []
        times, reports = run_batch(calls, gauge)
        verdict.add(reports)
        reps.append(times)
        gauges.append(gauge)
        last = time.perf_counter() - t0
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(wl.name))
    return reps, gauges, setups


def normalised_seconds(reps, gauges) -> float:
    """Sum over calls of the median over repetitions of call time divided
    by the calibration time around it, in reference-host seconds."""
    per_call = zip(zip(*reps), zip(*gauges))
    return CALIBRATION_REF_S * sum(
        statistics.median(t / g for t, g in zip(times, cal))
        for times, cal in per_call
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_run(calls, seed: int, verdict: Verdict) -> dict:
    """One untraced and one traced pass of the batch, then the K sweep.
    Times are load-normalised like verify_s; the calibration kernel is
    outside vertexalg, so the tracer does not touch it."""
    import layers
    from tracer import Tracer

    def timed(batch, label, tracer=None):
        gc.collect()
        gauge = []
        if tracer is None:
            times, reports = run_batch(batch, gauge)
        else:
            with tracer:
                times, reports = run_batch(batch, gauge)
        verdict.add(reports, label)
        return normalised_seconds([times], [gauge])

    untraced = timed(calls, "batch")
    tr = Tracer(layers.TARGETS)
    traced = timed(calls, "batch", tr)
    assert_untraced()
    metrics = layers.layer_metrics(tr)
    metrics["trace.untraced_verify_s"] = (untraced, "s")
    metrics["trace.traced_verify_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.bindings_patched"] = (tr.bindings_patched, "count")

    # K-scaling sweep: the same borcherds batch at each trunc level
    for level in layers.SWEEP_LEVELS:
        sweep = sweep_batch(seed, level)
        label = f"sweep-K{level}"
        untraced = timed(sweep, label)
        tr = Tracer(layers.TARGETS)
        timed(sweep, label, tr)
        metrics.update(layers.sweep_metrics(level, untraced, tr))
    assert_untraced()
    return metrics


# -- machine and output ------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    wl = WORKLOADS[args.workload]
    calls = wl.plan(args.seed)
    verdict = Verdict()

    if args.trace:
        metrics = traced_run(calls, args.seed, verdict)
        metrics["verdict.fail_ratio"] = (verdict.ratio("fail"), "ratio")
        metrics["verdict.budget_ratio"] = (verdict.ratio("budget"), "ratio")
        extra = {}
    else:
        reps, gauges, setups = timed_runs(wl, calls, args.seconds, verdict)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "verify_s": (normalised_seconds(reps, gauges), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        extra = {
            "reps": len(reps),
            "wall_s_per_rep": [round(sum(t), 4) for t in reps],
            "calibration_median_s": statistics.median(g for gs in gauges for g in gs),
            "setup_probes_s": [round(t, 4) for t in setups],
        }
        summary = dict(metrics)
        summary["fail_ratio"] = (verdict.ratio("fail"), "ratio")
        summary["budget_ratio"] = (verdict.ratio("budget"), "ratio")
        print(f"{wl.name} seed={args.seed}: " + "  ".join(
            f"{k}={v:.6g} {u}" for k, (v, u) in summary.items()))

    info = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "configs": [asdict(c.suite_config()) for c in calls],
        "report_digest": sorted(verdict.digests.get("batch", ())),
        "check_counts": verdict.counts,
        "problems": verdict.problems,
        **extra,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
