"""Mining smoke check — fast serial/parallel agreement gate for CI.

Runs the hierarchical exploration of the synthetic-peak dataset
serially and with the 2-way parallel fan-out, and fails if

* any single run takes longer than ``TIME_BUDGET`` seconds, or
* the ``n_jobs=2`` ResultSet diverges from the serial reference
  (same subgroups, same counts, divergences equal at 9 decimals), or
* reprolint reports any non-baselined finding over ``src`` +
  ``benchmarks`` (the determinism/purity static gate).

With ``--obs`` it instead runs the observability gate on the same
Figure-2 workload: telemetry JSON must be emitted and schema-valid,
enabling a collector must not change the ResultSet, and instrumented
runs must stay within ``MAX_OBS_OVERHEAD`` of the disabled-mode wall
time (best-of-3, with an absolute epsilon for timer noise).

With ``--perf-gate`` it times the same workload once (plus a reprolint
pass as its own ``lint`` phase), compares the phase wall times against
the perfdb history baseline (``benchmark_results/history/``, median of
recent matching records — see ``repro.obs.perfdb``), appends the fresh
run to the history, and exits non-zero on any regression. With no or
too-little history the gate records and passes.

With ``--arch`` it runs the reproarch whole-program gate
(``python -m repro.devtools.arch check``): layering, cycles, exports,
api lockfile, contracts and deprecations.

With ``--bundle`` it runs the forensics gate: captures a run bundle of
the same workload (``benchmark_results/smoke_bundle/``), requires
``validate_bundle`` to report zero problems and the run doctor to
report zero findings, requires bundling to leave the ResultSet
bit-identical to an unbundled run, and requires ``repro.obs.diff`` of
the bundle against itself to PASS with zero regressions.

With ``--cpuprof`` it runs the CPU-profiler gate: profiling at the
default 97 Hz must leave the ResultSet bit-identical to an unprofiled
run for ``n_jobs`` 1 and 4, must stay within ``MAX_CPUPROF_OVERHEAD``
wall-time overhead, must produce a schema-valid ``cpuprof.json`` in a
captured bundle with byte-stable ``.folded``/speedscope exports, and —
the end-to-end attribution demo — a synthetic busy-wait injected into
the mining phase must be named, function and file, by the
``repro.obs.diff`` attribution of two profiled bundles.

Usage::

    PYTHONPATH=src python benchmarks/smoke.py              # or: make bench-smoke
    PYTHONPATH=src python benchmarks/smoke.py --obs        # or: make obs-smoke
    PYTHONPATH=src python benchmarks/smoke.py --perf-gate  # or: make perf-gate
    PYTHONPATH=src python benchmarks/smoke.py --arch       # or: make arch-gate
    PYTHONPATH=src python benchmarks/smoke.py --bundle     # or: make bundle-gate
    PYTHONPATH=src python benchmarks/smoke.py --cpuprof    # or: make cpuprof-gate
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.devtools import Baseline, LintRunner
from repro.devtools.suppressions import BASELINE_FILENAME
from repro.experiments.harness import load_context, run_hierarchical

REPO_ROOT = Path(__file__).resolve().parent.parent

SUPPORT = 0.05
TIME_BUDGET = 5.0

#: Instrumented wall time may exceed disabled-mode by at most this
#: fraction (plus EPSILON_SECONDS of absolute timer slack).
MAX_OBS_OVERHEAD = 0.05
EPSILON_SECONDS = 0.05

#: Event streaming (collector + live event stream + run-log sink) may
#: exceed disabled-mode wall time by at most this fraction.
MAX_EVENTS_OVERHEAD = 0.10

#: Sampling CPU profiling at the default rate may exceed disabled-mode
#: wall time by at most this fraction (best-of-3 + absolute epsilon).
MAX_CPUPROF_OVERHEAD = 0.10

#: Wall seconds of synthetic busy-wait injected into the mining phase
#: for the end-to-end attribution demo — big enough to trip the
#: GatePolicy phase gate and collect tens of samples at 97 Hz.
INJECTED_REGRESSION_SECONDS = 0.4

#: The ``n_jobs`` settings compared; the first is the reference.
VARIANTS = (1, 2)


def signature(result):
    return sorted(
        (tuple(sorted(str(i) for i in r.itemset)), r.count,
         round(r.divergence, 9))
        for r in result
    )


def main() -> int:
    ctx = load_context("synthetic-peak")
    ctx.leaf_items(0.1, "divergence")  # warm the discretization cache
    reference = None
    failures = []
    for n_jobs in VARIANTS:
        label = "serial" if n_jobs == 1 else f"n_jobs={n_jobs}"
        start = time.perf_counter()
        result = run_hierarchical(ctx, SUPPORT, n_jobs=n_jobs)
        elapsed = time.perf_counter() - start
        sig = signature(result)
        status = "ok"
        if elapsed > TIME_BUDGET:
            status = f"TOO SLOW (> {TIME_BUDGET:.0f}s)"
            failures.append(label)
        if reference is None:
            reference = sig
        elif sig != reference:
            status = "DIVERGED from serial"
            failures.append(label)
        print(
            f"{label:20s} {len(sig):5d} subgroups  {elapsed:6.2f}s  {status}"
        )

    lint_report = LintRunner(
        root=REPO_ROOT,
        baseline=Baseline.load(REPO_ROOT / BASELINE_FILENAME),
        jobs=0,
    ).run([REPO_ROOT / "src", REPO_ROOT / "benchmarks"])
    lint_status = "ok" if lint_report.ok else "FINDINGS"
    print(
        f"{'reprolint':20s} {lint_report.files_checked:5d} files      "
        f"      {lint_status}"
    )
    if not lint_report.ok:
        for finding in lint_report.findings:
            print(f"  {finding.render()}", file=sys.stderr)
        failures.append("reprolint")

    if failures:
        print(f"smoke FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("smoke passed: serial and parallel mining agree")
    return 0


def obs_main() -> int:
    """Observability gate: telemetry validity + disabled-mode overhead."""
    from repro.obs import ObsCollector, validate_bench_payload, write_bench_json

    ctx = load_context("synthetic-peak")
    ctx.leaf_items(0.1, "divergence")  # warm the discretization cache
    failures = []

    def timed(obs=None):
        start = time.perf_counter()
        result = run_hierarchical(ctx, SUPPORT, obs=obs)
        return time.perf_counter() - start, result

    timed()  # warm up caches/imports outside the measurement
    off_runs = [timed() for _ in range(3)]
    collectors = [ObsCollector() for _ in range(3)]
    on_runs = [timed(c) for c in collectors]
    t_off = min(t for t, _ in off_runs)
    t_on = min(t for t, _ in on_runs)
    overhead = (t_on - t_off) / t_off
    budget = t_off * (1.0 + MAX_OBS_OVERHEAD) + EPSILON_SECONDS
    status = "ok" if t_on <= budget else f"TOO SLOW (> {budget:.2f}s)"
    if t_on > budget:
        failures.append("overhead")
    print(
        f"{'overhead':20s} off={t_off:.3f}s  on={t_on:.3f}s  "
        f"({overhead:+.1%})  {status}"
    )

    if signature(on_runs[0][1]) != signature(off_runs[0][1]):
        failures.append("determinism")
        print(f"{'determinism':20s} collector changed the ResultSet  FAILED")
    else:
        print(f"{'determinism':20s} identical with and without obs  ok")

    obs = collectors[0]
    out = REPO_ROOT / "benchmark_results" / "BENCH_smoke_fig2.json"
    out.parent.mkdir(exist_ok=True)
    payload = write_bench_json(
        out, "smoke_fig2", obs=obs,
        config={"dataset": "synthetic-peak", "support": SUPPORT},
    )
    errors = validate_bench_payload(payload)
    for counter in ("mining.candidates", "mining.frequent_itemsets",
                    "discretize.splits_accepted"):
        if obs.counter(counter) <= 0:
            errors.append(f"counter {counter} is zero")
    if not payload["phases"]:
        errors.append("no phase timings recorded")
    if errors:
        failures.append("telemetry")
        for error in errors:
            print(f"  telemetry: {error}", file=sys.stderr)
    print(
        f"{'telemetry':20s} {out.name}  "
        f"{'ok' if not errors else 'INVALID'}"
    )

    # -- live events: run-log validity + streaming overhead budget -------
    from repro.obs import EventStream, JsonlRunLog
    from repro.obs.runlog import read_run_log, validate_run_log

    run_log = REPO_ROOT / "benchmark_results" / "smoke_fig2_run.jsonl"
    if run_log.exists():
        run_log.unlink()

    def timed_events(log_path=None):
        sinks = [JsonlRunLog(log_path)] if log_path else []
        obs_e = ObsCollector(events=EventStream(sinks=sinks))
        start = time.perf_counter()
        result = run_hierarchical(ctx, SUPPORT, obs=obs_e)
        elapsed = time.perf_counter() - start
        obs_e.events.close()
        return elapsed, result

    ev_runs = [timed_events(run_log if i == 0 else None) for i in range(3)]
    t_ev = min(t for t, _ in ev_runs)
    ev_overhead = (t_ev - t_off) / t_off
    ev_budget = t_off * (1.0 + MAX_EVENTS_OVERHEAD) + EPSILON_SECONDS
    ev_status = "ok" if t_ev <= ev_budget else f"TOO SLOW (> {ev_budget:.2f}s)"
    if t_ev > ev_budget:
        failures.append("events-overhead")
    print(
        f"{'events overhead':20s} off={t_off:.3f}s  on={t_ev:.3f}s  "
        f"({ev_overhead:+.1%})  {ev_status}"
    )

    ev_errors = validate_run_log(read_run_log(run_log))
    if signature(ev_runs[0][1]) != signature(off_runs[0][1]):
        ev_errors.append("event streaming changed the ResultSet")
    if ev_errors:
        failures.append("events")
        for error in ev_errors:
            print(f"  events: {error}", file=sys.stderr)
    print(
        f"{'events':20s} {run_log.name}  "
        f"{'ok' if not ev_errors else 'INVALID'}"
    )

    # -- run bundles: full forensics capture shares the events budget ----
    import shutil
    import tempfile

    def timed_bundle():
        tmp = tempfile.mkdtemp(prefix="smoke_bundle_")
        try:
            start = time.perf_counter()
            result = run_hierarchical(ctx, SUPPORT, bundle_dir=tmp)
            return time.perf_counter() - start, result
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    bundle_runs = [timed_bundle() for _ in range(3)]
    t_bundle = min(t for t, _ in bundle_runs)
    b_overhead = (t_bundle - t_off) / t_off
    b_status = ("ok" if t_bundle <= ev_budget
                else f"TOO SLOW (> {ev_budget:.2f}s)")
    if t_bundle > ev_budget:
        failures.append("bundle-overhead")
    print(
        f"{'bundle overhead':20s} off={t_off:.3f}s  on={t_bundle:.3f}s  "
        f"({b_overhead:+.1%})  {b_status}"
    )

    if failures:
        print(f"obs smoke FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("obs smoke passed: telemetry valid, overhead within budget")
    return 0


def perf_gate_main() -> int:
    """Perf gate: fail when the smoke workload regresses vs. history."""
    from repro.obs import ObsCollector, bench_payload
    from repro.obs.perfdb import (
        GatePolicy, compare_payload, load_history, record_payload,
    )

    ctx = load_context("synthetic-peak")
    ctx.leaf_items(0.1, "divergence")  # warm the discretization cache
    run_hierarchical(ctx, SUPPORT)  # warm caches/imports untimed
    obs = ObsCollector()
    run_hierarchical(ctx, SUPPORT, obs=obs)
    with obs.span("lint"):
        LintRunner(
            root=REPO_ROOT,
            baseline=Baseline.load(REPO_ROOT / BASELINE_FILENAME),
            jobs=0,
        ).run([REPO_ROOT / "src", REPO_ROOT / "benchmarks"])
    payload = bench_payload(
        "smoke_fig2", obs=obs,
        config={"dataset": "synthetic-peak", "support": SUPPORT},
    )
    history_dir = REPO_ROOT / "benchmark_results" / "history"
    comparison = compare_payload(
        payload, load_history(history_dir, payload["name"]), GatePolicy()
    )
    print(comparison.render_text())
    record_payload(history_dir, payload)
    n = len(load_history(history_dir, payload["name"]))
    print(f"recorded -> {history_dir / 'smoke_fig2.jsonl'} ({n} records)")
    if not comparison.ok:
        print("perf gate FAILED: phase regression vs. history baseline",
              file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


def arch_main() -> int:
    """Architecture gate: the reproarch whole-program checks."""
    from repro.devtools.arch.cli import main as arch_check

    return arch_check(["--root", str(REPO_ROOT), "check"])


def bundle_main() -> int:
    """Forensics gate: bundle capture, validation, doctor, self-diff."""
    import shutil

    from repro.obs import load_bundle, validate_bundle
    from repro.obs.diff import diff_payload, load_profile
    from repro.obs.doctor import diagnose

    ctx = load_context("synthetic-peak")
    ctx.leaf_items(0.1, "divergence")  # warm the discretization cache
    failures = []

    bundle_dir = REPO_ROOT / "benchmark_results" / "smoke_bundle"
    if bundle_dir.exists():
        shutil.rmtree(bundle_dir)
    plain = run_hierarchical(ctx, SUPPORT)
    bundled = run_hierarchical(ctx, SUPPORT, bundle_dir=str(bundle_dir))

    problems = validate_bundle(bundle_dir)
    if problems:
        failures.append("validate")
        for problem in problems:
            print(f"  validate: {problem}", file=sys.stderr)
    print(
        f"{'bundle':20s} {bundle_dir.name}/  "
        f"{'ok' if not problems else 'INVALID'}"
    )

    if signature(bundled) != signature(plain):
        failures.append("determinism")
        print(f"{'determinism':20s} bundling changed the ResultSet  FAILED")
    else:
        print(f"{'determinism':20s} identical with and without bundle  ok")

    bundle = load_bundle(bundle_dir)
    findings = diagnose(bundle)
    if findings:
        failures.append("doctor")
        for finding in findings:
            print(f"  doctor: [{finding.severity}] {finding.check}: "
                  f"{finding.message}", file=sys.stderr)
    print(
        f"{'doctor':20s} {len(findings)} findings  "
        f"{'ok' if not findings else 'UNHEALTHY'}"
    )

    profile = load_profile(str(bundle_dir))
    payload = diff_payload(profile, profile)
    regressions = payload["summary"]["regressions"]
    if regressions:
        failures.append("self-diff")
        print(f"  self-diff: {regressions} regressions against itself",
              file=sys.stderr)
    print(
        f"{'self-diff':20s} {regressions} regressions  "
        f"{'ok' if not regressions else 'FAILED'}"
    )

    if failures:
        print(f"bundle gate FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("bundle gate passed: bundle valid, doctor healthy, self-diff clean")
    return 0


def _smoke_regression(mine_fn):
    """A named busy-wait wrapper around the mining dispatcher.

    The attribution demo's synthetic hot function: burns
    ``INJECTED_REGRESSION_SECONDS`` of CPU (a spin, not a sleep, so the
    sampler sees it on-CPU) before delegating, so a cpuprof diff must
    name *this* function and file.
    """

    def _injected_regression(*args, **kwargs):
        end = time.perf_counter() + INJECTED_REGRESSION_SECONDS
        n = 0
        while time.perf_counter() < end:
            n += 1
        return mine_fn(*args, **kwargs)

    return _injected_regression


def cpuprof_main() -> int:
    """CPU-profiler gate: bit-identity, overhead, exports, attribution."""
    import shutil

    import repro.core.hexplorer as hexplorer
    from repro.obs.cpuprof import (
        load_cpuprof,
        to_folded,
        to_speedscope,
        validate_cpuprof_payload,
    )
    from repro.obs.diff import diff_payload, load_profile

    ctx = load_context("synthetic-peak")
    ctx.leaf_items(0.1, "divergence")  # warm the discretization cache
    failures = []

    def timed(n_jobs=1, profile_cpu=False, bundle_dir=None):
        start = time.perf_counter()
        result = run_hierarchical(
            ctx, SUPPORT, n_jobs=n_jobs, profile_cpu=profile_cpu,
            bundle_dir=bundle_dir,
        )
        return time.perf_counter() - start, result

    timed()  # warm up caches/imports outside the measurement
    off_runs = [timed() for _ in range(3)]
    t_off = min(t for t, _ in off_runs)

    # -- bit-identity: profiling must never change mined results --------
    for n_jobs in (1, 4):
        _, plain = timed(n_jobs=n_jobs)
        _, profiled = timed(n_jobs=n_jobs, profile_cpu=True)
        label = f"identity (n_jobs={n_jobs})"
        if signature(profiled) != signature(plain):
            failures.append(label)
            print(f"{label:20s} profiler changed the ResultSet  FAILED")
        else:
            print(f"{label:20s} identical with and without profiler  ok")

    # -- overhead at the default sampling rate --------------------------
    on_runs = [timed(profile_cpu=True) for _ in range(3)]
    t_on = min(t for t, _ in on_runs)
    overhead = (t_on - t_off) / t_off
    budget = t_off * (1.0 + MAX_CPUPROF_OVERHEAD) + EPSILON_SECONDS
    status = "ok" if t_on <= budget else f"TOO SLOW (> {budget:.2f}s)"
    if t_on > budget:
        failures.append("overhead")
    print(
        f"{'overhead':20s} off={t_off:.3f}s  on={t_on:.3f}s  "
        f"({overhead:+.1%})  {status}"
    )

    # -- artifact: schema-valid capture, byte-stable exports ------------
    base_dir = REPO_ROOT / "benchmark_results" / "smoke_cpuprof_base"
    slow_dir = REPO_ROOT / "benchmark_results" / "smoke_cpuprof_slow"
    for directory in (base_dir, slow_dir):
        if directory.exists():
            shutil.rmtree(directory)
    timed(profile_cpu=True, bundle_dir=str(base_dir))
    export_errors = []
    try:
        payload = load_cpuprof(base_dir)
    except (OSError, ValueError) as exc:
        payload = None
        export_errors.append(str(exc))
    if payload is not None:
        export_errors.extend(validate_cpuprof_payload(payload))
        if not payload["stacks"]:
            export_errors.append("no stacks sampled on the smoke workload")
        if to_folded(payload) != to_folded(payload):
            export_errors.append(".folded export is not byte-stable")
        if to_speedscope(payload) != to_speedscope(payload):
            export_errors.append("speedscope export is not byte-stable")
    if export_errors:
        failures.append("export")
        for error in export_errors:
            print(f"  export: {error}", file=sys.stderr)
    print(
        f"{'export':20s} cpuprof.json  "
        f"{'ok' if not export_errors else 'INVALID'}"
    )

    # -- end-to-end attribution demo ------------------------------------
    # Inject a named busy-wait into the mining phase and require the
    # diff of the two profiled bundles to name it, function and file.
    original = hexplorer.mine
    hexplorer.mine = _smoke_regression(original)
    try:
        timed(profile_cpu=True, bundle_dir=str(slow_dir))
    finally:
        hexplorer.mine = original
    diff = diff_payload(
        load_profile(str(base_dir)), load_profile(str(slow_dir))
    )
    suspects = [
        s for entry in diff["attribution"] for s in entry["suspects"]
    ]
    named = [
        s for s in suspects
        if "_injected_regression" in s and "smoke.py" in s
    ]
    if not named:
        failures.append("attribution")
        print("  attribution: injected regression not named; suspects were:",
              file=sys.stderr)
        for s in suspects:
            print(f"    - {s}", file=sys.stderr)
        print(
            f"{'attribution':20s} injected hot function missed  FAILED"
        )
    else:
        print(f"{'attribution':20s} {named[0]}  ok")

    if failures:
        print(f"cpuprof gate FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(
        "cpuprof gate passed: results bit-identical, overhead within "
        "budget, exports valid, regression attributed"
    )
    return 0


def _main(argv: list[str]) -> int:
    if "--obs" in argv:
        return obs_main()
    if "--perf-gate" in argv:
        return perf_gate_main()
    if "--arch" in argv:
        return arch_main()
    if "--bundle" in argv:
        return bundle_main()
    if "--cpuprof" in argv:
        return cpuprof_main()
    return main()


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
