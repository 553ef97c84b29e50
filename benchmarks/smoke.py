"""Mining smoke check — fast cold/warm agreement gate for CI.

Runs the hierarchical exploration of the synthetic-peak dataset twice:
cold, through ``run_hierarchical``, and warm, through an
``ExploreSession`` filled at the lower ``FILL_SUPPORT`` whose query at
``SUPPORT`` derives from the cached result instead of mining. It
fails if

* either run takes longer than ``TIME_BUDGET`` seconds, or
* the warm query does not derive from the cache, or
* the warm ResultSet diverges from the cold reference (same
  subgroups, same counts, divergences equal at 9 decimals), or
* reprolint reports any non-baselined finding over ``src`` +
  ``benchmarks`` (the determinism/purity static gate).

With ``--obs`` it instead runs the observability gate on the Fig-2
cell german at ``SUPPORT`` (about 0.15 s a run, long enough for a few
per cent of overhead to show): the bench payload and the run log must
be schema-valid, a collector, an event stream and a run bundle must
each leave the ResultSet bit-identical, and each must stay within its
overhead budget over the uninstrumented run (``MAX_OBS_OVERHEAD`` for
the collector, ``MAX_EVENTS_OVERHEAD`` for the others, plus
``EPSILON_SECONDS`` of timer slack; best of ``OVERHEAD_ROUNDS``
alternated runs). The payload is checked in memory and the run log
and bundle go to a temporary directory, so the gate writes nothing
into the checkout.

With ``--arch`` it runs the reproarch whole-program gate
(``python -m repro.devtools.arch check``): layering, cycles, exports,
api lockfile, contracts and deprecations.

With ``--bundle`` it runs the forensics gate: captures a run bundle of
the same workload (``benchmark_results/smoke_bundle/``), requires
``validate_bundle`` to report zero problems and the run doctor to
report zero findings, requires bundling to leave the ResultSet
bit-identical to an unbundled run, and requires ``repro.obs.diff`` of
the bundle against itself to PASS with zero regressions. The run log is
the bundle's one recording: the bundle must hold exactly the manifest
and the run log, and the counters and gauges ``load_bundle`` folds
from that log must equal those of the collector that recorded the run.

With ``--cpuprof`` it runs the CPU-profiler gate: profiling at the
default 97 Hz must leave german's ResultSet bit-identical to an
unprofiled run and stay within ``MAX_CPUPROF_OVERHEAD`` (timed like
the obs gate), must produce a schema-valid ``cpuprof.json`` in a
captured synthetic-peak bundle with byte-stable ``.folded``/speedscope
exports, and — the end-to-end attribution demo — a synthetic
busy-wait injected into the mining phase must be named, function and
file, by the ``repro.obs.diff`` attribution of two profiled bundles.

Usage::

    PYTHONPATH=src python benchmarks/smoke.py              # or: make bench-smoke
    PYTHONPATH=src python benchmarks/smoke.py --obs        # or: make obs-smoke
    PYTHONPATH=src python benchmarks/smoke.py --arch       # or: make arch-gate
    PYTHONPATH=src python benchmarks/smoke.py --bundle     # or: make bundle-gate
    PYTHONPATH=src python benchmarks/smoke.py --cpuprof    # or: make cpuprof-gate
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

from repro import ExploreConfig, ExploreSession
from repro.devtools import Baseline, LintRunner
from repro.devtools.suppressions import BASELINE_FILENAME
from repro.experiments.harness import load_context, run_hierarchical
from repro.obs import ObsCollector, RunBundle

REPO_ROOT = Path(__file__).resolve().parent.parent

SUPPORT = 0.05
TIME_BUDGET = 5.0

#: The warm session mines once at this support; its query at SUPPORT
#: then filters the cached result.
FILL_SUPPORT = 0.03

#: The overhead gates time this dataset at SUPPORT (the Fig-2 cell,
#: 463,830 subgroups in about 0.15 s).
OVERHEAD_DATASET = "german"

#: Each round runs the uninstrumented workload and then every
#: instrumented mode once; a gate compares the best run of each.
OVERHEAD_ROUNDS = 5

#: Instrumented wall time may exceed disabled-mode by at most this
#: fraction (plus EPSILON_SECONDS of absolute timer slack).
MAX_OBS_OVERHEAD = 0.05
EPSILON_SECONDS = 0.02

#: Event streaming (collector + live event stream + run-log sink) may
#: exceed disabled-mode wall time by at most this fraction.
MAX_EVENTS_OVERHEAD = 0.10

#: Sampling CPU profiling at the default rate may exceed disabled-mode
#: wall time by at most this fraction (plus EPSILON_SECONDS).
MAX_CPUPROF_OVERHEAD = 0.10

#: Wall seconds of synthetic busy-wait injected into the mining phase
#: for the end-to-end attribution demo — big enough to trip the diff's
#: phase thresholds and collect tens of samples at 97 Hz.
INJECTED_REGRESSION_SECONDS = 0.4


def signature(result):
    return sorted(
        (tuple(sorted(str(i) for i in r.itemset)), r.count,
         round(r.divergence, 9))
        for r in result
    )


def same_result(a, b) -> bool:
    """Whether two result sets hold the same rows, bit for bit."""
    columns = ("ids", "count", "support", "mean", "divergence", "t")
    return a.vocabulary == b.vocabulary and all(
        getattr(a, c).tobytes() == getattr(b, c).tobytes() for c in columns
    )


def bundled_run(ctx, directory, obs):
    """``run_hierarchical`` at SUPPORT, captured into a run bundle."""
    config = ExploreConfig(min_support=SUPPORT).to_dict()
    with RunBundle(
        directory, name="smoke", config=config, obs=obs, dataset=ctx.features
    ):
        return run_hierarchical(ctx, SUPPORT, obs=obs)


def best_of_alternated(modes):
    """Best wall time and last result of each mode, run in alternation.

    ``modes`` maps a label to a function that runs the workload once
    and returns its ResultSet. Every round runs each mode once, in
    order, so a neighbour's load falls on all modes alike.
    """
    best = dict.fromkeys(modes, math.inf)
    results = {}
    for _ in range(OVERHEAD_ROUNDS):
        for label, run in modes.items():
            start = time.perf_counter()
            results[label] = run()
            best[label] = min(best[label], time.perf_counter() - start)
    return best, results


def overhead_ok(label, t_off, t_on, max_overhead) -> bool:
    """Print one overhead line, with the overhead its budget allows."""
    budget = t_off * (1.0 + max_overhead) + EPSILON_SECONDS
    status = "ok" if t_on <= budget else "TOO SLOW"
    print(
        f"{label:20s} off={t_off:.3f}s  on={t_on:.3f}s  "
        f"({(t_on - t_off) / t_off:+.1%}, allowed "
        f"{budget / t_off - 1.0:+.1%})  {status}"
    )
    return t_on <= budget


def warm_session_run(ctx):
    """Fill a fresh session at FILL_SUPPORT, then query it at SUPPORT.

    Returns the query's ResultSet and whether it was served from the
    mined-counter cache.
    """
    obs = ObsCollector()
    session = ExploreSession(
        ctx.features, ctx.outcomes,
        hierarchies=ctx.dataset.hierarchies, obs=obs,
    )
    session.explore(min_support=FILL_SUPPORT)
    hits = obs.counter("session.mined.hits")
    result = session.explore(min_support=SUPPORT)
    return result, obs.counter("session.mined.hits") == hits + 1


def main() -> int:
    ctx = load_context("synthetic-peak")
    runs = (
        ("cold", lambda: (run_hierarchical(ctx, SUPPORT), True)),
        ("warm session", lambda: warm_session_run(ctx)),
    )
    reference = None
    failures = []
    for label, run in runs:
        start = time.perf_counter()
        result, derived = run()
        elapsed = time.perf_counter() - start
        sig = signature(result)
        status = "ok"
        if elapsed > TIME_BUDGET:
            status = f"TOO SLOW (> {TIME_BUDGET:.0f}s)"
            failures.append(label)
        if not derived:
            status = "NOT DERIVED from the session cache"
            failures.append(label)
        if reference is None:
            reference = sig
        elif sig != reference:
            status = "DIVERGED from cold"
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
    print("smoke passed: cold and warm exploration agree")
    return 0


def obs_main() -> int:
    """Observability gate: telemetry validity + disabled-mode overhead."""
    import shutil
    import tempfile

    from repro.obs import (
        EventStream,
        JsonlRunLog,
        bench_payload,
        validate_bench_payload,
    )
    from repro.obs.runlog import read_run_log, validate_run_log

    ctx = load_context(OVERHEAD_DATASET)
    failures = []
    scratch = Path(tempfile.mkdtemp(prefix="smoke_obs_"))
    run_log = scratch / "smoke_fig2_run.jsonl"
    collectors = []

    def collector_run():
        collectors.append(ObsCollector())
        return run_hierarchical(ctx, SUPPORT, obs=collectors[-1])

    def events_run():
        obs = ObsCollector(events=EventStream(sinks=[JsonlRunLog(run_log)]))
        try:
            return run_hierarchical(ctx, SUPPORT, obs=obs)
        finally:
            obs.events.close()

    try:
        run_hierarchical(ctx, SUPPORT)  # warm up caches/imports
        best, results = best_of_alternated({
            "off": lambda: run_hierarchical(ctx, SUPPORT),
            "collector": collector_run,
            "events": events_run,
            "bundle": lambda: bundled_run(
                ctx, scratch / "bundle", ObsCollector()
            ),
        })
        ev_errors = validate_run_log(read_run_log(run_log))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    t_off = best.pop("off")
    budgets = {
        "collector": MAX_OBS_OVERHEAD,
        "events": MAX_EVENTS_OVERHEAD,
        "bundle": MAX_EVENTS_OVERHEAD,
    }
    for mode, t_on in best.items():
        if not overhead_ok(f"{mode} overhead", t_off, t_on, budgets[mode]):
            failures.append(f"{mode}-overhead")

    changed = [
        mode for mode in best if not same_result(results[mode], results["off"])
    ]
    if changed:
        failures.append("determinism")
        print(f"{'determinism':20s} changed the ResultSet: "
              f"{', '.join(changed)}  FAILED")
    else:
        print(f"{'determinism':20s} identical with and without obs  ok")

    obs = collectors[-1]
    payload = bench_payload(
        "smoke_fig2", obs=obs,
        config={"dataset": OVERHEAD_DATASET, "support": SUPPORT},
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
        f"{'telemetry':20s} bench payload  "
        f"{'ok' if not errors else 'INVALID'}"
    )

    if ev_errors:
        failures.append("events")
        for error in ev_errors:
            print(f"  events: {error}", file=sys.stderr)
    print(
        f"{'events':20s} {run_log.name}  "
        f"{'ok' if not ev_errors else 'INVALID'}"
    )

    if failures:
        print(f"obs smoke FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("obs smoke passed: telemetry valid, overhead within budget")
    return 0


def arch_main() -> int:
    """Architecture gate: the reproarch whole-program checks."""
    from repro.devtools.arch.cli import main as arch_check

    return arch_check(["--root", str(REPO_ROOT), "check"])


def bundle_main() -> int:
    """Forensics gate: bundle capture, validation, doctor, self-diff."""
    import shutil

    from repro.obs import load_bundle, validate_bundle
    from repro.obs.bundle import BUNDLE_FILES, MANIFEST_FILENAME
    from repro.obs.diff import diff_payload, load_profile
    from repro.obs.doctor import diagnose

    ctx = load_context("synthetic-peak")
    ctx.leaf_items(0.1, "divergence")  # warm the discretization cache
    failures = []

    bundle_dir = REPO_ROOT / "benchmark_results" / "smoke_bundle"
    if bundle_dir.exists():
        shutil.rmtree(bundle_dir)
    plain = run_hierarchical(ctx, SUPPORT)
    obs = ObsCollector()
    bundled = bundled_run(ctx, bundle_dir, obs)

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
    recording = []
    files = sorted(path.name for path in bundle_dir.iterdir())
    expected = sorted([MANIFEST_FILENAME, *BUNDLE_FILES.values()])
    if files != expected:
        recording.append(f"bundle holds {files}, expected {expected}")
    if bundle.counters != obs.counters:
        recording.append("folded counters differ from the collector's")
    if bundle.gauges != obs.gauges:
        recording.append("folded gauges differ from the collector's")
    if recording:
        failures.append("recording")
        for problem in recording:
            print(f"  recording: {problem}", file=sys.stderr)
    print(
        f"{'recording':20s} manifest + run log, folded registries  "
        f"{'ok' if not recording else 'FAILED'}"
    )

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
    print(
        "bundle gate passed: bundle valid, run log complete, doctor "
        "healthy, self-diff clean"
    )
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

    import repro.core.session as session
    from repro.obs.cpuprof import (
        load_cpuprof,
        to_folded,
        to_speedscope,
        validate_cpuprof_payload,
    )
    from repro.obs.diff import diff_payload, load_profile

    ctx = load_context(OVERHEAD_DATASET)
    failures = []

    # -- overhead at the default sampling rate --------------------------
    run_hierarchical(ctx, SUPPORT)  # warm up caches/imports
    best, results = best_of_alternated({
        "off": lambda: run_hierarchical(ctx, SUPPORT),
        "profiler": lambda: run_hierarchical(
            ctx, SUPPORT, obs=ObsCollector(profile_cpu=True)
        ),
    })
    if not overhead_ok(
        "overhead", best["off"], best["profiler"], MAX_CPUPROF_OVERHEAD
    ):
        failures.append("overhead")

    # -- bit-identity: profiling must never change mined results --------
    if not same_result(results["profiler"], results["off"]):
        failures.append("identity")
        print(f"{'identity':20s} profiler changed the ResultSet  FAILED")
    else:
        print(f"{'identity':20s} identical with and without profiler  ok")

    # -- captures: a plain profiled run and one with a named busy-wait --
    # Inject a named busy-wait into the mining phase; the attribution
    # demo below must name it, function and file.
    peak = load_context("synthetic-peak")
    base_dir = REPO_ROOT / "benchmark_results" / "smoke_cpuprof_base"
    slow_dir = REPO_ROOT / "benchmark_results" / "smoke_cpuprof_slow"
    for directory in (base_dir, slow_dir):
        if directory.exists():
            shutil.rmtree(directory)
    bundled_run(peak, base_dir, ObsCollector(profile_cpu=True))
    original = session.mine
    session.mine = _smoke_regression(original)
    try:
        bundled_run(peak, slow_dir, ObsCollector(profile_cpu=True))
    finally:
        session.mine = original

    # -- artifact: schema-valid capture, byte-stable exports ------------
    # Both captures must be valid; stacks are required of the injected
    # run, whose busy-wait stays on-CPU long enough to be sampled at
    # 97 Hz (the plain run takes about 20 ms, often between two ticks).
    export_errors = []
    for directory in (base_dir, slow_dir):
        try:
            payload = load_cpuprof(directory)
        except (OSError, ValueError) as exc:
            export_errors.append(f"{directory.name}: {exc}")
            continue
        export_errors.extend(
            f"{directory.name}: {error}"
            for error in validate_cpuprof_payload(payload)
        )
        if directory == slow_dir and not payload["stacks"]:
            export_errors.append("no stacks sampled on the injected run")
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
    if "--arch" in argv:
        return arch_main()
    if "--bundle" in argv:
        return bundle_main()
    if "--cpuprof" in argv:
        return cpuprof_main()
    return main()


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
