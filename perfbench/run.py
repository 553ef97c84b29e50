"""perfbench: end-to-end and per-layer benchmark of H-DivExplorer.

One run of one workload, in this process (the form BENCHMARK.json names)::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

sets the workload up three times, runs one untimed warm-up query, then

* ``--trace 0``: runs queries in a closed loop with one client for S
  seconds and reports the end-to-end metrics;
* ``--trace 1``: alternates an untraced cold query with the same
  pipeline decomposed into one public call per layer, for S seconds,
  and reports the per-layer metrics; spans go to
  ``perfbench/results/trace-<workload>.json`` (Chrome trace format).

Every output is checked against ``perfbench/golden.json``. Times are
reported at reference CPU speed (see ``workloads.SpeedProbe``); raw wall
times are printed beside them. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

The whole protocol (every workload, a fresh process per round, then one
traced process per workload; aggregate table on stdout, one JSON record
per process under ``--out``)::

    python perfbench/run.py [--seed N] [--workload W] [--no-trace] [--quick]

``--quick`` shrinks every workload and runs one round of one query per
workload (outputs are then checked between pipelines, not against the
golden file). ``--write-golden`` regenerates ``perfbench/golden.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: program source {ROOT / 'src' / 'repro'} not found")
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from repro import ExploreConfig  # noqa: E402
from repro.obs import ObsCollector  # noqa: E402

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
RESULTS = HERE / "results"

#: Set-ups per run; setup_s reports their median.
SETUPS = 3
#: Fresh timed processes per workload in the whole protocol; they split
#: one run's timed window, so samples span the protocol.
ROUNDS = 3
#: Timed session.explore calls per traced run.
SESSION_REPEATS = 3
#: A query slower than this many times its workload's budget fails.
BUDGET_FACTOR = 3.0

END_TO_END_UNITS = {
    "query_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in wl.LAYERS},
    **{f"{layer}.share": "ratio" for layer in wl.LAYERS},
    "mine.ns_per_row_scanned": "ns",
    "mine.itemsets": "count",
    "mine.candidates": "count",
    "mine.rows_scanned": "count",
    "mine.yield": "ratio",
    "polarity.dup_ratio": "ratio",
    "results.ns_per_subgroup": "ns",
    "session.explore_s": "s",
    "session.hit_ratio": "ratio",
    "session.fill_s": "s",
    "discretize.nodes": "count",
    "discretize.splits_tried": "count",
    "discretize.us_per_split": "us",
    "encode.items": "count",
    "encode.ns_per_item_row": "ns",
    "datasets.generate_s": "s",
    "outcomes.values_s": "s",
    "setup.warmup_s": "s",
    "trace.op_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}

#: Program counters the traced run reads (from one ObsCollector query).
COUNTERS = (
    "mining.candidates",
    "mining.rows_scanned",
    "discretize.splits_tried",
    "polarity.duplicates_merged",
)


@dataclass
class SetUp:
    """A workload ready for queries, and what setting it up cost.

    Times are seconds at reference CPU speed.
    """

    inputs: wl.Inputs
    session: object
    expected: dict         # golden fingerprint every query must match
    reference: dict        # this process's warm-up query, to match exactly
    cold_reference: dict   # this process's cold pipeline (w.cold_fields())
    setup_s: float
    warmup_s: float
    generate_s: list[float]
    values_s: list[float]
    fill_s: list[float]
    errors: list[str]


def set_up(w: wl.Workload, seed: int, golden: dict | None, setups: int,
           probe: wl.SpeedProbe) -> SetUp:
    """Make the inputs (and fill the session) ``setups`` times, then warm up.

    setup_s is the median set-up plus the one untimed warm-up query, so
    work moved from queries into set-up or into the first query shows.
    """
    prepare, generate, values, fill = [], [], [], []
    inputs = session = filled = None
    for _ in range(setups):
        inputs = session = filled = None
        gc.collect()
        t0 = time.perf_counter()
        inputs = wl.make_inputs(w, seed)
        if w.fill is not None:
            t1 = time.perf_counter()
            session, filled = wl.bind_session(w, inputs)
            fill.append(probe.seconds(t1, time.perf_counter()))
        prepare.append(probe.seconds(t0, time.perf_counter()))
        g0, g1, g2 = inputs.stamps
        generate.append(probe.seconds(g0, g1))
        values.append(probe.seconds(g1, g2))
    gc.collect()
    t0 = time.perf_counter()
    result, top = wl.run_query(w, inputs, session)
    warmup_s = probe.seconds(t0, time.perf_counter())
    got = wl.fingerprint(result, top)
    expected = golden if golden is not None else got
    cold_reference = (
        wl.fingerprint(filled, filled.top_k(wl.TOP_K)) if filled is not None
        else got
    )
    return SetUp(
        inputs, session, expected, got, cold_reference,
        setup_s=statistics.median(prepare) + warmup_s, warmup_s=warmup_s,
        generate_s=generate, values_s=values, fill_s=fill,
        errors=[f"warm-up: {e}" for e in wl.mismatches(expected, got)],
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_queries(w: wl.Workload, s: SetUp, seconds: float,
                 probe: wl.SpeedProbe) -> dict:
    """The closed loop: one client, next query when the last returns."""
    samples: list[float] = []
    wall: list[float] = []
    errors: list[str] = []
    attempted = failed = 0
    result = top = None
    last_counted = False
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        # Free the previous result outside the timed window: a live
        # 60k-subgroup ResultSet slows the next query's allocations.
        result = top = None
        gc.collect()
        attempted += 1
        t0 = time.perf_counter()
        try:
            result, top = wl.run_query(w, s.inputs, s.session)
        except Exception:
            traceback.print_exc()
            failed += 1
            last_counted = True
            continue
        t1 = time.perf_counter()
        wall.append(t1 - t0)
        samples.append(probe.seconds(t0, t1))
        bad = wl.mismatches(s.expected, wl.fingerprint(result, top, full=False))
        errors += [f"query {attempted}: {e}" for e in bad]
        slow = wall[-1] > BUDGET_FACTOR * w.budget_s
        if slow:
            print(f"{w.name}: query {attempted} took {wall[-1]:.3f} s, over "
                  f"{BUDGET_FACTOR:g} x budget {w.budget_s} s", file=sys.stderr)
        last_counted = bool(bad) or slow
        failed += last_counted
    if result is not None:
        bad = wl.mismatches(s.expected, wl.fingerprint(result, top))
        errors += [f"last query: {e}" for e in bad]
        failed += bool(bad) and not last_counted
    metrics = {"setup_s": s.setup_s, "peak_rss_mb": peak_rss_mb()}
    if samples:
        metrics["query_s.p50"] = statistics.median(samples)
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "metrics": metrics, "samples": samples, "wall": wall}


def trace_layers(w: wl.Workload, s: SetUp, seconds: float,
                 probe: wl.SpeedProbe) -> dict:
    """Per-layer times from outside the program, plus its own counters."""
    tracer = wl.Tracer()
    fields = w.cold_fields()
    errors: list[str] = []

    def check(what: str, result, top, expected: dict) -> bool:
        bad = wl.mismatches(expected, wl.fingerprint(result, top), rtol=0.0)
        errors.extend(f"{what}: {e}" for e in bad)
        return not bad

    def timed(call):
        gc.collect()
        t0 = time.perf_counter()
        out = call()
        return out, probe.seconds(t0, time.perf_counter())

    plain: list[float] = []
    sizes: dict = {}
    queries = failed = 0
    start = time.perf_counter()
    while queries == 0 or time.perf_counter() - start < seconds:
        result = top = None
        (result, top), elapsed = timed(lambda: wl.cold_query(fields, s.inputs))
        plain.append(elapsed)
        ok = check("untraced query", result, top, s.cold_reference)
        result = top = None
        gc.collect()
        result, top, sizes = wl.traced_query(fields, s.inputs, tracer, queries)
        ok &= check("traced query", result, top, s.cold_reference)
        failed += not ok
        queries += 1

    result = top = None
    gc.collect()
    obs = ObsCollector()
    result, top = wl.cold_query(fields, s.inputs, obs=obs)
    check("observed query", result, top, s.cold_reference)
    counters = {name: obs.counters.get(name) for name in COUNTERS}
    if not fields.get("polarity"):
        counters["polarity.duplicates_merged"] = 0

    session = s.session
    result = top = None
    if session is None:
        (session, filled), fill_s = timed(lambda: wl.bind_session(w, s.inputs))
        check("session fill", filled, filled.top_k(wl.TOP_K), s.cold_reference)
        filled = None
    else:
        fill_s = statistics.median(s.fill_s)
    explore_times = []
    for _ in range(SESSION_REPEATS):
        result = None
        result, elapsed = timed(lambda: session.explore(ExploreConfig(**w.query)))
        explore_times.append(elapsed)
    check("session query", result, result.top_k(wl.TOP_K), s.reference)
    session_obs = ObsCollector()
    session.explore(ExploreConfig(**w.query, obs=session_obs))
    lookups = {
        name: value for name, value in session_obs.counters.items()
        if name.startswith("session.")
    }
    hits = sum(v for k, v in lookups.items() if k.endswith(".hits"))
    misses = sum(v for k, v in lookups.items() if k.endswith(".misses"))

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace-{w.name}.json").write_text(
        json.dumps(tracer.chrome_trace())
    )

    # Layer self times are scaled by their query's speed factor.
    totals, selfs = [], []
    for q in range(queries):
        q0, q1 = tracer.root(q)
        factor = probe.factor(q0, q1)
        totals.append((q1 - q0) * factor)
        selfs.append({k: v * factor for k, v in tracer.self_times(q).items()})
    metrics: dict[str, float] = {}
    for layer in wl.LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(t[layer] for t in selfs)
        metrics[f"{layer}.share"] = statistics.median(
            t[layer] / total for t, total in zip(selfs, totals)
        )
    itemsets = sizes["itemsets"]
    metrics.update({
        "mine.itemsets": itemsets,
        "results.ns_per_subgroup": metrics["results.self_s"] / itemsets * 1e9,
        "discretize.nodes": sizes["nodes"],
        "encode.items": sizes["items"],
        "encode.ns_per_item_row":
            metrics["encode.self_s"] / (sizes["items"] * sizes["rows"]) * 1e9,
        "session.fill_s": fill_s,
        "session.explore_s": statistics.median(explore_times),
        "datasets.generate_s": statistics.median(s.generate_s),
        "outcomes.values_s": statistics.median(s.values_s),
        "setup.warmup_s": s.warmup_s,
        "trace.op_s": statistics.median(totals),
        "trace.overhead_frac":
            statistics.median(totals) / statistics.median(plain) - 1.0,
        "trace.coverage": statistics.median(
            sum(t[layer] for layer in wl.LAYERS) / total
            for t, total in zip(selfs, totals)
        ),
    })
    if hits + misses:
        metrics["session.hit_ratio"] = hits / (hits + misses)
    candidates = counters["mining.candidates"]
    rows_scanned = counters["mining.rows_scanned"]
    splits = counters["discretize.splits_tried"]
    merged = counters["polarity.duplicates_merged"]
    if candidates:
        metrics["mine.candidates"] = candidates
        metrics["mine.yield"] = itemsets / candidates
    if rows_scanned:
        metrics["mine.rows_scanned"] = rows_scanned
        metrics["mine.ns_per_row_scanned"] = (
            metrics["mine.self_s"] / rows_scanned * 1e9
        )
    if splits:
        metrics["discretize.splits_tried"] = splits
        metrics["discretize.us_per_split"] = (
            metrics["discretize.self_s"] / splits * 1e6
        )
    if merged is not None:
        metrics["polarity.dup_ratio"] = merged / itemsets
    for name, value in counters.items():
        if value is None:
            print(f"{w.name}: counter {name} missing", file=sys.stderr)
    return {"attempted": queries, "failed": failed, "errors": errors,
            "metrics": metrics}


def run(w: wl.Workload, seed: int, seconds: float, trace: bool, quick: bool,
        golden: dict | None) -> dict:
    """One run of one workload in this process; returns its record.

    Besides the metrics, the record keeps the run's mean speed factor and
    its CPU utilisation (CPU seconds of this process and its reaped
    children over wall seconds). compare.py reads both: the speed
    correction cannot tell a neighbour's load from load the program puts
    on the other core itself, and the utilisation shows the latter.
    """
    cpu0, t0 = os.times(), time.perf_counter()
    with wl.SpeedProbe() as probe:
        s = set_up(w, seed, golden, 1 if quick else SETUPS, probe)
        measure = trace_layers if trace else time_queries
        body = measure(w, s, seconds, probe)
        t1 = time.perf_counter()
        speed_factor = probe.factor(t0, t1)
    cpu1 = os.times()
    cpu_s = sum(cpu1[:4]) - sum(cpu0[:4])
    errors = s.errors + body["errors"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "quick": quick,
        "correct": not errors,
        "attempted": body["attempted"],
        "failed": int(body["failed"]),
        "errors": errors[:20],
        "speed_factor": speed_factor,
        "cpu_util": cpu_s / (t1 - t0),
        "samples": body.get("samples", []),
        "wall": body.get("wall", []),
        "metrics": {
            name: {"value": body["metrics"][name], "unit": unit}
            for name, unit in units.items()
            if name in body["metrics"]
        },
    }


# -- reporting --------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100)[pct - 1]
    return None


def print_metrics(workload: str, metrics: dict, samples: list[float],
                  wall: list[float], attempted: int, failed: int) -> None:
    def line(name: str, value: float, unit: str, note: str = "") -> None:
        print(f"{workload:18s} {name:26s} {value:14.6g} {unit}{note}")

    for name, m in metrics.items():
        note = f"  (n={len(samples)} queries)" if name.startswith("query_s") else ""
        line(name, m["value"], m["unit"], note)
    line("failed_frac", failed / attempted, "ratio", f"  ({failed}/{attempted})")
    if not samples:
        return
    diagnostic = "  (diagnostic, not gated)"
    tail = tail_percentile(samples)
    if tail is not None:
        line(f"query_s.p{tail[0]}", tail[1], "s", diagnostic)
    line("query_wall_s.p50", statistics.median(wall), "s", diagnostic)
    line("query_wall_s.min", min(wall), "s", diagnostic)


def load_golden(w: wl.Workload, quick: bool) -> dict | None:
    if quick:
        return None
    return json.loads(GOLDEN.read_text())[w.name]


def default_seconds(quick: bool) -> float:
    if quick:
        return 0.0
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def run_one(args: argparse.Namespace) -> int:
    w = wl.WORKLOADS[args.workload]
    if args.quick:
        w = w.quick()
    seconds = args.seconds if args.seconds is not None else default_seconds(args.quick)
    record = run(w, args.seed, seconds, bool(args.trace), args.quick,
                 load_golden(w, args.quick))
    for error in record["errors"]:
        print(f"{w.name}: {error}", file=sys.stderr)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print_metrics(w.name, record["metrics"], record["samples"], record["wall"],
                  record["attempted"], record["failed"])
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def suite(args: argparse.Namespace) -> int:
    """Every workload: rounds of fresh timed processes, then one traced."""
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    rounds = 1 if args.quick else ROUNDS
    seconds = (
        args.seconds if args.seconds is not None
        else default_seconds(args.quick) / rounds
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in wl.WORKLOADS:
        for stale in [*out.glob(f"{name}-r*.json"), out / f"{name}-trace.json"]:
            stale.unlink(missing_ok=True)
    jobs = [(name, 0, f"{name}-r{r}.json") for r in range(rounds) for name in names]
    if not args.no_trace:
        jobs += [(name, 1, f"{name}-trace.json") for name in names]
    ok = True
    t_start = time.perf_counter()
    for name, trace, filename in jobs:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--record", str(out / filename)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: worker exited with {proc.returncode}", file=sys.stderr)
            ok = False
    records = [json.loads(p.read_text()) for _, _, f in jobs
               if (p := out / f).exists()]
    for name in names:
        timed = [r for r in records if r["workload"] == name and not r["trace"]]
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        if timed:
            samples = [x for r in timed for x in r["samples"]]
            metrics = {
                "setup_s": statistics.median(
                    r["metrics"]["setup_s"]["value"] for r in timed),
                "peak_rss_mb": max(
                    r["metrics"]["peak_rss_mb"]["value"] for r in timed),
            }
            if samples:
                metrics["query_s.p50"] = statistics.median(samples)
            print_metrics(
                name,
                {k: {"value": metrics[k], "unit": u}
                 for k, u in END_TO_END_UNITS.items() if k in metrics},
                samples,
                [x for r in timed for x in r["wall"]],
                sum(r["attempted"] for r in timed),
                sum(r["failed"] for r in timed),
            )
        for r in traced:
            print_metrics(name, r["metrics"], [], [], r["attempted"], r["failed"])
        for r in timed + traced:
            ok &= r["correct"] and r["failed"] == 0
            for error in r["errors"]:
                print(f"{name}: {error}", file=sys.stderr)
    print(f"perfbench: {len(records)}/{len(jobs)} runs in "
          f"{time.perf_counter() - t_start:.0f} s, records in {out}, "
          f"{'all outputs correct' if ok else 'FAILED'}")
    return 0 if ok and len(records) == len(jobs) else 1


def write_golden() -> int:
    golden = {}
    with wl.SpeedProbe() as probe:
        for w in wl.WORKLOADS.values():
            golden[w.name] = set_up(w, 0, None, 1, probe).expected
            print(f"{w.name}: {golden[w.name]['subgroups']} subgroups")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="row permutation of every dataset (default 0)")
    p.add_argument("--seconds", type=float,
                   help="timed window per process (default: BENCHMARK.json "
                        f"run_seconds, divided by {ROUNDS} for the protocol)")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="run one workload in this process: 0 timed, 1 traced")
    p.add_argument("--no-trace", action="store_true",
                   help="skip the traced processes of the whole protocol")
    p.add_argument("--quick", action="store_true",
                   help="small workloads, one round of one query each")
    p.add_argument("--out", default=str(RESULTS / "suite"),
                   help="directory for the per-process records")
    p.add_argument("--record", help=argparse.SUPPRESS)
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate perfbench/golden.json at seed 0")
    args = p.parse_args(argv)
    if args.trace is not None and args.workload is None:
        p.error("--trace needs --workload")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.write_golden:
        return write_golden()
    if args.trace is not None:
        return run_one(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
