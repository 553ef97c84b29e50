"""Compare two sets of perfbench run records.

    python perfbench/compare.py A/ B/   # A: the parent commit, B: the change
    python perfbench/compare.py A/      # one set: medians and quartiles

Each directory holds the JSON records ``run.py`` writes, one per process
(searched recursively; Chrome traces are skipped). Every timed record is
one run. For each (end-to-end metric, workload) pair the comparison
prints each side's median and quartiles, the number of run pairs, the
change of the median against the metric's bound in ``BENCHMARK.json``
(``setup_s`` may also get 50 ms worse, whichever is larger), and a
verdict:

* ``better``: at least ten run pairs, B wins at least 9/10 of them and
  the medians differ by more than A's interquartile range;
* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: a side's spread (interquartile range over median)
  exceeds the bound, unless every run of B is worse than every run of
  A; or, for a time, the two sides' CPU utilisation differs by more
  than the bound (see below);
* ``within``: otherwise.

Times are at reference CPU speed (``workloads.SpeedProbe``). The probe
cannot tell a neighbour's load from load the program puts on the other
core itself, such as worker processes, so a change that does so would
have part of its cost or gain scaled away. Such a change moves the
runs' CPU utilisation (CPU seconds of the process and its children over
wall seconds), which is why the verdict on a time needs equal
utilisation on both sides. Printed beside the gated pairs, not gated:
the raw wall-clock query median, each side's speed factor, and the
utilisation.

``failed_frac`` (failed over attempted queries) is compared too: any
increase is worse. The exit status is 1 if any pair is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Absolute slack, in the metric's unit, beside its relative bound.
FLOORS = {"setup_s": 0.05}
#: Run pairs needed before a gain is claimed.
MIN_PAIRS = 10
#: Per-run values printed beside the gated metrics.
DIAGNOSTICS = ("query_wall_s.p50", "speed_factor", "cpu_util")


def load_records(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.rglob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and {"workload", "metrics", "trace"} <= data.keys():
            records.append(data)
    return records


def runs(records: list[dict], trace: int) -> dict[tuple[str, str], list[float]]:
    """Values per (metric or diagnostic, workload), one per run, by seed."""
    values: dict[tuple[str, str], list[float]] = {}
    for r in sorted(records, key=lambda r: r["seed"]):
        if r["trace"] != trace:
            continue
        row = {name: m["value"] for name, m in r["metrics"].items()}
        row["speed_factor"] = r["speed_factor"]
        row["cpu_util"] = r["cpu_util"]
        if r["wall"]:
            row["query_wall_s.p50"] = statistics.median(r["wall"])
        for name, value in row.items():
            values.setdefault((name, r["workload"]), []).append(value)
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool,
            floor: float = 0.0) -> str:
    """Verdict on B against A for one (metric, workload) pair.

    ``bound`` is relative to A's median; ``floor`` is absolute slack in
    the metric's unit and wins where it is the larger.
    """
    sign = 1.0 if lower_is_better else -1.0
    median_a = statistics.median(a)
    if median_a:
        bound = max(bound, floor / abs(median_a))
    worse_by = sign * (statistics.median(b) - median_a)
    pairs = list(zip(a, b))
    if spread(a) > bound or spread(b) > bound:
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "worse"
        if (len(pairs) >= MIN_PAIRS
                and max(sign * x for x in b) < min(sign * x for x in a)):
            return "better"
        return "unresolved"
    if worse_by > bound * abs(median_a):
        return "worse"
    wins = sum(sign * y < sign * x for x, y in pairs)
    q1, _, q3 = quartiles(a)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and -worse_by > q3 - q1:
        return "better"
    return "within"


def failed_fracs(records: list[dict]) -> dict[str, float]:
    totals: dict[str, list[int]] = {}
    for r in records:
        if not r["trace"]:
            t = totals.setdefault(r["workload"], [0, 0])
            t[0] += r["failed"]
            t[1] += r["attempted"]
    return {w: failed / attempted for w, (failed, attempted) in totals.items()}


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def describe(records: list[dict]) -> None:
    for trace in (0, 1):
        for (name, workload), values in sorted(runs(records, trace).items()):
            dispersion = f"  spread {spread(values):.3f}" if len(values) > 1 else ""
            print(f"{name:26s} {workload:18s} n={len(values):<3d} "
                  f"{fmt(values)}{dispersion}")
    for workload, frac in sorted(failed_fracs(records).items()):
        print(f"{'failed_frac':26s} {workload:18s} {frac:.6g}")


def compare(a_records: list[dict], b_records: list[dict], bench: dict) -> int:
    a_runs, b_runs = runs(a_records, 0), runs(b_records, 0)
    worse = False

    def row(name: str, workload: str, bound: str, v: str) -> None:
        a, b = a_runs[name, workload], b_runs[name, workload]
        delta = statistics.median(b) / statistics.median(a) - 1.0
        print(f"{name:16s} {workload:18s} {fmt(a):>34s} {fmt(b):>34s} "
              f"{min(len(a), len(b)):5d} {delta:+8.1%} {bound:>6s}  {v}")

    print(f"{'metric':16s} {'workload':18s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'pairs':>5s} {'delta':>8s} {'bound':>6s}  verdict")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        workloads = sorted({w for n, w in a_runs if n == name} & {w for n, w in b_runs if n == name})
        for workload in workloads:
            v = verdict(a_runs[name, workload], b_runs[name, workload], metric["bound"],
                        metric["better"] == "lower", FLOORS.get(name, 0.0))
            if metric["unit"] == "s" and v != "worse":
                util_a = statistics.median(a_runs["cpu_util", workload])
                util_b = statistics.median(b_runs["cpu_util", workload])
                if abs(util_b / util_a - 1.0) > metric["bound"]:
                    v = "unresolved (cpu_util differs)"
            worse |= v == "worse"
            bound = f"{metric['bound']:.0%}"
            if name in FLOORS:
                bound += f"|{FLOORS[name] * 1000:g}ms"
            row(name, workload, bound, v)
    for name in DIAGNOSTICS:
        for workload in sorted({w for n, w in a_runs if n == name} & {w for n, w in b_runs if n == name}):
            row(name, workload, "", "diagnostic")
    a_fail, b_fail = failed_fracs(a_records), failed_fracs(b_records)
    for workload in sorted(a_fail.keys() & b_fail.keys()):
        v = "worse" if b_fail[workload] > a_fail[workload] else "within"
        worse |= v == "worse"
        print(f"{'failed_frac':16s} {workload:18s} {a_fail[workload]:>34.4g} "
              f"{b_fail[workload]:>34.4g} {'':>5s} {'':>8s} {'any':>6s}  {v}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path, help="records of the parent commit")
    p.add_argument("b", type=Path, nargs="?", help="records of the change")
    args = p.parse_args(argv)
    a_records = load_records(args.a)
    if not a_records:
        p.error(f"no run records under {args.a}")
    if args.b is None:
        describe(a_records)
        return 0
    b_records = load_records(args.b)
    if not b_records:
        p.error(f"no run records under {args.b}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(a_records, b_records, bench)


if __name__ == "__main__":
    sys.exit(main())
