"""Self-test of the benchmark: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import workloads as wl  # noqa: E402
from repro import ExploreConfig  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("records")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    records = [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]
    return proc, records


def test_quick_run_is_correct_and_fails_nothing(quick_run):
    proc, records = quick_run
    assert proc.returncode == 0, proc.stderr
    assert len(records) == 2 * len(wl.WORKLOADS)
    for r in records:
        assert r["correct"], r["errors"]
        assert r["attempted"] >= 1
        assert r["failed"] == 0


def test_metric_names_and_units_match_benchmark(quick_run):
    proc, records = quick_run
    declared = {
        0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCH["per_layer"]},
    }
    printed = {
        (line.split()[0], line.split()[1], line.split()[3])
        for line in proc.stdout.splitlines()
        if len(line.split()) >= 4
    }
    for r in records:
        units = {name: m["unit"] for name, m in r["metrics"].items()}
        assert units == declared[r["trace"]]
        for name, unit in units.items():
            assert (r["workload"], name, unit) in printed


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_decomposed_pipeline_equals_explorer_and_session(name):
    w = wl.WORKLOADS[name].quick()
    inputs = wl.make_inputs(w, seed=0)
    session, _ = wl.bind_session(w, inputs)
    for fields in (w.cold_fields(), w.query):
        result, top, _ = wl.traced_query(fields, inputs, wl.Tracer(), 0)
        decomposed = wl.fingerprint(result, top)
        explorer = wl.fingerprint(*wl.cold_query(fields, inputs))
        warm = session.explore(ExploreConfig(**fields))
        assert decomposed == explorer
        assert decomposed == wl.fingerprint(warm, warm.top_k(wl.TOP_K))


def test_seed_changes_the_inputs_but_not_the_subgroups():
    w = wl.WORKLOADS["german-deep"].quick()
    a, b = wl.make_inputs(w, seed=0), wl.make_inputs(w, seed=1)
    assert not np.array_equal(a.outcome, b.outcome)
    assert not a.table.equals(b.table)
    assert wl.fingerprint(*wl.cold_query(w.query, a)) == wl.fingerprint(
        *wl.cold_query(w.query, b)
    )


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1.0, 1.01, 0.99, 1.0] * 3, [0.80, 0.81, 0.79, 0.80] * 3, "better"),
        # The same gain from fewer than ten pairs is not claimed.
        ([1.0, 1.01, 0.99, 1.0], [0.80, 0.81, 0.79, 0.80], "within"),
        ([1.0, 1.01, 0.99, 1.0], [1.20, 1.21, 1.19, 1.20], "worse"),
        ([1.0, 1.01, 0.99, 1.0], [1.02, 0.99, 1.01, 1.0], "within"),
        ([1.0, 1.5, 0.7, 1.2], [1.1, 1.4, 0.8, 1.0], "unresolved"),
    ],
)
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(a, b, bound=0.1, lower_is_better=True) == expected


def test_compare_floor_allows_small_absolute_change():
    a, b = [0.30, 0.30, 0.31, 0.30], [0.34, 0.34, 0.35, 0.34]
    assert compare.verdict(a, b, bound=0.1, lower_is_better=True) == "worse"
    assert compare.verdict(a, b, 0.1, True, floor=0.05) == "within"


def test_compare_time_unresolved_when_cpu_utilisation_differs(capsys):
    def record(seed, p50, cpu_util):
        return {"workload": "w", "seed": seed, "trace": 0, "attempted": 5,
                "failed": 0, "speed_factor": 1.0, "cpu_util": cpu_util,
                "wall": [p50],
                "metrics": {"query_s.p50": {"value": p50, "unit": "s"}}}

    bench = {"end_to_end": [
        {"name": "query_s.p50", "unit": "s", "better": "lower", "bound": 0.1}
    ]}
    parent = [record(i, 1.0, 1.0) for i in range(10)]
    assert compare.compare(parent, [record(i, 1.0, 1.0) for i in range(10)], bench) == 0
    assert "within" in capsys.readouterr().out
    loaded = [record(i, 0.8, 1.9) for i in range(10)]
    assert compare.compare(parent, loaded, bench) == 0
    out = capsys.readouterr().out
    assert "unresolved (cpu_util differs)" in out and "better" not in out
