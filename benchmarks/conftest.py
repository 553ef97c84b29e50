"""Shared fixtures for the benchmark harness.

Each bench regenerates one paper artifact (table or figure), times the
computation via pytest-benchmark (single round — these are experiment
reproductions, not microbenchmarks), and writes the rendered output to
``benchmark_results/<name>.txt`` as well as stdout. Every artifact
also gets a machine-readable ``BENCH_<name>.json`` (schema
``repro.obs/bench@2``): phase timings, the metric counters/gauges, the
span trace (trimmed to :data:`MAX_SPAN_DEPTH` so deep mining recursions
do not bloat checked-in fixtures), and a fingerprint of the
configuration that produced it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import load_context
from repro.obs import NULL_OBS, write_bench_json, write_chrome_trace

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmark_results"

#: Span depth kept in BENCH_*.json fixtures. Depth 4 retains the
#: explore phases plus one level of mining internals; deeper recursion
#: collapses into ``children_dropped``/``children_seconds`` totals.
MAX_SPAN_DEPTH = 4


@pytest.fixture(scope="session")
def emit():
    """Write a rendered artifact to stdout and benchmark_results/.

    ``_emit(name, text, obs=..., config=..., extra=...)`` writes
    ``<name>.txt`` plus the telemetry sidecar ``BENCH_<name>.json``.
    Benches that never built a collector still get a (schema-valid,
    empty-metrics) sidecar, so downstream tooling can rely on the
    file's existence.
    Collectors that carry spans or an event stream additionally get a
    ``BENCH_<name>.trace.json`` sibling — a Chrome trace-event file
    loadable in Perfetto / ``chrome://tracing``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name, text, obs=NULL_OBS, config=None, extra=None,
              max_span_depth=MAX_SPAN_DEPTH):
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        write_bench_json(
            RESULTS_DIR / f"BENCH_{name}.json",
            name, obs=obs, config=config, extra=extra,
            max_span_depth=max_span_depth,
        )
        if getattr(obs, "events", None) is not None or getattr(
            obs, "roots", None
        ):
            write_chrome_trace(
                RESULTS_DIR / f"BENCH_{name}.trace.json", obs=obs, name=name
            )

    return _emit


@pytest.fixture(scope="session")
def compas_ctx():
    return load_context("compas")


@pytest.fixture(scope="session")
def peak_ctx():
    return load_context("synthetic-peak")


@pytest.fixture(scope="session")
def folktables_ctx():
    return load_context("folktables")


@pytest.fixture(scope="session")
def sweep_contexts(compas_ctx, peak_ctx):
    """Contexts for the multi-dataset sweeps (Figures 2, 3b, 4)."""
    contexts = {"compas": compas_ctx, "synthetic-peak": peak_ctx}
    for name in ("adult", "bank", "german", "intentions", "wine"):
        contexts[name] = load_context(name)
    return contexts


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
