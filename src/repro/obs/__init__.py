"""repro.obs — hierarchical spans, metrics, and benchmark telemetry.

The observability layer for the whole pipeline. Create an
:class:`ObsCollector`, pass it via ``ExploreConfig(obs=...)`` (or the
``obs=`` keyword of any explorer / mining entry point), and read back a
span tree plus a counter/gauge registry. When no collector is supplied
everything defaults to the :data:`NULL_OBS` no-op singleton, which
keeps the hot paths effectively free and the outputs bit-identical.

See ``docs/OBSERVABILITY.md`` for the span/metric inventory and the
JSON schemas of trace, metrics, and ``BENCH_*.json`` files. Post-mortem
forensics live in ``repro.obs.bundle`` (run bundles, exported here),
``repro.obs.diff`` and ``repro.obs.doctor`` (standalone ``python -m``
tools, like ``repro.obs.tail``).
"""

from repro.obs.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_V1,
    bench_payload,
    config_fingerprint,
    trim_spans,
    validate_bench_payload,
    write_bench_json,
)
from repro.obs.bundle import (
    BUNDLE_SCHEMA,
    Bundle,
    RunBundle,
    bundle_scope,
    load_bundle,
    validate_bundle,
)
from repro.obs.collector import (
    NULL_OBS,
    AnyCollector,
    NullCollector,
    ObsCollector,
    Span,
    resolve_obs,
)
from repro.obs.events import (
    EVENTS_SCHEMA,
    Event,
    EventStream,
    RunCancelled,
    RunController,
    as_event_stream,
    event_counts,
    to_chrome_trace,
    worker_event_queue,
    write_chrome_trace,
)
from repro.obs.profile import MemTracker, max_rss_kb
from repro.obs.runlog import (
    JsonlRunLog,
    ProgressRenderer,
    read_run_log,
    validate_run_log,
)
from repro.obs.report import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    metrics_payload,
    obs_summary,
    render_text,
    trace_payload,
    write_metrics,
    write_trace,
)

# perfdb and cpuprof symbols resolve lazily (PEP 562) so that
# `python -m repro.obs.perfdb` / `python -m repro.obs.cpuprof` do not
# import those modules twice via the package.
_PERFDB_EXPORTS = frozenset({
    "PERFDB_SCHEMA",
    "Comparison",
    "GatePolicy",
    "PhaseComparison",
    "append_record",
    "compare_payload",
    "load_history",
    "record_from_payload",
    "record_payload",
    "report_payload",
    "validate_record",
})

_CPUPROF_EXPORTS = frozenset({
    "CPUPROF_SCHEMA",
    "CpuProfiler",
    "cpuprof_payload",
    "function_seconds",
    "load_cpuprof",
    "to_folded",
    "to_speedscope",
    "validate_cpuprof_payload",
    "write_cpuprof",
})


def __getattr__(name: str):
    if name in _PERFDB_EXPORTS:
        from repro.obs import perfdb

        return getattr(perfdb, name)
    if name in _CPUPROF_EXPORTS:
        from repro.obs import cpuprof

        return getattr(cpuprof, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_V1",
    "BUNDLE_SCHEMA",
    "CPUPROF_SCHEMA",
    "EVENTS_SCHEMA",
    "METRICS_SCHEMA",
    "NULL_OBS",
    "PERFDB_SCHEMA",
    "TRACE_SCHEMA",
    "AnyCollector",
    "Bundle",
    "Comparison",
    "CpuProfiler",
    "Event",
    "EventStream",
    "GatePolicy",
    "JsonlRunLog",
    "MemTracker",
    "NullCollector",
    "ObsCollector",
    "PhaseComparison",
    "ProgressRenderer",
    "RunBundle",
    "RunCancelled",
    "RunController",
    "Span",
    "append_record",
    "as_event_stream",
    "bench_payload",
    "bundle_scope",
    "compare_payload",
    "config_fingerprint",
    "cpuprof_payload",
    "event_counts",
    "function_seconds",
    "load_bundle",
    "load_cpuprof",
    "load_history",
    "max_rss_kb",
    "metrics_payload",
    "obs_summary",
    "read_run_log",
    "record_from_payload",
    "record_payload",
    "render_text",
    "report_payload",
    "resolve_obs",
    "to_chrome_trace",
    "to_folded",
    "to_speedscope",
    "trace_payload",
    "trim_spans",
    "validate_bench_payload",
    "validate_bundle",
    "validate_cpuprof_payload",
    "validate_record",
    "validate_run_log",
    "worker_event_queue",
    "write_bench_json",
    "write_chrome_trace",
    "write_cpuprof",
    "write_metrics",
    "write_trace",
]
