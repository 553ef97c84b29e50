"""repro.obs — hierarchical spans, metrics, and benchmark telemetry.

The observability layer for the whole pipeline. Create an
:class:`ObsCollector`, pass it via ``ExploreConfig(obs=...)`` (or the
``obs=`` keyword of any explorer / mining entry point), and read back a
span tree plus a counter/gauge registry. When no collector is supplied
everything defaults to the :data:`NULL_OBS` no-op singleton, which
keeps the hot paths effectively free and the outputs bit-identical.

See ``docs/OBSERVABILITY.md`` for the span/metric inventory and the
JSON schemas of the run log and ``BENCH_*.json`` files. The run log
(``repro.obs.runlog``) is a run's one on-disk recording. Post-mortem
forensics live in ``repro.obs.bundle`` (run bundles, exported here),
``repro.obs.diff`` and ``repro.obs.doctor`` (standalone ``python -m``
tools, like ``repro.obs.tail``).
"""

from repro.obs.bench import (
    BENCH_SCHEMA,
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
    write_chrome_trace,
)
from repro.obs.profile import MemTracker, max_rss_kb
from repro.obs.runlog import (
    JsonlRunLog,
    ProgressRenderer,
    read_run_log,
    validate_run_log,
)
from repro.obs.report import obs_summary, render_text

# cpuprof symbols resolve lazily (PEP 562) so that
# `python -m repro.obs.cpuprof` does not import the module twice via
# the package.
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
    if name in _CPUPROF_EXPORTS:
        from repro.obs import cpuprof

        return getattr(cpuprof, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BENCH_SCHEMA",
    "BUNDLE_SCHEMA",
    "CPUPROF_SCHEMA",
    "EVENTS_SCHEMA",
    "NULL_OBS",
    "AnyCollector",
    "Bundle",
    "CpuProfiler",
    "Event",
    "EventStream",
    "JsonlRunLog",
    "MemTracker",
    "NullCollector",
    "ObsCollector",
    "ProgressRenderer",
    "RunBundle",
    "RunCancelled",
    "RunController",
    "Span",
    "as_event_stream",
    "bench_payload",
    "config_fingerprint",
    "cpuprof_payload",
    "event_counts",
    "function_seconds",
    "load_bundle",
    "load_cpuprof",
    "max_rss_kb",
    "obs_summary",
    "read_run_log",
    "render_text",
    "resolve_obs",
    "to_chrome_trace",
    "to_folded",
    "to_speedscope",
    "trim_spans",
    "validate_bench_payload",
    "validate_bundle",
    "validate_cpuprof_payload",
    "validate_run_log",
    "write_bench_json",
    "write_chrome_trace",
    "write_cpuprof",
]
