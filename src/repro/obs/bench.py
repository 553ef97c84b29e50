"""Canonical ``BENCH_*.json`` telemetry for the benchmark harness.

Every benchmark that writes a human-readable ``benchmark_results/*.txt``
also writes a machine-readable sibling ``BENCH_<name>.json`` so future
revisions have a perf trajectory to diff against. The payload shape:

```
{
  "schema": "repro.obs/bench@2",
  "name": "fig2_divergence_time",
  "config": {...},            # ExploreConfig.to_dict() or any mapping
  "config_fingerprint": "…",  # stable hash of the config section
  "phases": {"explore.mine": 0.123, ...},
  "counters": {...},
  "gauges": {...},
  "trace": [...],             # nested span forest (trace-file schema)
  "mem_peaks": {...},         # peak bytes per phase (profiling only)
  "max_span_depth": 4,        # present when the trace was trimmed
  "extra": {...},             # benchmark-specific numbers (optional)
}
```

Two sections are optional: the ``mem_peaks`` registry (present when
the run profiled memory, see ``repro.obs.profile``) and trace trimming
— ``max_span_depth=N`` keeps only spans at depth ≤ N, annotating each
span whose subtree was cut with ``children_dropped``/
``children_seconds`` so checked-in payloads stay small without losing
the aggregate.

:func:`validate_bench_payload` is the schema check used by
``benchmarks/smoke.py`` and the tier-1 obs tests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

from repro.obs.collector import NULL_OBS, AnyCollector

BENCH_SCHEMA = "repro.obs/bench@2"


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """Stable short hash of a config mapping (sorted-key JSON, sha256)."""
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def trim_spans(
    spans: list[dict[str, Any]], max_depth: int
) -> list[dict[str, Any]]:
    """Cut a span forest below ``max_depth`` (depth 1 = the roots).

    Spans whose subtree was removed get ``children_dropped`` (count of
    removed descendants) and ``children_seconds`` (their directly
    removed children's total elapsed time) so the trimmed payload still
    accounts for where the time went.
    """
    if max_depth < 1:
        raise ValueError("max_span_depth must be >= 1")
    out: list[dict[str, Any]] = []
    for span in spans:
        trimmed = {k: v for k, v in span.items() if k != "children"}
        children = span.get("children", [])
        if children:
            if max_depth > 1:
                trimmed["children"] = trim_spans(children, max_depth - 1)
            else:
                trimmed["children_dropped"] = sum(
                    1 + _count_descendants(c) for c in children
                )
                trimmed["children_seconds"] = sum(
                    c.get("elapsed_seconds", 0.0) for c in children
                )
        out.append(trimmed)
    return out


def _count_descendants(span: Mapping[str, Any]) -> int:
    return sum(
        1 + _count_descendants(c) for c in span.get("children", [])
    )


def bench_payload(
    name: str,
    obs: AnyCollector = NULL_OBS,
    config: Mapping[str, Any] | None = None,
    extra: Mapping[str, Any] | None = None,
    max_span_depth: int | None = None,
) -> dict[str, Any]:
    """Assemble the BENCH json payload from a collector snapshot."""
    metrics = obs.metrics_dict()
    cfg = dict(config) if config else {}
    trace = obs.trace_dict()
    payload: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "config": cfg,
        "config_fingerprint": config_fingerprint(cfg),
        "phases": obs.phase_seconds(),
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
        "trace": (
            trim_spans(trace, max_span_depth)
            if max_span_depth is not None
            else trace
        ),
    }
    if max_span_depth is not None:
        payload["max_span_depth"] = int(max_span_depth)
    if obs.mem_peaks:
        payload["mem_peaks"] = {
            k: obs.mem_peaks[k] for k in sorted(obs.mem_peaks)
        }
    if extra:
        payload["extra"] = dict(extra)
    return payload


def write_bench_json(
    path: str | Path,
    name: str,
    obs: AnyCollector = NULL_OBS,
    config: Mapping[str, Any] | None = None,
    extra: Mapping[str, Any] | None = None,
    max_span_depth: int | None = None,
) -> dict[str, Any]:
    """Write ``BENCH_<name>.json`` and return the payload."""
    payload = bench_payload(
        name, obs=obs, config=config, extra=extra,
        max_span_depth=max_span_depth,
    )
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload


def validate_bench_payload(payload: Mapping[str, Any]) -> list[str]:
    """Schema-check a BENCH payload; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema is not {BENCH_SCHEMA!r}: {payload.get('schema')!r}"
        )
    if not isinstance(payload.get("name"), str) or not payload.get("name"):
        problems.append("name missing or empty")
    for key, typ in (
        ("config", dict),
        ("phases", dict),
        ("counters", dict),
        ("gauges", dict),
        ("trace", list),
    ):
        if not isinstance(payload.get(key), typ):
            problems.append(f"{key} missing or not a {typ.__name__}")
    fp = payload.get("config_fingerprint")
    if not isinstance(fp, str) or len(fp) != 16:
        problems.append("config_fingerprint missing or malformed")
    elif isinstance(payload.get("config"), dict):
        if fp != config_fingerprint(payload["config"]):
            problems.append("config_fingerprint does not match config")
    counters = payload.get("counters")
    if isinstance(counters, dict):
        bad = [k for k, v in counters.items() if not isinstance(v, int)]
        if bad:
            problems.append(f"non-integer counters: {sorted(bad)}")
    phases = payload.get("phases")
    if isinstance(phases, dict):
        bad = [k for k, v in phases.items() if not isinstance(v, (int, float)) or v < 0]
        if bad:
            problems.append(f"negative or non-numeric phases: {sorted(bad)}")
    if "mem_peaks" in payload:
        peaks = payload["mem_peaks"]
        if not isinstance(peaks, dict):
            problems.append("mem_peaks is not an object")
        else:
            bad = [
                k for k, v in peaks.items()
                if not isinstance(v, int) or v < 0
            ]
            if bad:
                problems.append(
                    f"negative or non-integer mem_peaks: {sorted(bad)}"
                )
    if "max_span_depth" in payload and (
        not isinstance(payload["max_span_depth"], int)
        or payload["max_span_depth"] < 1
    ):
        problems.append("max_span_depth must be a positive integer")
    trace = payload.get("trace")
    if isinstance(trace, list):
        problems.extend(_validate_spans(trace, "trace"))
    return problems


def _validate_spans(spans: list[Any], where: str) -> list[str]:
    problems: list[str] = []
    for i, span in enumerate(spans):
        loc = f"{where}[{i}]"
        if not isinstance(span, dict):
            problems.append(f"{loc} is not an object")
            continue
        if not isinstance(span.get("name"), str) or not span.get("name"):
            problems.append(f"{loc}.name missing")
        elapsed = span.get("elapsed_seconds")
        if not isinstance(elapsed, (int, float)) or elapsed < 0:
            problems.append(f"{loc}.elapsed_seconds missing or negative")
        children = span.get("children", [])
        if not isinstance(children, list):
            problems.append(f"{loc}.children is not a list")
        else:
            problems.extend(_validate_spans(children, f"{loc}.children"))
    return problems
