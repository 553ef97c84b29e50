"""Text reporters for collected observability data.

:func:`render_text` dumps a collector's span tree and registries for a
terminal; :func:`obs_summary` is the ``obs`` section of
``ResultSet.summary()``. The on-disk recording of a run is its event
stream (``repro.obs.runlog``), not a file written here.
"""

from __future__ import annotations

from typing import Any

from repro.obs.collector import AnyCollector, Span


def _render_span(span: Span, depth: int, lines: list[str]) -> None:
    attrs = ""
    if span.attrs:
        parts = ", ".join(f"{k}={span.attrs[k]!r}" for k in sorted(span.attrs))
        attrs = f"  [{parts}]"
    lines.append(
        "  " * depth + f"{span.name:<24s} {span.elapsed_seconds * 1e3:10.2f} ms{attrs}"
    )
    for child in span.children:
        _render_span(child, depth + 1, lines)


def render_text(obs: AnyCollector, title: str = "observability") -> str:
    """Human-readable dump: the span tree, then counters and gauges."""
    lines = [title, "-" * len(title)]
    roots = obs.roots if obs.enabled else []
    if roots:
        lines.append("spans:")
        for root in roots:
            _render_span(root, 1, lines)
    else:
        lines.append("spans: (none)")
    metrics = obs.metrics_dict()
    if metrics["counters"]:
        lines.append("counters:")
        for name, value in metrics["counters"].items():
            lines.append(f"  {name:<40s} {value}")
    else:
        lines.append("counters: (none)")
    if metrics["gauges"]:
        lines.append("gauges:")
        for name, value in metrics["gauges"].items():
            lines.append(f"  {name:<40s} {value:g}")
    if obs.mem_peaks:
        lines.append("mem peaks:")
        for name in sorted(obs.mem_peaks):
            kib = obs.mem_peaks[name] / 1024.0
            lines.append(f"  {name:<40s} {kib:10.1f} KiB")
    return "\n".join(lines)


def obs_summary(obs: AnyCollector) -> dict[str, Any]:
    """The ``obs`` section of :meth:`repro.core.results.ResultSet.summary`.

    Phase wall times (flattened span paths), the candidate and
    frequent-itemset counts and the pruning-related counters — the
    headline observability numbers an analyst wants without reading a
    full trace. When the
    run profiled memory (``ObsCollector(profile_memory=True)``) a
    ``mem_peaks`` section (peak bytes per span path) is included.
    """
    counters = {k: obs.counters[k] for k in sorted(obs.counters)} if obs.enabled else {}
    pruning = {
        k: v
        for k, v in counters.items()
        if "pruned" in k or k.startswith("polarity.")
    }
    summary: dict[str, Any] = {
        "phases": obs.phase_seconds(),
        "candidates": obs.counter("mining.candidates"),
        "frequent_itemsets": obs.counter("mining.frequent_itemsets"),
        "pruning": pruning,
    }
    if obs.mem_peaks:
        summary["mem_peaks"] = {
            k: obs.mem_peaks[k] for k in sorted(obs.mem_peaks)
        }
    return summary
