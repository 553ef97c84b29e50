"""Cross-run trace diff and regression attribution.

``python -m repro.obs.diff A B`` compares two runs — B (current)
against A (baseline) — and explains *what* got slower and *why*. Each
side may be:

* a **bundle directory** (see ``repro.obs.bundle``), or
* a **JSONL run log** (``repro.obs/events@1``; the span tree is
  reconstructed from open/close events).

Span trees are aligned by dotted path and scored with two noise
thresholds (``rel_threshold`` and ``abs_threshold`` of
:func:`diff_payload`): a regression must exceed **both** the relative
and the absolute slack, so microsecond phases cannot trip on timer
jitter. On top of the per-phase deltas the diff computes
counter/gauge/mem-peak shifts and *attributes* the top regressions:
each regressed phase is annotated with the counter families that moved
with it (candidate blow-ups, say) and, when both runs carry sampled CPU
tables, the functions whose self time grew.

Output is text or JSON (schema ``repro.obs/diff@1``); exit status is 1
when any phase regressed, so the module doubles as a CI gate between
two bundles.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.bundle import (
    MANIFEST_FILENAME,
    load_bundle,
    trace_phase_seconds,
)
from repro.obs.cpuprof import function_seconds
from repro.obs.events import EVENTS_SCHEMA
from repro.obs.runlog import read_run_log

DIFF_SCHEMA = "repro.obs/diff@1"

#: Default noise thresholds: a phase regresses only when it is more
#: than 50 % *and* more than 50 ms slower.
REL_THRESHOLD = 0.5
ABS_THRESHOLD_SECONDS = 0.05

#: Relative change below which a counter shift is noise, not a suspect.
COUNTER_SHIFT_THRESHOLD = 0.05

#: Mem-peak changes need both a relative and an absolute floor (1 MiB),
#: mirroring the wall-clock policy shape.
MEM_ABS_THRESHOLD_BYTES = 1 << 20

#: Function self-time growth (seconds) worth naming in an attribution
#: when both runs carry sampled cpuprof tables.
FUNCTION_SELF_THRESHOLD_SECONDS = 0.02

#: How many regressed functions an attribution entry names.
FUNCTION_SUSPECTS = 3

#: Counter-name prefixes consulted when attributing a phase regression,
#: keyed by span-path segment.
PHASE_COUNTER_HINTS: dict[str, tuple[str, ...]] = {
    "mine": ("mining.", "session.mined."),
    "discretize": ("discretize.", "session.trees."),
    "encode": ("encode.",),
    "explore": ("mining.", "discretize."),
    "sweep": ("session.",),
}


@dataclass(frozen=True)
class RunProfile:
    """One run, normalized for diffing whatever artifact it came from."""

    label: str
    source: str
    phases: Mapping[str, float]
    counters: Mapping[str, int]
    gauges: Mapping[str, float]
    mem_peaks: Mapping[str, int]
    #: The run's ``repro.obs/cpuprof@1`` payload, when the artifact was
    #: captured (bundles only); enables function-level attribution.
    cpu: Mapping[str, Any] | None = None


def _profile_from_events(
    events: Iterable[Mapping[str, Any]],
) -> tuple[dict[str, float], dict[str, int]]:
    """(phases, counters) from run-log records.

    Phases are rebuilt from ``span_open``/``span_close`` pairs — the
    close event carries its ``seconds`` — using a name stack to
    recover the dotted path. Counters come from the last (cumulative)
    ``counters`` snapshot.
    """
    phases: dict[str, float] = {}
    counters: dict[str, int] = {}
    stack: list[str] = []
    for record in events:
        kind = record.get("kind")
        name = str(record.get("name", ""))
        attrs = record.get("attrs") or {}
        if kind == "span_open":
            stack.append(name)
        elif kind == "span_close":
            if name in stack:
                # Unwind to the matching open (tolerates a truncated
                # log whose inner closes were lost).
                i = len(stack) - 1 - stack[::-1].index(name)
                path = ".".join(stack[: i + 1])
                del stack[i:]
            else:
                path = name
            phases[path] = phases.get(path, 0.0) + float(
                attrs.get("seconds", 0.0)
            )
        elif kind == "counters":
            snapshot = attrs.get("counters")
            if isinstance(snapshot, Mapping):
                counters = {str(k): int(v) for k, v in snapshot.items()}
    return phases, counters


def _profile_from_bundle(directory: Path, label: str) -> RunProfile:
    bundle = load_bundle(directory)
    _, counters = _profile_from_events(bundle.events)
    # The bundled metrics are authoritative; the run log's last
    # counter snapshot stands in when they are empty.
    counters = bundle.counters or counters
    return RunProfile(
        label=label or f"{bundle.name}@{bundle.manifest.get('git_sha', '?')}",
        source="bundle",
        phases=bundle.phase_seconds(),
        counters=counters,
        gauges=bundle.gauges,
        mem_peaks=bundle.mem_peaks,
        cpu=bundle.cpuprof,
    )


def _profile_from_run_log(path: Path, label: str) -> RunProfile:
    records = read_run_log(path)
    header = records[0] if records else {}
    if header.get("kind") != "header" or header.get("schema") != EVENTS_SCHEMA:
        raise ValueError(f"{path}: not a {EVENTS_SCHEMA} run log")
    phases, counters = _profile_from_events(records[1:])
    return RunProfile(
        label=label or path.name,
        source="run-log",
        phases=phases,
        counters=counters,
        gauges={},
        mem_peaks={},
    )


def load_profile(spec: str, label: str = "") -> RunProfile:
    """Normalize one CLI operand into a :class:`RunProfile`.

    ``spec`` is a bundle directory or a JSONL run log.
    """
    path = Path(spec)
    if path.is_dir():
        if not (path / MANIFEST_FILENAME).exists():
            raise ValueError(f"{path}: directory has no {MANIFEST_FILENAME}")
        return _profile_from_bundle(path, label)
    if not path.is_file():
        raise ValueError(f"{spec}: no such bundle or run log")
    return _profile_from_run_log(path, label)


# -- delta computation -----------------------------------------------------


def _status(
    baseline: float | None,
    current: float | None,
    rel_threshold: float,
    abs_threshold: float,
) -> str:
    if baseline is None:
        return "added"
    if current is None:
        return "removed"
    delta = current - baseline
    if delta > abs_threshold and current > baseline * (1.0 + rel_threshold):
        return "regression"
    if -delta > abs_threshold and current < baseline * (1.0 - rel_threshold):
        return "improved"
    return "ok"


def _ratio(baseline: float | None, current: float | None) -> float | None:
    if baseline is None or current is None:
        return None
    if baseline == 0.0:  # reprolint: disable=RPL006 (exact-zero guard)
        return None
    return current / baseline


def _phase_rows(
    a: RunProfile, b: RunProfile, rel_threshold: float, abs_threshold: float
) -> list[dict[str, Any]]:
    rows = []
    for path in sorted(set(a.phases) | set(b.phases)):
        base = a.phases.get(path)
        cur = b.phases.get(path)
        rows.append({
            "path": path,
            "a_seconds": base,
            "b_seconds": cur,
            "delta_seconds": (cur or 0.0) - (base or 0.0),
            "ratio": _ratio(base, cur),
            "status": _status(base, cur, rel_threshold, abs_threshold),
        })
    return rows


def _counter_rows(a: RunProfile, b: RunProfile) -> list[dict[str, Any]]:
    rows = []
    for name in sorted(set(a.counters) | set(b.counters)):
        va, vb = a.counters.get(name), b.counters.get(name)
        if va == vb:
            continue
        rows.append({
            "name": name,
            "a": va,
            "b": vb,
            "delta": (vb or 0) - (va or 0),
        })
    return rows


def _mem_rows(
    a: RunProfile, b: RunProfile, rel_threshold: float
) -> list[dict[str, Any]]:
    rows = []
    for path in sorted(set(a.mem_peaks) | set(b.mem_peaks)):
        base = a.mem_peaks.get(path)
        cur = b.mem_peaks.get(path)
        rows.append({
            "path": path,
            "a_bytes": base,
            "b_bytes": cur,
            "delta_bytes": (cur or 0) - (base or 0),
            "status": _status(
                None if base is None else float(base),
                None if cur is None else float(cur),
                rel_threshold,
                MEM_ABS_THRESHOLD_BYTES,
            ),
        })
    return rows


def _format_count(value: Any) -> str:
    return "—" if value is None else f"{value}"


def _function_rows(a: RunProfile, b: RunProfile) -> list[dict[str, Any]]:
    """Per-function self-time deltas when both runs carry cpu tables."""
    if not a.cpu or not b.cpu:
        return []
    fa, fb = function_seconds(a.cpu), function_seconds(b.cpu)
    rows = []
    for name in sorted(set(fa) | set(fb)):
        base, cur = fa.get(name), fb.get(name)
        delta = (cur or 0.0) - (base or 0.0)
        if abs(delta) < FUNCTION_SELF_THRESHOLD_SECONDS:
            continue
        rows.append({
            "function": name,
            "a_seconds": base,
            "b_seconds": cur,
            "delta_seconds": delta,
            "ratio": _ratio(base, cur),
        })
    rows.sort(key=lambda r: (-abs(r["delta_seconds"]), r["function"]))
    return rows


def _function_suspects(
    a: RunProfile, b: RunProfile, path: str
) -> list[str]:
    """Name the functions whose sampled self time grew under ``path``.

    Uses span-scoped sums when the cpu tables hold samples for the
    regressed path (or its dotted descendants); falls back to run-wide
    sums otherwise.
    """
    if not a.cpu or not b.cpu:
        return []
    fa = function_seconds(a.cpu, span_prefix=path)
    fb = function_seconds(b.cpu, span_prefix=path)
    scope = ""
    if not fa and not fb:
        fa, fb = function_seconds(a.cpu), function_seconds(b.cpu)
        scope = ", run-wide"
    growth = []
    for name in set(fa) | set(fb):
        delta = fb.get(name, 0.0) - fa.get(name, 0.0)
        if delta >= FUNCTION_SELF_THRESHOLD_SECONDS:
            growth.append((delta, name))
    growth.sort(key=lambda g: (-g[0], g[1]))
    out = []
    for delta, name in growth[:FUNCTION_SUSPECTS]:
        base = fa.get(name)
        shift = (
            f"{fb.get(name, 0.0) / base:.1f}x" if base else "new"
        )
        out.append(
            f"function {name}: self +{delta:.3f}s ({shift}{scope})"
        )
    return out


def _counter_suspects(
    path: str, counter_rows: list[dict[str, Any]]
) -> list[str]:
    """Counter shifts plausibly behind a regression in ``path``."""
    prefixes: tuple[str, ...] = ()
    for segment in path.split("."):
        prefixes += PHASE_COUNTER_HINTS.get(segment, ())
    suspects = []
    for row in counter_rows:
        name = row["name"]
        if prefixes and not name.startswith(prefixes):
            continue
        va, vb = row["a"], row["b"]
        if va in (None, 0):
            rel = None
        else:
            rel = (vb or 0) / va - 1.0
        if rel is not None and abs(rel) < COUNTER_SHIFT_THRESHOLD:
            continue
        shift = f"{_format_count(va)} -> {_format_count(vb)}"
        if rel is not None:
            shift += f" ({rel:+.0%})"
        suspects.append(f"counter {name}: {shift}")
    return suspects


def _attribution(
    a: RunProfile,
    b: RunProfile,
    phase_rows: list[dict[str, Any]],
    counter_rows: list[dict[str, Any]],
    top: int,
) -> list[dict[str, Any]]:
    """Explain the ``top`` regressions by the signals that moved with them."""
    regressed = sorted(
        (r for r in phase_rows if r["status"] == "regression"),
        key=lambda r: r["delta_seconds"],
        reverse=True,
    )[:top]
    out = []
    for row in regressed:
        path = row["path"]
        suspects = _function_suspects(a, b, path)
        suspects.extend(_counter_suspects(path, counter_rows))
        if not suspects:
            suspects.append(
                "no correlated counter shift — suspect the phase's own "
                "code path or the environment"
            )
        out.append({
            "path": path,
            "delta_seconds": row["delta_seconds"],
            "ratio": row["ratio"],
            "suspects": suspects,
        })
    return out


def diff_payload(
    a: RunProfile,
    b: RunProfile,
    *,
    rel_threshold: float = REL_THRESHOLD,
    abs_threshold: float = ABS_THRESHOLD_SECONDS,
    top: int = 3,
) -> dict[str, Any]:
    """The full diff of two profiles as a ``repro.obs/diff@1`` payload.

    A phase regresses when it is slower by more than ``rel_threshold``
    (relative) *and* ``abs_threshold`` seconds; a mem peak, by more
    than ``rel_threshold`` and :data:`MEM_ABS_THRESHOLD_BYTES`.
    """
    if rel_threshold < 0 or abs_threshold < 0:
        raise ValueError("thresholds must be non-negative")
    phase_rows = _phase_rows(a, b, rel_threshold, abs_threshold)
    counter_rows = _counter_rows(a, b)
    statuses = [r["status"] for r in phase_rows]
    return {
        "schema": DIFF_SCHEMA,
        "a": {"label": a.label, "source": a.source},
        "b": {"label": b.label, "source": b.source},
        "policy": {
            "rel_threshold": rel_threshold,
            "abs_threshold": abs_threshold,
        },
        "phases": phase_rows,
        "counters": counter_rows,
        "mem_peaks": _mem_rows(a, b, rel_threshold),
        "cpu_functions": _function_rows(a, b),
        "attribution": _attribution(a, b, phase_rows, counter_rows, top),
        "summary": {
            "regressions": statuses.count("regression"),
            "improved": statuses.count("improved"),
            "total_delta_seconds": sum(
                r["delta_seconds"] for r in phase_rows
            ),
        },
    }


def render_diff_text(payload: Mapping[str, Any]) -> str:
    """Human-readable diff report: one row per phase, then attribution."""
    title = (
        f"obs diff: {payload['a']['label']} ({payload['a']['source']}) "
        f"-> {payload['b']['label']} ({payload['b']['source']})"
    )
    lines = [title, "-" * len(title)]
    for row in payload["phases"]:
        base = (
            f"{row['a_seconds'] * 1e3:10.2f} ms"
            if row["a_seconds"] is not None else f"{'—':>13s}"
        )
        cur = (
            f"{row['b_seconds'] * 1e3:10.2f} ms"
            if row["b_seconds"] is not None else f"{'—':>13s}"
        )
        ratio = (
            f"{row['ratio']:6.2f}x" if row["ratio"] is not None
            else f"{'—':>7s}"
        )
        lines.append(
            f"  {row['path']:<32s} {base}  {cur}  {ratio}  {row['status']}"
        )
    if payload["mem_peaks"]:
        lines.append("  mem peaks:")
        for row in payload["mem_peaks"]:
            lines.append(
                f"    {row['path']:<30s} "
                f"{_format_count(row['a_bytes']):>12s} -> "
                f"{_format_count(row['b_bytes']):>12s} B  {row['status']}"
            )
    if payload.get("cpu_functions"):
        lines.append("  cpu functions (sampled self time):")
        for row in payload["cpu_functions"][:10]:
            ratio = (
                f"{row['ratio']:.2f}x" if row["ratio"] is not None else "new"
            )
            lines.append(
                f"    {row['function']:<48s} "
                f"{row['delta_seconds']:+.3f}s  {ratio}"
            )
    if payload["attribution"]:
        lines.append("  attribution:")
        for entry in payload["attribution"]:
            ratio = (
                f"{entry['ratio']:.2f}x" if entry["ratio"] is not None
                else "new"
            )
            lines.append(
                f"    {entry['path']}: +{entry['delta_seconds'] * 1e3:.2f} ms"
                f" ({ratio})"
            )
            for suspect in entry["suspects"]:
                lines.append(f"      - {suspect}")
    summary = payload["summary"]
    verdict = (
        "PASS"
        if summary["regressions"] == 0
        else f"FAIL ({summary['regressions']} regression"
        f"{'' if summary['regressions'] == 1 else 's'})"
    )
    lines.append(f"  => {verdict}")
    return "\n".join(lines)


# -- CLI -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description=(
            "Diff two runs (bundle dirs or run logs) and attribute "
            "regressions. Exit 1 when B regressed vs A."
        ),
    )
    parser.add_argument("a", help="baseline: bundle dir or run log")
    parser.add_argument("b", help="current: same forms as the baseline")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rel-threshold", type=float, default=REL_THRESHOLD,
        dest="rel_threshold",
        help="relative slowdown tolerated before a regression (0.5 = +50%%)",
    )
    parser.add_argument(
        "--abs-threshold", type=float, default=ABS_THRESHOLD_SECONDS,
        dest="abs_threshold",
        help="absolute slowdown (seconds) a regression must also exceed",
    )
    parser.add_argument(
        "--top", type=int, default=3,
        help="how many regressions to attribute (default: 3)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        a = load_profile(args.a)
        b = load_profile(args.b)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = diff_payload(
        a, b, rel_threshold=args.rel_threshold,
        abs_threshold=args.abs_threshold, top=args.top,
    )
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_diff_text(payload))
    return 1 if payload["summary"]["regressions"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
