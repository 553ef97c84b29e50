"""The run doctor: pluggable post-mortem health checks over a bundle.

``python -m repro.obs.doctor BUNDLE`` loads a run bundle (see
``repro.obs.bundle``), integrity-checks it, and runs every registered
health check against it, producing a findings report (text or JSON,
schema ``repro.obs/doctor@1``). A healthy bundle yields **zero**
findings — that is the bar the ``benchmarks/smoke.py --bundle`` CI
gate holds the pipeline to.

Checks are plain functions registered with the :func:`health_check`
decorator; each receives the loaded :class:`~repro.obs.bundle.Bundle`
and a :class:`DoctorPolicy` of tunable floors and yields
:class:`Finding` objects. Built-in checks cover: crash/cancellation
status, dropped events (rolled in-memory window), run-log seq gaps,
shard skew across workers, traced-peak vs
RSS divergence, deadline near-misses, and sampled-CPU vs wall-time
divergence (sampler starvation / GIL skew) when the bundle carries a
``cpuprof.json`` table.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.obs.bundle import Bundle, load_bundle, validate_bundle

DOCTOR_SCHEMA = "repro.obs/doctor@1"

SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Finding:
    """One health-check result: what is wrong and how bad it is."""

    check: str
    severity: str
    message: str
    details: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "check": self.check,
            "severity": self.severity,
            "message": self.message,
        }
        if self.details:
            out["details"] = dict(self.details)
        return out


@dataclass(frozen=True)
class DoctorPolicy:
    """Tunable floors and ratios the built-in checks test against."""

    #: Worker busy-time max/mean above this is shard skew.
    shard_skew_ratio: float = 1.5
    #: Peak RSS more than this multiple of the traced allocation peak
    #: suggests untracked buffers or fragmentation.
    rss_divergence_ratio: float = 8.0
    #: Fraction of the deadline a successful run may consume before a
    #: near-miss warning.
    deadline_margin: float = 0.9
    #: Sampled self-time may diverge from span wall-time by this
    #: fraction before the cpu-divergence check fires (sampler
    #: starvation or GIL skew).
    cpu_divergence_ratio: float = 0.3
    #: Spans shorter than this (seconds) are too noisy for the
    #: cpu-divergence check at default sampling rates.
    cpu_divergence_min_wall_s: float = 0.2


CheckFn = Callable[[Bundle, DoctorPolicy], Iterator[Finding]]

_REGISTRY: dict[str, CheckFn] = {}


def health_check(check_id: str) -> Callable[[CheckFn], CheckFn]:
    """Register a health check under ``check_id`` (last wins)."""

    def deco(fn: CheckFn) -> CheckFn:
        _REGISTRY[check_id] = fn
        return fn

    return deco


def registered_checks() -> tuple[str, ...]:
    """The registered check ids, sorted."""
    return tuple(sorted(_REGISTRY))


def diagnose(
    bundle: Bundle,
    policy: DoctorPolicy | None = None,
    checks: Iterable[str] | None = None,
) -> list[Finding]:
    """Run (selected) registered checks over a loaded bundle."""
    policy = policy if policy is not None else DoctorPolicy()
    selected = tuple(checks) if checks is not None else registered_checks()
    unknown = [c for c in selected if c not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    findings: list[Finding] = []
    for check_id in selected:
        findings.extend(_REGISTRY[check_id](bundle, policy))
    return findings


# -- built-in checks -------------------------------------------------------


@health_check("run-status")
def _check_run_status(
    bundle: Bundle, policy: DoctorPolicy
) -> Iterator[Finding]:
    """Crashed runs are errors; cancelled runs are warnings."""
    crash = bundle.crash or {}
    if bundle.status == "crashed":
        yield Finding(
            "run-status", "error",
            f"run crashed: {crash.get('type', 'Exception')}: "
            f"{crash.get('message', '')}",
            {"last_events": len(crash.get("last_events", []))},
        )
    elif bundle.status == "cancelled":
        yield Finding(
            "run-status", "warning",
            f"run cancelled ({crash.get('reason', '?')}) at "
            f"{crash.get('where', '?')} after "
            f"{crash.get('elapsed_seconds', 0.0):.3f}s",
        )


@health_check("dropped-events")
def _check_dropped_events(
    bundle: Bundle, policy: DoctorPolicy
) -> Iterator[Finding]:
    """A rolled in-memory window truncates crash.json's last-events."""
    events = bundle.manifest.get("events") or {}
    dropped = int(events.get("dropped", 0))
    if dropped > 0:
        yield Finding(
            "dropped-events", "warning",
            f"{dropped} events were evicted from the in-memory window; "
            "crash forensics only cover the retained tail",
            {"dropped": dropped, "retained": events.get("retained")},
        )


@health_check("seq-gaps")
def _check_seq_gaps(
    bundle: Bundle, policy: DoctorPolicy
) -> Iterator[Finding]:
    """The run log must hold a contiguous seq range (no torn writes)."""
    seqs = [
        r["seq"] for r in bundle.events if isinstance(r.get("seq"), int)
    ]
    if not seqs:
        return
    missing = (seqs[-1] - seqs[0] + 1) - len(seqs)
    if seqs[0] != 0:
        yield Finding(
            "seq-gaps", "error",
            f"run log starts at seq {seqs[0]}, not 0 "
            "(head of the stream was lost)",
            {"first_seq": seqs[0]},
        )
    if missing > 0:
        yield Finding(
            "seq-gaps", "error",
            f"{missing} event lines missing from the run log "
            f"(seq range {seqs[0]}..{seqs[-1]} holds {len(seqs)} events)",
            {"missing": missing},
        )


@health_check("shard-skew")
def _check_shard_skew(
    bundle: Bundle, policy: DoctorPolicy
) -> Iterator[Finding]:
    """One hot worker means the prefix shards were badly balanced."""
    busy: dict[int, float] = {}
    for record in bundle.events:
        if record.get("kind") != "worker_span":
            continue
        attrs = record.get("attrs") or {}
        span = float(attrs.get("t1", 0.0)) - float(attrs.get("t0", 0.0))
        if span > 0:
            worker = int(record.get("worker", 0))
            busy[worker] = busy.get(worker, 0.0) + span
    if len(busy) < 2:
        return
    mean = sum(busy.values()) / len(busy)
    if mean <= 0:
        return
    skew = max(busy.values()) / mean
    if skew > policy.shard_skew_ratio:
        hot = max(busy, key=lambda w: busy[w])
        yield Finding(
            "shard-skew", "warning",
            f"worker {hot} was busy {skew:.2f}x the mean "
            f"(threshold {policy.shard_skew_ratio:.2f}x) — "
            "prefix shards are imbalanced",
            {"skew": skew, "busy_seconds": {str(k): v for k, v in busy.items()}},
        )


@health_check("mem-divergence")
def _check_mem_divergence(
    bundle: Bundle, policy: DoctorPolicy
) -> Iterator[Finding]:
    """Peak RSS far above the traced peak = untracked allocations."""
    rss_kb = bundle.gauges.get("mem.rss_max_kb")
    peaks = bundle.mem_peaks
    if not rss_kb or not peaks:
        return
    traced = max(peaks.values())
    if traced <= 0:
        return
    rss_bytes = float(rss_kb) * 1024.0
    ratio = rss_bytes / traced
    if ratio > policy.rss_divergence_ratio:
        yield Finding(
            "mem-divergence", "warning",
            f"peak RSS ({rss_bytes / 1e6:.1f} MB) is {ratio:.1f}x the "
            f"traced allocation peak ({traced / 1e6:.1f} MB) — "
            "untracked buffers or allocator fragmentation",
            {"rss_bytes": rss_bytes, "traced_peak_bytes": traced},
        )


@health_check("deadline")
def _check_deadline(
    bundle: Bundle, policy: DoctorPolicy
) -> Iterator[Finding]:
    """Expired deadlines are errors; near-misses are warnings."""
    deadline = bundle.manifest.get("deadline_s")
    if not deadline:
        return
    crash = bundle.crash or {}
    if bundle.status == "cancelled" and crash.get("reason") == "deadline":
        yield Finding(
            "deadline", "error",
            f"deadline of {deadline}s expired at "
            f"{crash.get('where', '?')} — raise the deadline or shrink "
            "the workload",
            {"deadline_s": deadline},
        )
        return
    elapsed = float(bundle.manifest.get("elapsed_seconds", 0.0))
    if bundle.status == "ok" and elapsed > float(deadline) * policy.deadline_margin:
        yield Finding(
            "deadline", "warning",
            f"run finished at {elapsed:.3f}s of a {deadline}s deadline "
            f"(past the {policy.deadline_margin:.0%} margin) — "
            "the next run may not make it",
            {"deadline_s": deadline, "elapsed_seconds": elapsed},
        )


@health_check("cpu-divergence")
def _check_cpu_divergence(
    bundle: Bundle, policy: DoctorPolicy
) -> Iterator[Finding]:
    """Sampled self-time far from span wall-time = sampler starvation.

    For single-threaded runs the samples attributed to a span (and its
    dotted descendants) should roughly cover the span's wall-clock
    duration. A large shortfall means the sampler thread was starved
    (GIL held by C extensions) or the span mostly waited; a large
    excess would mean broken attribution. Parallel runs are skipped:
    the parent thread legitimately idles while draining worker queues,
    and worker samples live under their own ``mine.shard`` paths.
    """
    cpu = bundle.cpuprof
    if not cpu or bundle.manifest.get("workers"):
        return
    spans = cpu.get("spans") or {}
    for path, wall in sorted(bundle.phase_seconds().items()):
        if wall < policy.cpu_divergence_min_wall_s:
            continue
        sampled = sum(
            row.get("self_seconds", 0.0)
            for span_path, row in spans.items()
            if span_path == path or span_path.startswith(path + ".")
        )
        divergence = abs(sampled - wall) / wall
        if divergence > policy.cpu_divergence_ratio:
            yield Finding(
                "cpu-divergence", "warning",
                f"span {path}: sampled self-time {sampled:.3f}s diverges "
                f"{divergence:.0%} from wall-time {wall:.3f}s "
                f"(threshold {policy.cpu_divergence_ratio:.0%}) — "
                "sampler starvation, GIL skew, or a mostly-waiting span",
                {
                    "path": path,
                    "sampled_seconds": sampled,
                    "wall_seconds": wall,
                    "divergence": divergence,
                },
            )


# -- report ----------------------------------------------------------------


def doctor_payload(
    bundle_name: str, findings: Iterable[Finding]
) -> dict[str, Any]:
    """Findings as a ``repro.obs/doctor@1`` payload."""
    rows = [f.to_dict() for f in findings]
    worst = "ok"
    for severity in reversed(SEVERITIES):
        if any(r["severity"] == severity for r in rows):
            worst = severity
            break
    return {
        "schema": DOCTOR_SCHEMA,
        "bundle": bundle_name,
        "checks": list(registered_checks()),
        "findings": rows,
        "summary": {"findings": len(rows), "worst": worst},
    }


def render_doctor_text(payload: Mapping[str, Any]) -> str:
    """Human-readable findings report."""
    title = f"obs doctor: {payload['bundle']}"
    lines = [title, "-" * len(title)]
    findings = payload["findings"]
    for row in findings:
        lines.append(
            f"  [{row['severity']:<7s}] {row['check']}: {row['message']}"
        )
    if findings:
        lines.append(
            f"  => {len(findings)} finding"
            f"{'' if len(findings) == 1 else 's'} "
            f"(worst: {payload['summary']['worst']})"
        )
    else:
        lines.append(
            f"  => healthy ({len(payload['checks'])} checks passed)"
        )
    return "\n".join(lines)


# -- CLI -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.doctor",
        description=(
            "Run health checks over a run bundle. Exit 1 when the "
            "bundle is unhealthy (any finding), 2 on usage errors."
        ),
    )
    parser.add_argument("bundle", help="bundle directory to diagnose")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--check", action="append", dest="checks", metavar="ID",
        help="run only this check (repeatable; default: all)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    directory = Path(args.bundle)
    problems = validate_bundle(directory)
    if any(p.startswith("missing manifest") or "unparseable" in p
           for p in problems):
        print(f"error: {directory}: {problems[0]}", file=sys.stderr)
        return 2
    try:
        bundle = load_bundle(directory)
        findings = [
            Finding("bundle-integrity", "error", p) for p in problems
        ]
        findings.extend(diagnose(bundle, checks=args.checks))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = doctor_payload(bundle.name or str(directory), findings)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_doctor_text(payload))
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
