"""Span-correlated statistical sampling CPU profiler.

A background thread polls :func:`sys._current_frames` at a fixed rate
(default :data:`DEFAULT_SAMPLE_HZ`) and attributes every captured stack
to the **innermost open obs span** of the sampled thread, read from the
thread-local current-span registry that :class:`~repro.obs.collector.
ObsCollector` maintains while profiling is on. The result is a *stack
table* — ``(span path, frame tuple) -> sample count`` — from which
per-span self time, per-function self time, collapsed-stack
(``.folded``) files and speedscope JSON all derive.

Sampling is observation-only by construction: the sampled threads never
run profiler code (no ``sys.setprofile``/``sys.settrace`` hooks — this
module is the single sanctioned owner of ``sys._current_frames``,
reprolint RPL019), so profiler-on runs return bit-identical results and
the overhead budget is one GIL acquisition per tick. The collector
starts the sampler when a root span opens and joins it when the root
closes, so the thread never outlives a run — including runs that raise.

Artifacts use schema :data:`CPUPROF_SCHEMA`; ``python -m
repro.obs.cpuprof export`` turns a captured table (a ``cpuprof.json``
file or a bundle directory holding one) into flamegraph inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Mapping

CPUPROF_SCHEMA = "repro.obs/cpuprof@1"

#: Default sampling rate. Prime, so the sampler cannot phase-lock with
#: periodic work scheduled at round frequencies.
DEFAULT_SAMPLE_HZ = 97.0

#: Frames kept per captured stack (deepest dropped first).
MAX_STACK_DEPTH = 64

#: Span label for samples taken outside any open span.
NO_SPAN = "(no span)"

#: File name of the cpuprof artifact inside a run bundle.
CPUPROF_FILENAME = "cpuprof.json"

#: URL of the speedscope file-format schema (see https://speedscope.app).
SPEEDSCOPE_SCHEMA_URL = "https://www.speedscope.app/file-format-schema.json"


def shorten_path(filename: str) -> str:
    """A stable, short rendering of a frame's source file.

    Project files collapse to their path from the last ``repro/``
    component; anything else keeps its final two components. The point
    is byte-stable tables across checkouts living at different
    absolute paths.
    """
    norm = filename.replace("\\", "/")
    idx = norm.rfind("/repro/")
    if idx >= 0:
        return norm[idx + 1:]
    head, _, tail = norm.rpartition("/")
    parent = head.rpartition("/")[2]
    return f"{parent}/{tail}" if parent else tail


class CpuProfiler:
    """The sampler thread plus the stack table it accumulates.

    One profiler belongs to one collector and survives across runs: the
    table accumulates over every start/stop cycle (one per root span),
    mirroring how counters accumulate. :meth:`stop` always joins the
    thread and is idempotent, so callers can use it as an unconditional
    cleanup. The profiler never touches the sampled threads — it only
    reads their frames — so it cannot perturb results.
    """

    def __init__(
        self,
        sample_hz: float = DEFAULT_SAMPLE_HZ,
        max_stack_depth: int = MAX_STACK_DEPTH,
    ) -> None:
        if not sample_hz > 0:
            raise ValueError("sample_hz must be positive")
        self.sample_hz = float(sample_hz)
        self.max_stack_depth = int(max_stack_depth)
        #: ``(span path, root-first frame tuple) -> sample count``.
        self.table: dict[tuple[str, tuple[str, ...]], int] = {}
        self.samples_total = 0
        self.duration_seconds = 0.0
        self._span_paths: Mapping[int, str] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the sampler thread is alive."""
        return self._thread is not None

    def start(self, span_paths: Mapping[int, str] | None = None) -> None:
        """Start sampling (idempotent while running).

        ``span_paths`` is the live thread-id -> dotted-span-path
        registry the owning collector mutates; the sampler only reads
        it, which is safe under the GIL.
        """
        if self._thread is not None:
            return
        if span_paths is not None:
            self._span_paths = span_paths
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-cpuprof", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the sampler thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None

    def _run(self) -> None:
        period = 1.0 / self.sample_hz
        start = time.perf_counter()
        next_t = start + period
        while not self._stop.wait(max(0.0, next_t - time.perf_counter())):
            self._sample_once()
            next_t += period
            now = time.perf_counter()
            if next_t < now:
                # Fell behind (GIL starvation): skip the missed ticks
                # rather than burst-sampling to catch up.
                next_t = now + period
        self.duration_seconds += time.perf_counter() - start

    def _sample_once(self) -> None:
        own = threading.get_ident()
        for tid, frame in sys._current_frames().items():
            if tid == own:
                continue
            span = self._span_paths.get(tid, "")
            stack: list[str] = []
            while frame is not None and len(stack) < self.max_stack_depth:
                code = frame.f_code
                stack.append(f"{shorten_path(code.co_filename)}:{code.co_name}")
                frame = frame.f_back
            stack.reverse()
            key = (span, tuple(stack))
            self.table[key] = self.table.get(key, 0) + 1
            self.samples_total += 1

    # -- table access ----------------------------------------------------

    def rows(self) -> list[tuple[str, tuple[str, ...], int]]:
        """The stack table as sorted ``(span, frames, count)`` rows."""
        return sorted(
            (span, frames, count)
            for (span, frames), count in self.table.items()
        )

    def top_functions(self, n: int = 5) -> list[tuple[str, float]]:
        """The ``n`` hottest functions by leaf-frame self time (seconds)."""
        per_func: dict[str, int] = {}
        for (_span, frames), count in self.table.items():
            if frames:
                leaf = frames[-1]
                per_func[leaf] = per_func.get(leaf, 0) + count
        ranked = sorted(per_func.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(name, count / self.sample_hz) for name, count in ranked[:n]]


# -- artifact --------------------------------------------------------------


def cpuprof_payload(profiler: CpuProfiler) -> dict[str, Any]:
    """The profiler's table as a ``repro.obs/cpuprof@1`` payload.

    Deterministic given a fixed table: stacks are sorted, span and
    function sections keyed in sorted order, and every derived number
    is an exact function of the counts and the sampling rate.
    """
    stacks = [
        {"span": span or NO_SPAN, "frames": list(frames), "count": count}
        for span, frames, count in profiler.rows()
    ]
    spans: dict[str, dict[str, Any]] = {}
    functions: dict[str, dict[str, Any]] = {}
    for row in stacks:
        entry = spans.setdefault(
            row["span"], {"cpu_samples": 0, "self_seconds": 0.0}
        )
        entry["cpu_samples"] += row["count"]
        if row["frames"]:
            leaf = row["frames"][-1]
            fentry = functions.setdefault(
                leaf, {"self_samples": 0, "self_seconds": 0.0}
            )
            fentry["self_samples"] += row["count"]
    for entry in spans.values():
        entry["self_seconds"] = entry["cpu_samples"] / profiler.sample_hz
    for fentry in functions.values():
        fentry["self_seconds"] = fentry["self_samples"] / profiler.sample_hz
    return {
        "schema": CPUPROF_SCHEMA,
        "sample_hz": profiler.sample_hz,
        "samples_total": profiler.samples_total,
        "duration_seconds": profiler.duration_seconds,
        "spans": {k: spans[k] for k in sorted(spans)},
        "functions": {k: functions[k] for k in sorted(functions)},
        "stacks": stacks,
    }


def validate_cpuprof_payload(payload: Mapping[str, Any]) -> list[str]:
    """Schema-check a cpuprof payload; returns problems (empty = valid)."""
    problems: list[str] = []
    if payload.get("schema") != CPUPROF_SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {CPUPROF_SCHEMA!r}"
        )
    hz = payload.get("sample_hz")
    if not isinstance(hz, (int, float)) or not hz > 0:
        problems.append(f"sample_hz {hz!r} is not a positive number")
    stacks = payload.get("stacks")
    if not isinstance(stacks, list):
        return problems + ["stacks missing or not a list"]
    total = 0
    for i, row in enumerate(stacks):
        if not isinstance(row, Mapping):
            problems.append(f"stacks[{i}] is not an object")
            continue
        if not isinstance(row.get("span"), str) or not row.get("span"):
            problems.append(f"stacks[{i}]: span missing or empty")
        frames = row.get("frames")
        if not isinstance(frames, list) or not all(
            isinstance(f, str) for f in frames
        ):
            problems.append(f"stacks[{i}]: frames not a list of strings")
        count = row.get("count")
        if not isinstance(count, int) or count < 1:
            problems.append(f"stacks[{i}]: count {count!r} not a positive int")
        else:
            total += count
    if payload.get("samples_total") != total:
        problems.append(
            f"samples_total {payload.get('samples_total')!r} does not match "
            f"the stack counts (sum {total})"
        )
    spans = payload.get("spans")
    if not isinstance(spans, Mapping):
        problems.append("spans missing or not an object")
    else:
        per_span: dict[str, int] = {}
        for row in stacks:
            if isinstance(row, Mapping) and isinstance(row.get("count"), int):
                span = str(row.get("span", ""))
                per_span[span] = per_span.get(span, 0) + row["count"]
        for span, entry in spans.items():
            if (
                not isinstance(entry, Mapping)
                or entry.get("cpu_samples") != per_span.get(span)
            ):
                problems.append(
                    f"spans[{span!r}]: cpu_samples does not match the stacks"
                )
    return problems


def function_seconds(
    payload: Mapping[str, Any], span_prefix: str | None = None
) -> dict[str, float]:
    """Leaf-frame self time (seconds) per function from a payload.

    ``span_prefix`` restricts the sum to samples whose span path equals
    the prefix or nests under it (dotted) — the diff attribution uses
    this to scope function deltas to one regressed phase.
    """
    hz = payload.get("sample_hz")
    if not isinstance(hz, (int, float)) or not hz > 0:
        return {}
    out: dict[str, float] = {}
    for row in payload.get("stacks", ()):
        span = str(row.get("span", ""))
        if span_prefix is not None and not (
            span == span_prefix or span.startswith(span_prefix + ".")
        ):
            continue
        frames = row.get("frames") or ()
        if not frames:
            continue
        leaf = frames[-1]
        out[leaf] = out.get(leaf, 0.0) + int(row.get("count", 0)) / hz
    return out


# -- exporters -------------------------------------------------------------


def to_folded(payload: Mapping[str, Any]) -> str:
    """Collapsed-stack (Brendan Gregg ``.folded``) rendering.

    One line per distinct stack — ``span;frame;...;leaf count`` — with
    the span path as the synthetic root frame, so span-scoped flame
    graphs come for free. Lines are sorted: the output is byte-stable
    for a fixed table.
    """
    lines = [
        ";".join([str(row.get("span") or NO_SPAN), *row.get("frames", ())])
        + f" {int(row.get('count', 0))}"
        for row in payload.get("stacks", ())
    ]
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def to_speedscope(
    payload: Mapping[str, Any], name: str = "repro cpuprof"
) -> dict[str, Any]:
    """The payload as a speedscope ``sampled``-type profile document.

    Frames are interned in first-appearance order over the sorted
    stacks, weights are ``count / sample_hz`` seconds; serialization
    with sorted keys is byte-stable for a fixed table.
    """
    hz = float(payload.get("sample_hz") or DEFAULT_SAMPLE_HZ)
    frame_names: list[str] = []
    frame_index: dict[str, int] = {}
    samples: list[list[int]] = []
    weights: list[float] = []
    for row in payload.get("stacks", ()):
        stack = [str(row.get("span") or NO_SPAN), *row.get("frames", ())]
        indexed = []
        for frame in stack:
            if frame not in frame_index:
                frame_index[frame] = len(frame_names)
                frame_names.append(frame)
            indexed.append(frame_index[frame])
        samples.append(indexed)
        weights.append(int(row.get("count", 0)) / hz)
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA_URL,
        "name": name,
        "exporter": "repro.obs.cpuprof",
        "activeProfileIndex": 0,
        "shared": {"frames": [{"name": n} for n in frame_names]},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "seconds",
            "startValue": 0.0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
    }


def write_cpuprof(profiler: CpuProfiler, path: str | Path) -> None:
    """Write the profiler's table as a ``cpuprof.json`` artifact."""
    Path(path).write_text(
        json.dumps(cpuprof_payload(profiler), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


# -- CLI -------------------------------------------------------------------


def load_cpuprof(source: str | Path) -> dict[str, Any]:
    """Load (and validate) a cpuprof payload from a file or bundle dir."""
    path = Path(source)
    if path.is_dir():
        path = path / CPUPROF_FILENAME
    if not path.is_file():
        raise FileNotFoundError(f"{source}: no {CPUPROF_FILENAME} found")
    payload = json.loads(path.read_text(encoding="utf-8"))
    problems = validate_cpuprof_payload(payload)
    if problems:
        raise ValueError(f"{path}: invalid cpuprof payload: {problems[0]}")
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.cpuprof",
        description=(
            "Export or summarize a sampled CPU profile (a cpuprof.json "
            "file or a bundle directory captured with --profile-cpu)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "export", help="write flamegraph inputs (.folded / speedscope JSON)"
    )
    p.add_argument("source", help="cpuprof.json file or bundle directory")
    p.add_argument(
        "--folded", metavar="FILE",
        help="write collapsed stacks (one 'span;frames count' line each)",
    )
    p.add_argument(
        "--speedscope", metavar="FILE",
        help="write a speedscope JSON profile (open at speedscope.app)",
    )
    p = sub.add_parser("report", help="print the hottest functions")
    p.add_argument("source", help="cpuprof.json file or bundle directory")
    p.add_argument(
        "--top", type=int, default=10,
        help="how many functions to list (default: 10)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = load_cpuprof(args.source)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "export":
        if args.folded:
            Path(args.folded).write_text(to_folded(payload), encoding="utf-8")
            print(f"wrote collapsed stacks to {args.folded}")
        if args.speedscope:
            Path(args.speedscope).write_text(
                json.dumps(to_speedscope(payload), indent=2, sort_keys=True)
                + "\n",
                encoding="utf-8",
            )
            print(f"wrote speedscope profile to {args.speedscope}")
        if not args.folded and not args.speedscope:
            print(to_folded(payload), end="")
        return 0
    funcs = sorted(
        function_seconds(payload).items(), key=lambda kv: (-kv[1], kv[0])
    )
    total = payload.get("samples_total", 0)
    hz = payload.get("sample_hz", 0)
    print(
        f"cpuprof: {total} samples at {hz:g} Hz "
        f"over {payload.get('duration_seconds', 0.0):.2f}s"
    )
    for name, seconds in funcs[: args.top]:
        share = seconds * hz / total if total else 0.0
        print(f"  {name:<60s} {seconds:8.3f}s  {share:6.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
