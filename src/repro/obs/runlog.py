"""Event-stream sinks: the JSONL run log and the TTY progress renderer.

The run log is the persistent form of the live event stream: one
header line (schema ``repro.obs/events@2``) followed by one JSON
object per event, appended and flushed as the run progresses so a
crashed or cancelled run still leaves a readable log. Replay or follow
a log with ``python -m repro.obs.tail <run.jsonl>``. It is the one
recording of a run: :func:`fold_events` derives the phases, counters,
gauges and memory peaks that bundles, ``repro.obs.diff`` and
``repro.obs.doctor`` read.

The progress renderer turns ``progress`` events into throttled
single-line updates with per-phase work accounting and a rate-based
ETA — attributes discretized, mining candidates evaluated, sweep
points completed.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, TextIO

from repro.obs.events import EVENT_KINDS, EVENTS_SCHEMA, Event

#: Keys every run-log event line must carry.
_EVENT_KEYS = ("seq", "t", "kind", "name")


class JsonlRunLog:
    """Append-only JSONL sink: header line + one line per event.

    Opens ``path`` eagerly and flushes after every line — the log is
    valid (header + complete prefix of the stream) at any instant, so
    ``repro.obs.tail --follow`` and post-mortem reads of cancelled
    runs both work.
    """

    def __init__(self, path: str | Path, meta: dict[str, Any] | None = None):
        self.path = Path(path)
        self._file: TextIO | None = self.path.open("w")
        header: dict[str, Any] = {
            "schema": EVENTS_SCHEMA,
            "kind": "header",
            "clock": "perf_counter",
        }
        if meta:
            header["meta"] = meta
        self._write_line(header)

    def _write_line(self, record: dict[str, Any]) -> None:
        if self._file is None:
            return
        self._file.write(json.dumps(record, default=str) + "\n")
        self._file.flush()

    def handle(self, event: Event) -> None:
        self._write_line(event.to_dict())

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlRunLog":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


def read_run_log(path: str | Path) -> list[dict[str, Any]]:
    """Parse a run log into its records (header first), skipping blanks."""
    records = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def validate_run_log(records: Iterable[dict[str, Any]]) -> list[str]:
    """Schema-validate parsed run-log records; return error strings.

    Checks the header (first record, correct schema), that every event
    line carries the required keys with sane types, that ``seq`` is
    strictly increasing, and that every ``kind`` is known.
    """
    errors: list[str] = []
    records = list(records)
    if not records:
        return ["empty run log (no header)"]
    header = records[0]
    if header.get("kind") != "header":
        errors.append("first record is not a header")
    if header.get("schema") != EVENTS_SCHEMA:
        errors.append(
            f"header schema is {header.get('schema')!r}, "
            f"expected {EVENTS_SCHEMA!r}"
        )
    last_seq = -1
    for i, record in enumerate(records[1:], start=2):
        for key in _EVENT_KEYS:
            if key not in record:
                errors.append(f"line {i}: missing key {key!r}")
        kind = record.get("kind")
        if kind is not None and kind not in EVENT_KINDS:
            errors.append(f"line {i}: unknown kind {kind!r}")
        t = record.get("t")
        if t is not None and (not isinstance(t, (int, float)) or t < 0):
            errors.append(f"line {i}: bad timestamp {t!r}")
        seq = record.get("seq")
        if isinstance(seq, int):
            if seq <= last_seq:
                errors.append(f"line {i}: seq {seq} not increasing")
            last_seq = seq
    return errors


class RunFold(NamedTuple):
    """What :func:`fold_events` recovers from a run log."""

    phases: dict[str, float]
    counters: dict[str, int]
    gauges: dict[str, float]
    mem_peaks: dict[str, int]


def fold_events(records: Iterable[Mapping[str, Any]]) -> RunFold:
    """Fold run-log records into the recording collector's registries.

    ``phases`` sums ``span_close`` seconds per dotted path, rebuilt
    from open/close pairs with a name stack; ``counters`` and
    ``gauges`` are the last ``counters`` snapshot; ``mem_peaks`` keeps
    the largest ``mem_peak_bytes`` per path. Other records are skipped.
    A log written before closes carried attributes folds to empty
    gauges and memory peaks.
    """
    phases: dict[str, float] = {}
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    mem_peaks: dict[str, int] = {}
    stack: list[str] = []
    for record in records:
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
            peak = attrs.get("mem_peak_bytes")
            if peak is not None and int(peak) > mem_peaks.get(path, -1):
                mem_peaks[path] = int(peak)
        elif kind == "counters":
            snapshot = attrs.get("counters") or {}
            counters = {str(k): int(v) for k, v in snapshot.items()}
            gauges = dict(attrs.get("gauges") or {})
    return RunFold(phases, counters, gauges, mem_peaks)


class ProgressRenderer:
    """Throttled progress sink: one line per render, with ETA.

    Renders ``progress`` events at most once per ``min_interval``
    (event time) per phase — plus always on the first and the final
    event of a phase — and ``cancelled`` events unconditionally. The
    ETA is rate-based: elapsed / done * remaining, shown once at least
    one unit of work and a total are known.

    On a TTY, in-flight progress redraws in place (carriage return +
    erase-to-end), finalizing to a real line when a phase completes.
    When the stream is **not** a TTY — CI logs, redirection to a file —
    the renderer falls back to plain appended lines with no control
    codes and a coarser default throttle (1s instead of 0.1s), so
    ``--progress`` output stays readable in captured logs.
    """

    #: Default ``min_interval`` on a TTY vs a captured (CI) stream.
    TTY_INTERVAL = 0.1
    PLAIN_INTERVAL = 1.0

    def __init__(
        self,
        stream: TextIO | None = None,
        min_interval: float | None = None,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        isatty = getattr(self._stream, "isatty", None)
        try:
            self._tty = bool(isatty()) if callable(isatty) else False
        except (OSError, ValueError):  # closed or detached stream
            self._tty = False
        if min_interval is None:
            min_interval = self.TTY_INTERVAL if self._tty else self.PLAIN_INTERVAL
        self.min_interval = min_interval
        self._last_render: dict[str, float] = {}
        self._started: dict[str, float] = {}
        self._open_line = False

    def handle(self, event: Event) -> None:
        if event.kind == "cancelled":
            attrs = event.attrs
            self._write(
                f"[{event.t:8.2f}s] cancelled at {event.name} "
                f"({attrs.get('reason', 'cancelled')})"
            )
            return
        if event.kind != "progress":
            return
        phase = event.name
        done = int(event.attrs.get("done", 0))
        total = event.attrs.get("total")
        if phase not in self._started:
            self._started[phase] = event.t
        last = self._last_render.get(phase)
        finished = total is not None and done >= int(total)
        if (
            last is not None
            and not finished
            and event.t - last < self.min_interval
        ):
            return
        self._last_render[phase] = event.t
        self._write(self._format(event.t, phase, done, total), final=finished)

    def _format(
        self, t: float, phase: str, done: int, total: Any
    ) -> str:
        line = f"[{t:8.2f}s] {phase}: {done}"
        if total is not None:
            total = int(total)
            line += f"/{total}"
            if total > 0:
                line += f" ({100.0 * done / total:3.0f}%)"
            elapsed = t - self._started.get(phase, 0.0)
            if 0 < done < total and elapsed > 0:
                eta = elapsed / done * (total - done)
                line += f" eta {eta:.1f}s"
            elif done >= total:
                line += f" done in {elapsed:.1f}s"
        return line

    def _write(self, line: str, final: bool = True) -> None:
        if self._tty and not final:
            self._stream.write("\r" + line + "\x1b[K")
            self._open_line = True
        else:
            prefix = "\r" if self._open_line else ""
            suffix = "\x1b[K\n" if self._open_line else "\n"
            self._stream.write(prefix + line + suffix)
            self._open_line = False
        try:
            self._stream.flush()
        except (OSError, io.UnsupportedOperation):  # closed/odd streams
            return

    def close(self) -> None:
        if self._open_line:
            self._open_line = False
            try:
                self._stream.write("\n")
                self._stream.flush()
            except (OSError, io.UnsupportedOperation):
                return
