"""Live run telemetry: the bounded structured event stream.

While ``repro.obs.collector`` is a *flight recorder* (span trees and
metric registries read back after a run), this module is the *live*
plane: an :class:`EventStream` receives structured events **during**
the run — span open/close, per-phase progress, counter snapshots —
and fans them out to pluggable sinks (the JSONL run log and the TTY
progress renderer in ``repro.obs.runlog``).

On top of the stream sit two more pieces:

* :class:`RunController` — cooperative deadline/cancellation, checked
  at phase boundaries and mining step slices via
  ``ObsCollector.checkpoint``. A
  cancelled run raises :class:`RunCancelled` carrying the partial
  event log.
* :func:`to_chrome_trace` — export a collector's span forest and/or an
  event stream as a Chrome trace-event JSON, loadable in Perfetto or
  ``chrome://tracing``.

Event timestamps are offsets (seconds) from the stream's origin on the
monotonic ``time.perf_counter`` clock.

Determinism contract: with events disabled the stream costs one
``is None`` check per call site and results are bit-identical; with
events enabled the *counts* per (kind, name) — and the final ``done``
value per progress phase — are identical between runs of one
configuration (see :func:`event_counts`); only timestamps vary.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Iterable, Iterator, Mapping

#: Schema id of the JSONL run-log records (see ``repro.obs.runlog``).
EVENTS_SCHEMA = "repro.obs/events@2"

#: Every event kind the stream accepts.
EVENT_KINDS = frozenset({
    "span_open",
    "span_close",
    "progress",
    "counters",
    "cancelled",
})

#: Kinds whose per-(kind, name) accounting is identical between runs
#: of one configuration (see :func:`event_counts`).
DETERMINISTIC_KINDS = frozenset({
    "span_open", "span_close", "progress", "counters",
})


class Event:
    """One telemetry event: ``(seq, t, kind, name, attrs)``.

    ``t`` is seconds since the owning stream's origin.
    """

    __slots__ = ("seq", "t", "kind", "name", "attrs")

    def __init__(
        self,
        seq: int,
        t: float,
        kind: str,
        name: str,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.seq = seq
        self.t = t
        self.kind = kind
        self.name = name
        self.attrs = attrs if attrs is not None else {}

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (one run-log line)."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "name": self.name,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    def __repr__(self) -> str:
        return (
            f"Event({self.seq}, {self.t:.4f}s, {self.kind!r}, {self.name!r})"
        )


class EventStream:
    """A bounded, ordered stream of :class:`Event` with fan-out sinks.

    The stream keeps the most recent ``max_events`` events in memory
    (older ones are evicted and counted in :attr:`dropped`); sinks see
    *every* event at emit time regardless of the bound, so a JSONL run
    log stays complete even when the in-memory window rolls.
    """

    def __init__(
        self,
        sinks: Iterable[Any] = (),
        max_events: int = 10_000,
    ) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.origin = time.perf_counter()
        self.max_events = max_events
        self.dropped = 0
        self._events: deque[Event] = deque(maxlen=max_events)
        self._seq = 0
        self._sinks = list(sinks)

    @property
    def events(self) -> tuple[Event, ...]:
        """The retained (most recent) events, oldest first."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(tuple(self._events))

    def add_sink(self, sink: Any) -> None:
        """Attach another sink (an object with ``handle(event)``)."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Any) -> None:
        """Detach a sink added with :meth:`add_sink` (missing is a no-op).

        Scoped sinks — a run bundle's JSONL log, for example — detach
        themselves on the way out so a reused stream does not keep
        writing to a closed file.
        """
        try:
            self._sinks.remove(sink)
        except ValueError:
            return

    def emit(
        self,
        kind: str,
        name: str,
        t: float | None = None,
        attrs: dict[str, Any] | None = None,
        **extra: Any,
    ) -> Event:
        """Append one event and fan it out to every sink.

        ``t`` (seconds since :attr:`origin`) defaults to "now". Event
        attributes come from ``attrs`` and/or keyword arguments —
        ``attrs`` exists so attribute names that collide with this
        signature (``kind``, ``name``, ...) still round-trip.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if t is None:
            t = time.perf_counter() - self.origin
        if attrs:
            combined = dict(attrs)
            combined.update(extra)
        else:
            combined = extra
        event = Event(self._seq, t, kind, name, attrs=combined or None)
        self._seq += 1
        if len(self._events) == self.max_events:
            self.dropped += 1
        self._events.append(event)
        for sink in self._sinks:
            sink.handle(event)
        return event

    def close(self) -> None:
        """Close every sink that supports closing (run logs flush)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __repr__(self) -> str:
        return (
            f"EventStream(events={len(self._events)}, "
            f"dropped={self.dropped}, sinks={len(self._sinks)})"
        )


def as_event_stream(value: Any) -> EventStream | None:
    """Normalize the ``ObsCollector(events=...)`` argument.

    Accepts ``None`` (events off), an :class:`EventStream`, ``True``
    (a fresh unbounded-sink stream), a single sink object, or an
    iterable of sinks.
    """
    if value is None:
        return None
    if isinstance(value, EventStream):
        return value
    if value is True:
        return EventStream()
    if hasattr(value, "handle"):
        return EventStream(sinks=(value,))
    if isinstance(value, (list, tuple)):
        return EventStream(sinks=value)
    raise TypeError(
        "events must be None, True, an EventStream, a sink, or a "
        f"list of sinks — got {type(value).__name__}"
    )


def _event_fields(event: Any) -> tuple[str, str, dict[str, Any]]:
    """(kind, name, attrs) from an :class:`Event` or a run-log dict."""
    if isinstance(event, Mapping):
        return (
            str(event.get("kind", "")),
            str(event.get("name", "")),
            dict(event.get("attrs") or {}),
        )
    return event.kind, event.name, event.attrs


def event_counts(events: Iterable[Any]) -> dict[str, int]:
    """Deterministic per-(kind, name) accounting of an event stream.

    Returns ``{"span_open:<name>": n, "span_close:<name>": n,
    "counters:<name>": n, "progress:<phase>": final_done}`` with keys
    sorted. Progress phases report their **final** ``done`` value (the
    running maximum), not the number of progress events. Cancellation
    events are excluded. The
    result is identical between runs of one configuration — with or
    without a bundle, profiler or deadline — the tested invariant.
    """
    counts: dict[str, int] = {}
    progress: dict[str, int] = {}
    for event in events:
        kind, name, attrs = _event_fields(event)
        if kind == "progress":
            done = int(attrs.get("done", 0))
            if done > progress.get(name, 0):
                progress[name] = done
        elif kind in DETERMINISTIC_KINDS:
            key = f"{kind}:{name}"
            counts[key] = counts.get(key, 0) + 1
    for name, done in progress.items():
        counts[f"progress:{name}"] = done
    return {key: counts[key] for key in sorted(counts)}


# -- deadline / cancellation ---------------------------------------------


class RunCancelled(RuntimeError):
    """A run was cancelled (deadline expired or explicit cancel).

    Carries the partial telemetry: ``reason`` (``"deadline"`` or the
    ``cancel()`` reason), ``where`` (the checkpoint that tripped),
    ``elapsed_seconds``, and ``events`` — the retained event window at
    cancellation time, ending in a ``cancelled`` event.
    """

    def __init__(
        self,
        reason: str,
        where: str = "",
        elapsed_seconds: float = 0.0,
        events: Iterable[Event] = (),
    ) -> None:
        super().__init__(
            f"run cancelled ({reason}) at {where or 'checkpoint'} "
            f"after {elapsed_seconds:.3f}s"
        )
        self.reason = reason
        self.where = where
        self.elapsed_seconds = elapsed_seconds
        self.events = tuple(events)


class RunController:
    """Cooperative deadline/cancellation on the monotonic clock.

    The controller never interrupts anything: pipeline code calls
    :meth:`check` (via ``ObsCollector.checkpoint``) at phase
    boundaries and after every mining step slice, and the first check
    past the deadline — or after :meth:`cancel` — raises
    :class:`RunCancelled`. Granularity is therefore one phase or one
    slice, which keeps results of *completed* runs bit-identical to
    uncontrolled ones.
    """

    def __init__(self, deadline_s: float | None = None) -> None:
        if deadline_s is not None and not deadline_s > 0:
            raise ValueError("deadline_s must be positive")
        self.deadline_s = deadline_s
        self._t0 = time.perf_counter()
        self._cancel_reason: str | None = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation; the next :meth:`check` raises."""
        self._cancel_reason = reason

    @property
    def cancelled(self) -> bool:
        return self._cancel_reason is not None

    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._t0

    def remaining_seconds(self) -> float | None:
        """Seconds until the deadline (None without one; floored at 0)."""
        if self.deadline_s is None:
            return None
        return max(0.0, self.deadline_s - self.elapsed_seconds())

    def expired(self) -> bool:
        return (
            self.deadline_s is not None
            and self.elapsed_seconds() > self.deadline_s
        )

    def check(self, where: str = "", stream: EventStream | None = None) -> None:
        """Raise :class:`RunCancelled` if cancelled or past deadline.

        When a ``stream`` is given, a final ``cancelled`` event is
        emitted first so the run log records how the run ended, and
        the exception carries the stream's retained events.
        """
        reason = self._cancel_reason
        if reason is None and self.expired():
            reason = "deadline"
        if reason is None:
            return
        elapsed = self.elapsed_seconds()
        events: tuple[Event, ...] = ()
        if stream is not None:
            stream.emit(
                "cancelled", where or "run",
                reason=reason, elapsed_seconds=elapsed,
                deadline_s=self.deadline_s,
            )
            events = stream.events
        raise RunCancelled(reason, where, elapsed, events)


# -- Chrome trace-event export -------------------------------------------

#: Microseconds per second (Chrome trace timestamps are in µs).
_US = 1e6


def to_chrome_trace(
    obs: Any = None,
    events: Iterable[Any] | None = None,
    name: str = "repro",
) -> dict[str, Any]:
    """Export telemetry as Chrome trace-event JSON (Perfetto-loadable).

    Everything lands on one track, ``main``. With ``events`` (an
    :class:`EventStream`, event list, or run-log record list) the trace
    is built from the stream: span open/close pairs become ``B``/``E``
    duration events, cancellations become instants, and progress
    becomes ``C`` counter series. Without ``events`` the collector's
    completed span forest is exported as ``X`` slices. A collector that
    owns a stream exports from it automatically.
    """
    if events is None and obs is not None:
        events = getattr(obs, "events", None)
    pid = 1
    trace: list[dict[str, Any]] = [{
        "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
        "args": {"name": name},
    }]
    if events is not None:
        for event in events:
            trace.extend(_event_to_chrome(event, pid))
    elif obs is not None and getattr(obs, "roots", None):
        origin = min(root._t0 for root in obs.roots)
        for root in obs.roots:
            for span in root.walk():
                entry: dict[str, Any] = {
                    "ph": "X", "pid": pid, "tid": 0, "name": span.name,
                    "ts": (span._t0 - origin) * _US,
                    "dur": span.elapsed_seconds * _US,
                }
                if span.attrs:
                    entry["args"] = {k: str(v) for k, v in span.attrs.items()}
                trace.append(entry)
    trace.append({
        "ph": "M", "pid": pid, "tid": 0, "name": "thread_name",
        "args": {"name": "main"},
    })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def _event_to_chrome(event: Any, pid: int) -> list[dict[str, Any]]:
    """Translate one stream event into Chrome trace entries."""
    kind, name, attrs = _event_fields(event)
    t = float(event.get("t", 0.0)) if isinstance(event, Mapping) else event.t
    ts = t * _US
    base: dict[str, Any] = {"pid": pid, "tid": 0, "name": name}
    if kind == "span_open":
        entry = dict(base, ph="B", ts=ts)
        if attrs:
            entry["args"] = {k: str(v) for k, v in attrs.items()}
        return [entry]
    if kind == "span_close":
        return [dict(base, ph="E", ts=ts)]
    if kind == "progress":
        series = {"done": attrs.get("done", 0)}
        return [dict(base, ph="C", ts=ts, args=series)]
    if kind == "cancelled":
        entry = dict(base, ph="i", ts=ts, s="t")
        if attrs:
            entry["args"] = {k: str(v) for k, v in attrs.items()}
        return [entry]
    # Counter snapshots live in the run log, not the trace.
    return []


def write_chrome_trace(
    path: Any,
    obs: Any = None,
    events: Iterable[Any] | None = None,
    name: str = "repro",
) -> dict[str, Any]:
    """Write :func:`to_chrome_trace` output to ``path``; return it."""
    import json
    from pathlib import Path

    payload = to_chrome_trace(obs=obs, events=events, name=name)
    Path(path).write_text(json.dumps(payload) + "\n")
    return payload
