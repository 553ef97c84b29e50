"""Span tracer and metrics registry (the heart of ``repro.obs``).

Two collector implementations share one interface:

* :class:`ObsCollector` — the *enabled* collector. ``span(...)`` opens
  a hierarchical span (wall time via the monotonic
  ``time.perf_counter``, arbitrary attributes, nesting through an
  explicit stack), ``count``/``gauge`` update the metrics registry.
* :class:`NullCollector` — the *disabled* collector, a process-wide
  singleton (:data:`NULL_OBS`). Every operation is a no-op returning a
  shared inert span, so instrumented code pays one attribute lookup and
  a call — nothing else — when observability is off.

There is deliberately **no** module-level "current collector": the
collector is threaded explicitly through configs and function
arguments, which keeps results independent of ambient state.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator, Mapping

from repro.obs.events import (
    EventStream,
    RunController,
    as_event_stream,
)


class Span:
    """One timed phase of the pipeline, possibly with children.

    Spans are context managers; entering records the start time on the
    monotonic clock, exiting records ``elapsed_seconds`` and attaches
    the span to its parent (or the collector's root list).
    """

    __slots__ = (
        "name", "attrs", "elapsed_seconds", "children", "_collector", "_t0",
        "_mem_base", "_mem_child_peak",
    )

    def __init__(self, collector: "ObsCollector", name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.elapsed_seconds: float = 0.0
        self.children: list[Span] = []
        self._collector = collector
        self._t0 = 0.0
        self._mem_base = 0
        self._mem_child_peak = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on an open or closed span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._collector._push(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.elapsed_seconds = time.perf_counter() - self._t0
        self._collector._pop(self)
        return False

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (a ``bench@2`` trace entry)."""
        out: dict[str, Any] = {
            "name": self.name,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.elapsed_seconds:.4f}s, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """The inert span handed out by :class:`NullCollector`.

    A single shared instance; entering/exiting touches nothing, and
    ``set`` discards its arguments. ``elapsed_seconds`` is always 0.0.
    """

    __slots__ = ()

    name = ""
    attrs: dict[str, Any] = {}
    elapsed_seconds = 0.0
    children: tuple = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False


class ObsCollector:
    """Enabled observability collector: span tree + metrics registry.

    Attributes
    ----------
    counters:
        Named monotonically-increasing integer counters (candidates
        generated, support-pruned, session-cache hits, ...).
    gauges:
        Named point-in-time values (universe size, rows, ...); a
        repeated ``gauge`` overwrites.
    roots:
        Completed top-level spans, in completion order.
    mem_peaks:
        Peak traced allocation per dotted span path (bytes), populated
        only when memory profiling is on. Repeated spans keep the
        ``max`` — a peak is a high-water mark, not a total.
    events:
        Optional live :class:`~repro.obs.events.EventStream` the
        collector publishes to *during* the run (span open/close,
        phase progress, counter and gauge snapshots at root close).
        ``None`` (the default) keeps the flight-recorder-only
        behaviour; accepts a stream, a sink, a list of sinks, or
        ``True`` for a fresh bounded stream.
    controller:
        Optional :class:`~repro.obs.events.RunController` consulted by
        :meth:`checkpoint` at phase boundaries and mining step slices
        for cooperative deadline/cancellation (usually installed by
        :meth:`arm_deadline` before the run).
    """

    enabled: bool = True

    def __init__(
        self,
        profile_memory: bool = False,
        events: Any = None,
        controller: RunController | None = None,
        profile_cpu: bool = False,
        sample_hz: float | None = None,
    ) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.roots: list[Span] = []
        self.mem_peaks: dict[str, int] = {}
        self.events: EventStream | None = as_event_stream(events)
        self.controller = controller
        self._stack: list[Span] = []
        self._progress: dict[str, list[int | None]] = {}
        self._mem = None
        self._cpu = None
        #: Thread-local current-span registry: thread id -> dotted path
        #: of that thread's innermost open span. Maintained only while
        #: CPU profiling is on; the sampler thread reads it to attribute
        #: stacks (dict reads/writes are atomic under the GIL).
        self._span_paths: dict[int, str] = {}
        if profile_memory:
            self.enable_memory_profiling()
        if profile_cpu:
            self.enable_cpu_profiling(sample_hz)

    # -- memory profiling ------------------------------------------------

    @property
    def profile_memory(self) -> bool:
        """True when spans record tracemalloc peaks (see repro.obs.profile)."""
        return self._mem is not None

    def enable_memory_profiling(self) -> None:
        """Start per-span peak-allocation tracking (idempotent).

        Begins a tracemalloc session (unless one is already running);
        every span closed from here on carries ``mem_peak_bytes`` and
        feeds the :attr:`mem_peaks` registry. Never affects results.
        """
        if self._mem is None:
            from repro.obs.profile import MemTracker

            self._mem = MemTracker()

    def stop_memory_profiling(self) -> None:
        """Stop the tracemalloc session this collector started, if any.

        Recorded peaks are kept; only the (process-global) tracing is
        torn down, and only when this collector was the one to start
        it.
        """
        if self._mem is not None:
            self._mem.stop()
            self._mem = None

    def record_peak(self, name: str, peak_bytes: int) -> None:
        """Fold a peak observation into :attr:`mem_peaks` (max-merge)."""
        peak_bytes = int(peak_bytes)
        if peak_bytes > self.mem_peaks.get(name, -1):
            self.mem_peaks[name] = peak_bytes

    # -- cpu profiling ---------------------------------------------------

    @property
    def profile_cpu(self) -> bool:
        """True when a sampling CPU profiler is attached (repro.obs.cpuprof)."""
        return self._cpu is not None

    @property
    def cpu(self):
        """The attached :class:`~repro.obs.cpuprof.CpuProfiler`, or None."""
        return self._cpu

    def enable_cpu_profiling(self, sample_hz: float | None = None) -> None:
        """Attach a sampling CPU profiler (idempotent; keeps the first).

        The sampler thread itself only runs while a root span is open:
        ``_push`` starts it with the first root, ``_pop`` joins it when
        the root closes (including on exceptions — span ``__exit__``
        always runs), so the thread never leaks across runs or sweep
        points. Sampling is observation-only and never affects results.
        """
        if self._cpu is None:
            from repro.obs.cpuprof import DEFAULT_SAMPLE_HZ, CpuProfiler

            self._cpu = CpuProfiler(
                sample_hz=DEFAULT_SAMPLE_HZ if sample_hz is None else sample_hz
            )

    def stop_cpu_profiling(self) -> None:
        """Join the sampler thread if running and detach the profiler.

        The accumulated stack table stays reachable only through a
        reference taken before detaching; bundles snapshot the table at
        finalize time, before anyone calls this.
        """
        if self._cpu is not None:
            self._cpu.stop()
            self._cpu = None

    # -- spans -----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; use as a context manager to time a phase."""
        return Span(self, name, attrs)

    def _push(self, span: Span) -> None:
        if self._mem is not None:
            current, peak = self._mem.snapshot()
            if self._stack:
                # Bank the parent's running peak before the window resets.
                parent = self._stack[-1]
                if peak > parent._mem_child_peak:
                    parent._mem_child_peak = peak
            span._mem_base = current
            span._mem_child_peak = 0
            self._mem.reset_peak()
        self._stack.append(span)
        if self._cpu is not None:
            # Point this thread's registry entry at the new innermost
            # span, then make sure the sampler runs while a root span
            # is open (one start per root; _pop joins at root close).
            self._span_paths[threading.get_ident()] = ".".join(
                s.name for s in self._stack
            )
            if len(self._stack) == 1:
                self._cpu.start(self._span_paths)
        if self.events is not None:
            self.events.emit("span_open", span.name, attrs=dict(span.attrs))

    def _pop(self, span: Span) -> None:
        # Exiting out of order (a span leaked across a generator) would
        # corrupt the tree; tolerate it by unwinding to the span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if self._mem is not None:
            self._close_mem(span)
        if self._cpu is not None:
            if self._stack:
                self._span_paths[threading.get_ident()] = ".".join(
                    s.name for s in self._stack
                )
            else:
                # Root closed: join the sampler (exception-safe — span
                # __exit__ runs on raise too).
                self._span_paths.pop(threading.get_ident(), None)
                self._cpu.stop()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        if self.events is not None:
            # The close carries the span's final attributes (those set
            # after it opened too), so the run log holds the whole tree.
            self.events.emit(
                "span_close", span.name, attrs=span.attrs,
                seconds=span.elapsed_seconds,
            )
            if not self._stack:
                # One counter and gauge snapshot per completed root phase.
                self.events.emit("counters", span.name, **self.metrics_dict())

    def _close_mem(self, span: Span) -> None:
        """Record the span's peak window and propagate it outward."""
        _current, peak = self._mem.snapshot()
        abs_peak = max(peak, span._mem_child_peak)
        rel_peak = max(0, abs_peak - span._mem_base)
        span.attrs["mem_peak_bytes"] = rel_peak
        path = ".".join([s.name for s in self._stack] + [span.name])
        self.record_peak(path, rel_peak)
        if self._stack:
            parent = self._stack[-1]
            if abs_peak > parent._mem_child_peak:
                parent._mem_child_peak = abs_peak
        else:
            from repro.obs.profile import max_rss_kb

            rss = max_rss_kb()
            if rss is not None:
                self.gauge("mem.rss_max_kb", rss)
        self._mem.reset_peak()

    def current_span(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    # -- metrics ---------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Increment a named counter."""
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (overwrites)."""
        self.gauges[name] = value

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        return self.counters.get(name, 0)

    # -- live events / deadline ------------------------------------------

    def progress(
        self,
        phase: str,
        advance: int = 1,
        expect: int | None = None,
        **attrs: Any,
    ) -> None:
        """Advance a phase's work accounting on the event stream.

        A no-op without an event stream. ``done`` accumulates per
        phase across calls; ``expect`` *adds* that many units to the
        phase's expected total (additive, so repeated sub-runs — e.g.
        the lattice levels of one search — each announce their share),
        and renderers show ETA once a total is known. The final ``done``
        value per phase is the deterministic quantity (see
        :func:`repro.obs.events.event_counts`).
        """
        if self.events is None:
            return
        state = self._progress.get(phase)
        if state is None:
            state = self._progress[phase] = [0, None]
        if expect is not None:
            state[1] = (state[1] or 0) + int(expect)
        state[0] += int(advance)
        self.events.emit(
            "progress", phase, done=state[0], total=state[1], **attrs
        )

    def checkpoint(self, where: str = "") -> None:
        """Cooperative cancellation point (phase boundaries, mining
        step slices).

        Raises :class:`~repro.obs.events.RunCancelled` when an armed
        controller is past its deadline or explicitly cancelled; a
        plain no-op otherwise.
        """
        if self.controller is not None:
            self.controller.check(where, stream=self.events)

    def arm_deadline(self, deadline_s: float | None) -> None:
        """Install a fresh deadline controller for the upcoming run.

        The deadline counts from this call and covers every run on the
        collector until the next arm, so arm once before a sweep for
        one budget, or before each run for one budget apiece. ``None``
        leaves any existing controller untouched. A default bounded
        event stream is attached if none exists, so a cancelled run
        always carries a partial event log.
        """
        if deadline_s is None:
            return
        if self.events is None:
            self.events = EventStream()
        self.controller = RunController(deadline_s)

    # -- snapshots -------------------------------------------------------

    def metrics_dict(self) -> dict[str, Any]:
        """Counters and gauges, keys sorted for deterministic output."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
        }

    def trace_dict(self) -> list[dict[str, Any]]:
        """The completed span forest, JSON-ready."""
        return [s.to_dict() for s in self.roots]

    def phase_seconds(self) -> dict[str, float]:
        """Elapsed time per span, flattened to dotted phase paths.

        Repeated phases (e.g. one ``fit`` span per attribute)
        accumulate. Only completed spans are included.
        """
        out: dict[str, float] = {}

        def visit(span: Span, prefix: str) -> None:
            path = f"{prefix}.{span.name}" if prefix else span.name
            out[path] = out.get(path, 0.0) + span.elapsed_seconds
            for child in span.children:
                visit(child, path)

        for root in self.roots:
            visit(root, "")
        return out

    def __repr__(self) -> str:
        return (
            f"ObsCollector(spans={len(self.roots)}, "
            f"counters={len(self.counters)}, gauges={len(self.gauges)})"
        )


_NULL_SPAN = _NullSpan()


def _null_collector() -> "NullCollector":
    return NULL_OBS


class NullCollector:
    """Disabled collector: every operation is a cheap no-op.

    A single shared instance lives at :data:`NULL_OBS`; pickling round-
    trips back to that singleton, so ``is NULL_OBS`` checks survive a
    pickled config or engine.
    """

    enabled: bool = False
    profile_memory: bool = False
    profile_cpu: bool = False
    cpu: None = None
    mem_peaks: Mapping[str, int] = {}
    events: None = None
    controller: None = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def count(self, name: str, value: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def counter(self, name: str) -> int:
        return 0

    def enable_memory_profiling(self) -> None:
        return None

    def stop_memory_profiling(self) -> None:
        return None

    def enable_cpu_profiling(self, sample_hz: float | None = None) -> None:
        return None

    def stop_cpu_profiling(self) -> None:
        return None

    def record_peak(self, name: str, peak_bytes: int) -> None:
        return None

    def progress(
        self,
        phase: str,
        advance: int = 1,
        expect: int | None = None,
        **attrs: Any,
    ) -> None:
        return None

    def checkpoint(self, where: str = "") -> None:
        return None

    def arm_deadline(self, deadline_s: float | None) -> None:
        return None

    def metrics_dict(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}}

    def trace_dict(self) -> list[dict[str, Any]]:
        return []

    def phase_seconds(self) -> dict[str, float]:
        return {}

    def __reduce__(self):
        return (_null_collector, ())

    def __repr__(self) -> str:
        return "NULL_OBS"


#: The process-wide disabled collector. Instrumented code defaults to
#: this, so observability costs one truthiness/att lookup when off.
NULL_OBS = NullCollector()

#: Either collector flavour (for annotations).
AnyCollector = ObsCollector | NullCollector


def resolve_obs(obs: "AnyCollector | None") -> AnyCollector:
    """Normalize an optional collector argument: None means disabled."""
    if obs is None:
        return NULL_OBS
    return obs
