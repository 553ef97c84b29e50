"""Memory profiling for the observability layer.

Peak-allocation tracking rides on the span tracer: when a collector is
built with ``profile_memory=True`` (or switched on later with
``enable_memory_profiling()``), every span additionally records the peak
``tracemalloc`` allocation reached while it was open, as the
``mem_peak_bytes`` span attribute and in the collector's
``mem_peaks`` registry (dotted phase path → peak bytes, max-merged).

Nesting is handled without losing parent peaks: ``tracemalloc`` keeps a
single global peak, so the tracker resets it at every span boundary and
folds the observed absolute peak into the enclosing span. A parent's
peak is therefore ``max(own windows, children's peaks)`` — exactly the
peak it would have seen with no children instrumented.

The profiler is strictly additive: it never touches results, and a
collector without ``profile_memory`` (or :data:`repro.obs.NULL_OBS`)
pays a single ``is None`` check per span.

RSS is the other half of the footprint story: allocations tracked by
``tracemalloc`` exclude numpy buffer slack and interpreter overhead, so
closing a root span also records the process high-water mark as the
``mem.rss_max_kb`` gauge (when the platform ``resource`` module is
available).
"""

from __future__ import annotations

import sys
import tracemalloc

try:
    import resource
except ImportError:  # non-POSIX platform
    resource = None  # type: ignore[assignment]


def max_rss_kb() -> float | None:
    """Process peak RSS in KiB, or None when unsupported.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalize to KiB.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / 1024.0
    return float(peak)


class MemTracker:
    """One collector's tracemalloc session.

    Starts tracing at construction unless something else already did;
    :meth:`stop` only stops what this tracker started, so nested
    profiled collectors never tear down each other's sessions.
    """

    __slots__ = ("started_here",)

    def __init__(self) -> None:
        if tracemalloc.is_tracing():
            self.started_here = False
        else:
            tracemalloc.start()
            self.started_here = True

    def stop(self) -> None:
        """Stop tracing if this tracker started it (idempotent)."""
        if self.started_here and tracemalloc.is_tracing():
            tracemalloc.stop()
        self.started_here = False

    @staticmethod
    def snapshot() -> tuple[int, int]:
        """(current, peak) traced bytes; zeros when tracing is off."""
        if not tracemalloc.is_tracing():
            return 0, 0
        return tracemalloc.get_traced_memory()

    @staticmethod
    def reset_peak() -> None:
        """Open a fresh peak window (no-op when tracing is off)."""
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
