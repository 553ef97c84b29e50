"""Run bundles: self-contained post-mortem capture of one run.

A *bundle* is a directory that packages everything the rest of the
forensics layer needs to analyze a run offline — on a different
machine, after the process is gone:

```
<bundle>/
  manifest.json   repro.obs/bundle@1: status, config + fingerprint,
                  git SHA, env/platform snapshot, dataset shape hash,
                  per-file sha256 integrity hashes
  run_log.jsonl   the full JSONL event stream (repro.obs.runlog)
  trace.json      the completed span forest (repro.obs/trace@1)
  metrics.json    counters + gauges (repro.obs/metrics@1)
  cpuprof.json    only for --profile-cpu runs: the sampled stack table
                  (repro.obs/cpuprof@1; export flamegraphs with
                  python -m repro.obs.cpuprof)
  crash.json      only for failed/cancelled runs: exception provenance
                  (or the RunCancelled reason/where) plus the last-N
                  events before death
  fault.log       faulthandler output, only after a hard fault
```

Capture is wired through ``ExploreConfig(bundle_dir=...)`` / the CLI
``--bundle DIR`` flag: the explorers enter :func:`bundle_scope` around
the run, which attaches a run-log sink to the collector's event
stream, installs the crash hooks (``sys.excepthook`` plus
``faulthandler`` — this module is their single sanctioned owner,
reprolint RPL018), and finalizes the bundle on the way out whatever
the outcome. A run that raises — including a cooperative
:class:`~repro.obs.events.RunCancelled` — still leaves a complete,
valid bundle with a ``crash.json``.

:func:`load_bundle` and :func:`validate_bundle` round-trip the
directory; ``python -m repro.obs.doctor`` and ``python -m
repro.obs.diff`` consume loaded bundles.
"""

from __future__ import annotations

import faulthandler
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.obs.bench import config_fingerprint
from repro.obs.collector import AnyCollector, ObsCollector
from repro.obs.events import EventStream, RunCancelled
from repro.obs.report import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    metrics_payload,
    trace_payload,
)
from repro.obs.runlog import JsonlRunLog, read_run_log, validate_run_log

BUNDLE_SCHEMA = "repro.obs/bundle@1"

#: Statuses a finalized bundle can carry.
BUNDLE_STATUSES = ("ok", "cancelled", "crashed")

#: How many of the most recent events ``crash.json`` records.
CRASH_EVENT_WINDOW = 50

MANIFEST_FILENAME = "manifest.json"
CRASH_FILENAME = "crash.json"
FAULT_LOG_FILENAME = "fault.log"

#: The always-written artifacts: manifest ``files`` key -> file name.
BUNDLE_FILES = {
    "run_log": "run_log.jsonl",
    "trace": "trace.json",
    "metrics": "metrics.json",
}


def _write_json(path: Path, payload: Mapping[str, Any]) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _utc_timestamp() -> str:
    """Current UTC time as an ISO-8601 string (manifest metadata only)."""
    from datetime import datetime, timezone

    # reprolint: disable-next-line=RPL014 (manifest timestamp is metadata, not an interval)
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _git_sha() -> str:
    """Short git SHA of HEAD, or ``"unknown"`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def env_snapshot() -> dict[str, Any]:
    """The platform/interpreter snapshot recorded in the manifest."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
    }


def dataset_snapshot(dataset: Any) -> dict[str, Any] | None:
    """Shape fingerprint of the explored table (duck-typed; no data).

    Row count, column names and the continuous subset, hashed into a
    16-hex ``shape_hash`` — enough for the diff/doctor tooling to warn
    when two runs did not see the same-shaped input, without copying
    the (possibly sensitive) data into the bundle.
    """
    n_rows = getattr(dataset, "n_rows", None)
    columns = getattr(dataset, "column_names", None)
    if n_rows is None or columns is None:
        return None
    shape: dict[str, Any] = {
        "n_rows": int(n_rows),
        "n_columns": len(columns),
        "columns": list(columns),
        "continuous": list(getattr(dataset, "continuous_names", ())),
    }
    shape["shape_hash"] = config_fingerprint(shape)
    return shape


def trace_phase_seconds(spans: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """Flatten a JSON span forest to dotted-path wall times.

    The file-side twin of ``ObsCollector.phase_seconds`` — repeated
    paths accumulate — used to align two runs' span trees by path.
    """
    out: dict[str, float] = {}
    for path, span in _walk_paths(spans, ""):
        out[path] = out.get(path, 0.0) + float(span.get("elapsed_seconds", 0.0))
    return out


def _walk_paths(
    spans: Iterable[Mapping[str, Any]], prefix: str
) -> Iterator[tuple[str, Mapping[str, Any]]]:
    """Every span of a JSON forest with its dotted path, preorder."""
    for span in spans:
        name = str(span.get("name", ""))
        path = f"{prefix}.{name}" if prefix else name
        yield path, span
        yield from _walk_paths(span.get("children", ()), path)


class CrashCapture:
    """Process-level crash hooks scoped to one bundle's active window.

    This class (via :class:`RunBundle`) is the single sanctioned owner
    of ``sys.excepthook`` and ``faulthandler`` installation (reprolint
    RPL018): the hook writes ``crash.json`` and finalizes the bundle
    before chaining to the previous hook, and ``faulthandler`` streams
    hard faults (segfaults, fatal signals) into ``fault.log``. Both
    are restored on :meth:`uninstall`; an already-enabled faulthandler
    (e.g. pytest's) is left alone.
    """

    def __init__(self, bundle: "RunBundle") -> None:
        self._bundle = bundle
        self._prev_hook = None
        self._fault_file = None

    def install(self) -> None:
        if self._prev_hook is None:
            self._prev_hook = sys.excepthook
            sys.excepthook = self._hook
        if self._fault_file is None and not faulthandler.is_enabled():
            path = self._bundle.directory / FAULT_LOG_FILENAME
            self._fault_file = path.open("w")
            faulthandler.enable(file=self._fault_file)

    def uninstall(self) -> None:
        if self._prev_hook is not None:
            sys.excepthook = self._prev_hook
            self._prev_hook = None
        if self._fault_file is not None:
            faulthandler.disable()
            self._fault_file.close()
            path = self._bundle.directory / FAULT_LOG_FILENAME
            if path.exists() and path.stat().st_size == 0:
                path.unlink()
            self._fault_file = None

    def _hook(self, exc_type, exc, tb) -> None:
        prev = self._prev_hook or sys.__excepthook__
        try:
            self._bundle.record_crash(exc)
            self._bundle.finalize()
        finally:
            prev(exc_type, exc, tb)


class RunBundle:
    """Capture one run into a self-contained bundle directory.

    Use as a context manager around the run::

        obs = ObsCollector()
        with RunBundle("out/run1", name="fig2", config=cfg.to_dict(),
                       obs=obs, dataset=table):
            explorer.explore(table, outcome)

    Entering creates the directory, attaches a
    :class:`~repro.obs.runlog.JsonlRunLog` sink to the collector's
    event stream (creating the stream when the collector has none) and
    installs the crash hooks; exiting finalizes — writing the trace,
    metrics and closing manifest — whether the run succeeded, crashed,
    or was cancelled. Exceptions always propagate;
    the bundle only observes. Re-running into the same directory
    overwrites the previous capture.
    """

    def __init__(
        self,
        directory: str | Path,
        name: str = "run",
        config: Mapping[str, Any] | None = None,
        obs: AnyCollector | None = None,
        dataset: Any = None,
        crash_events: int = CRASH_EVENT_WINDOW,
    ) -> None:
        if not name:
            raise ValueError("bundle name must be non-empty")
        self.directory = Path(directory)
        self.name = name
        self.config = dict(config) if config else {}
        if obs is None or not obs.enabled:
            obs = ObsCollector()
        self.obs: ObsCollector = obs
        self.dataset = dataset_snapshot(dataset)
        self.crash_events = int(crash_events)
        self.status: str | None = None
        self.crash: dict[str, Any] | None = None
        self.manifest: dict[str, Any] | None = None
        self._run_log: JsonlRunLog | None = None
        self._capture = CrashCapture(self)

    def __enter__(self) -> "RunBundle":
        self.directory.mkdir(parents=True, exist_ok=True)
        for stale in (CRASH_FILENAME, FAULT_LOG_FILENAME):
            path = self.directory / stale
            if path.exists():
                path.unlink()
        if self.obs.events is None:
            self.obs.events = EventStream()
        self._run_log = JsonlRunLog(
            self.directory / BUNDLE_FILES["run_log"],
            meta={"bundle": self.name},
        )
        self.obs.events.add_sink(self._run_log)
        self._capture.install()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if isinstance(exc, BaseException):
            self.record_crash(exc)
        self.finalize()
        return False

    # -- capture steps ---------------------------------------------------

    def record_crash(self, exc: BaseException) -> dict[str, Any]:
        """Write ``crash.json``: provenance + the last events before death.

        A :class:`~repro.obs.events.RunCancelled` records the
        cooperative-cancellation provenance (reason, checkpoint,
        elapsed) and marks the bundle ``cancelled``; any other
        exception records its type, message and traceback and marks it
        ``crashed``. Either way the most recent ``crash_events``
        retained events ride along, so the analyst sees what the run
        was doing when it died even without opening the run log.
        """
        stream = self.obs.events
        last = (
            [e.to_dict() for e in stream.events[-self.crash_events:]]
            if stream is not None else []
        )
        if isinstance(exc, RunCancelled):
            self.status = "cancelled"
            crash: dict[str, Any] = {
                "kind": "cancelled",
                "reason": exc.reason,
                "where": exc.where,
                "elapsed_seconds": exc.elapsed_seconds,
            }
        else:
            self.status = "crashed"
            crash = {
                "kind": "exception",
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exception(
                    type(exc), exc, exc.__traceback__
                ),
            }
        crash["last_events"] = last
        self.crash = crash
        _write_json(self.directory / CRASH_FILENAME, crash)
        return crash

    def finalize(self) -> dict[str, Any]:
        """Write the remaining artifacts and the closing manifest.

        Idempotent: the excepthook and the context-manager exit can
        both call it; the first call wins. The manifest is written
        last, so a manifest on disk implies every other artifact (and
        its recorded sha256) is complete.
        """
        if self.manifest is not None:
            return self.manifest
        self._capture.uninstall()
        stream = self.obs.events
        if self._run_log is not None:
            self._run_log.close()
            if stream is not None:
                stream.remove_sink(self._run_log)
            self._run_log = None
        if self.status is None:
            self.status = "ok"
        _write_json(
            self.directory / BUNDLE_FILES["trace"], trace_payload(self.obs)
        )
        _write_json(
            self.directory / BUNDLE_FILES["metrics"], metrics_payload(self.obs)
        )

        files: dict[str, dict[str, Any]] = {}
        names = dict(BUNDLE_FILES)
        if self.obs.profile_cpu:
            # Snapshot the sampled stack table next to the trace. The
            # root spans closed before the scope exits, so the sampler
            # is already joined and the table is final. (Lazy import:
            # cpuprof resolves through the package's PEP 562 hook so
            # `python -m repro.obs.cpuprof` imports it exactly once.)
            from repro.obs.cpuprof import CPUPROF_FILENAME, write_cpuprof

            write_cpuprof(self.obs.cpu, self.directory / CPUPROF_FILENAME)
            names["cpuprof"] = CPUPROF_FILENAME
        if self.crash is not None:
            names["crash"] = CRASH_FILENAME
        for key in sorted(names):
            path = self.directory / names[key]
            files[key] = {
                "path": names[key],
                "bytes": path.stat().st_size,
                "sha256": _sha256(path),
            }
        controller = self.obs.controller
        manifest: dict[str, Any] = {
            "schema": BUNDLE_SCHEMA,
            "name": self.name,
            "status": self.status,
            "config": self.config,
            "config_fingerprint": config_fingerprint(self.config),
            "git_sha": _git_sha(),
            "recorded_at": _utc_timestamp(),
            "env": env_snapshot(),
            "dataset": self.dataset,
            "deadline_s": (
                controller.deadline_s if controller is not None else None
            ),
            "elapsed_seconds": (
                stream.events[-1].t if stream is not None and len(stream)
                else 0.0
            ),
            "events": {
                "emitted": (len(stream) + stream.dropped) if stream else 0,
                "retained": len(stream) if stream else 0,
                "dropped": stream.dropped if stream else 0,
            },
            "files": files,
        }
        _write_json(self.directory / MANIFEST_FILENAME, manifest)
        self.manifest = manifest
        return manifest


@contextmanager
def bundle_scope(
    config: Any,
    obs: AnyCollector,
    dataset: Any = None,
    name: str = "run",
) -> Iterator[RunBundle | None]:
    """The explorers' capture hook: inert unless bundling was requested.

    Duck-types ``config``: anything with a non-None ``bundle_dir``
    attribute (an :class:`repro.core.config.ExploreConfig`, typically)
    turns the scope into a live :class:`RunBundle` around the run
    body; otherwise the scope yields ``None`` and costs one attribute
    lookup. ``config.to_dict()``, when present, supplies the manifest
    config section.
    """
    bundle_dir = getattr(config, "bundle_dir", None)
    if bundle_dir is None:
        yield None
        return
    to_dict = getattr(config, "to_dict", None)
    config_dict = to_dict() if callable(to_dict) else {}
    with RunBundle(
        bundle_dir, name=name, config=config_dict, obs=obs, dataset=dataset
    ) as bundle:
        yield bundle


# -- loading / validation --------------------------------------------------


@dataclass(frozen=True)
class Bundle:
    """A loaded run bundle (the return type of :func:`load_bundle`)."""

    directory: Path
    manifest: dict[str, Any]
    records: list[dict[str, Any]]
    trace: dict[str, Any]
    metrics: dict[str, Any]
    crash: dict[str, Any] | None
    cpuprof: dict[str, Any] | None = None

    @property
    def name(self) -> str:
        return str(self.manifest.get("name", ""))

    @property
    def status(self) -> str:
        return str(self.manifest.get("status", ""))

    @property
    def events(self) -> list[dict[str, Any]]:
        """The run-log event records (the header line excluded)."""
        return self.records[1:]

    @property
    def counters(self) -> dict[str, int]:
        return dict(self.metrics.get("counters", {}))

    @property
    def gauges(self) -> dict[str, float]:
        return dict(self.metrics.get("gauges", {}))

    @property
    def mem_peaks(self) -> dict[str, int]:
        """The largest ``mem_peak_bytes`` span attribute per dotted path.

        The file-side twin of ``ObsCollector.mem_peaks``, folded from
        the bundled trace with the same max-merge as ``record_peak``;
        empty unless the run profiled memory.
        """
        out: dict[str, int] = {}
        for path, span in _walk_paths(self.trace.get("spans", ()), ""):
            peak = (span.get("attrs") or {}).get("mem_peak_bytes")
            if peak is not None and int(peak) > out.get(path, -1):
                out[path] = int(peak)
        return out

    def phase_seconds(self) -> dict[str, float]:
        """Dotted-path wall times flattened from the bundled trace."""
        return trace_phase_seconds(self.trace.get("spans", ()))


def load_bundle(directory: str | Path) -> Bundle:
    """Load a bundle directory into a :class:`Bundle`.

    Raises :class:`FileNotFoundError` when the manifest is missing;
    optional artifacts (``crash.json``) load as ``None`` when absent.
    Use :func:`validate_bundle` for integrity checking — loading is
    deliberately tolerant so a damaged bundle can still be inspected.
    """
    directory = Path(directory)
    manifest = json.loads(
        (directory / MANIFEST_FILENAME).read_text(encoding="utf-8")
    )

    def read_optional(filename: str) -> dict[str, Any] | None:
        path = directory / filename
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    from repro.obs.cpuprof import CPUPROF_FILENAME

    log_path = directory / BUNDLE_FILES["run_log"]
    records = read_run_log(log_path) if log_path.exists() else []
    return Bundle(
        directory=directory,
        manifest=manifest,
        records=records,
        trace=read_optional(BUNDLE_FILES["trace"]) or {},
        metrics=read_optional(BUNDLE_FILES["metrics"]) or {},
        crash=read_optional(CRASH_FILENAME),
        cpuprof=read_optional(CPUPROF_FILENAME),
    )


def validate_bundle(directory: str | Path) -> list[str]:
    """Integrity-check a bundle directory; returns problems (empty = valid).

    Checks the manifest schema and status, the config fingerprint,
    that every file the manifest lists exists with the recorded
    sha256, the run log's internal validity, the trace/metrics
    schemas, and that ``crash.json`` presence agrees with the status.
    """
    directory = Path(directory)
    problems: list[str] = []
    manifest_path = directory / MANIFEST_FILENAME
    if not manifest_path.exists():
        return [f"missing {MANIFEST_FILENAME}"]
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"unparseable {MANIFEST_FILENAME}: {exc}"]
    if manifest.get("schema") != BUNDLE_SCHEMA:
        problems.append(
            f"manifest schema is {manifest.get('schema')!r}, "
            f"expected {BUNDLE_SCHEMA!r}"
        )
    status = manifest.get("status")
    if status not in BUNDLE_STATUSES:
        problems.append(f"unknown status {status!r}")
    config = manifest.get("config")
    if not isinstance(config, dict):
        problems.append("manifest config missing or not an object")
    elif manifest.get("config_fingerprint") != config_fingerprint(config):
        problems.append("config_fingerprint does not match config")

    files = manifest.get("files")
    if not isinstance(files, dict):
        problems.append("manifest files missing or not an object")
        files = {}
    for key in BUNDLE_FILES:
        if key not in files:
            problems.append(f"manifest lists no {key!r} file")
    for key in sorted(files):
        entry = files[key]
        path = directory / str(entry.get("path", ""))
        if not path.is_file():
            problems.append(f"{key}: missing file {entry.get('path')!r}")
            continue
        digest = _sha256(path)
        if digest != entry.get("sha256"):
            problems.append(f"{key}: sha256 mismatch (file was modified)")

    log_path = directory / BUNDLE_FILES["run_log"]
    if log_path.is_file():
        problems.extend(
            f"run log: {e}" for e in validate_run_log(read_run_log(log_path))
        )
    trace_path = directory / BUNDLE_FILES["trace"]
    if trace_path.is_file():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        if trace.get("schema") != TRACE_SCHEMA:
            problems.append(f"trace schema is {trace.get('schema')!r}")
    metrics_path = directory / BUNDLE_FILES["metrics"]
    if metrics_path.is_file():
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        if metrics.get("schema") != METRICS_SCHEMA:
            problems.append(f"metrics schema is {metrics.get('schema')!r}")
    from repro.obs.cpuprof import CPUPROF_FILENAME, validate_cpuprof_payload

    cpuprof_path = directory / CPUPROF_FILENAME
    if cpuprof_path.is_file():
        payload = json.loads(cpuprof_path.read_text(encoding="utf-8"))
        problems.extend(
            f"cpuprof: {e}" for e in validate_cpuprof_payload(payload)
        )

    crash_path = directory / CRASH_FILENAME
    if status == "ok" and crash_path.exists():
        problems.append("crash.json present for an ok run")
    if status in ("cancelled", "crashed"):
        if not crash_path.exists():
            problems.append(f"status {status!r} but no crash.json")
        else:
            crash = json.loads(crash_path.read_text(encoding="utf-8"))
            expected = "cancelled" if status == "cancelled" else "exception"
            if crash.get("kind") != expected:
                problems.append(
                    f"crash kind {crash.get('kind')!r} does not match "
                    f"status {status!r}"
                )
            if not isinstance(crash.get("last_events"), list):
                problems.append("crash.json last_events missing")
    return problems
