"""``python -m repro.obs.tail <run.jsonl>`` — run-log replay/follow viewer.

Replays a JSONL run log (see ``repro.obs.runlog``) as human-readable
lines, one per event, and closes with the deterministic
:func:`~repro.obs.events.event_counts` summary. With ``--follow`` the
file is polled for new lines as a live run appends them (Ctrl-C to
stop), which makes the viewer usable both post-mortem and while an
exploration is still streaming.

Records whose ``kind`` is unknown to this build (a run log written by
a newer schema revision) are skipped with a single summary warning on
stderr rather than failing the replay — old viewers stay usable on
new logs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from collections import Counter

from repro.obs.events import EVENT_KINDS, EVENTS_SCHEMA, event_counts
from repro.obs.runlog import validate_run_log


def format_record(record: dict[str, Any]) -> str:
    """One human-readable line for a parsed run-log record."""
    if record.get("kind") == "header":
        meta = record.get("meta") or {}
        suffix = f"  {meta}" if meta else ""
        return f"# run log {record.get('schema', EVENTS_SCHEMA)}{suffix}"
    t = float(record.get("t", 0.0))
    kind = str(record.get("kind", "?"))
    name = str(record.get("name", "?"))
    attrs = record.get("attrs") or {}
    line = f"[{t:9.3f}s] {kind:11s} {name}"
    if kind == "progress":
        done, total = attrs.get("done", 0), attrs.get("total")
        line += f"  {done}/{total if total is not None else '?'}"
    elif attrs:
        rendered = ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        line += f"  {rendered}"
    return line


def _iter_lines(path: Path, follow: bool, interval: float):
    """Yield complete lines, optionally polling for appended ones.

    A line the writer has only partially flushed is buffered (not
    yielded) until its newline arrives, so followers never see a
    torn JSON record.
    """
    with path.open() as fh:
        pending = ""
        while True:
            line = fh.readline()
            if line.endswith("\n"):
                yield pending + line
                pending = ""
            elif follow:
                pending += line
                time.sleep(interval)
            else:
                if pending or line:
                    yield pending + line
                return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.tail",
        description="Replay (or live-follow) a repro.obs JSONL run log.",
    )
    parser.add_argument("path", type=Path, help="run log written by --run-log")
    parser.add_argument(
        "--follow", "-f", action="store_true",
        help="keep polling for new events (Ctrl-C to stop)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.2,
        help="poll interval in seconds for --follow (default 0.2)",
    )
    args = parser.parse_args(argv)
    if not args.path.exists():
        print(f"no such run log: {args.path}", file=sys.stderr)
        return 2

    records: list[dict[str, Any]] = []
    unknown_kinds: Counter[str] = Counter()
    try:
        for line in _iter_lines(args.path, args.follow, args.interval):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                print(f"! unparseable line: {line[:80]}", file=sys.stderr)
                continue
            kind = record.get("kind")
            if kind not in EVENT_KINDS and kind != "header":
                # A newer writer's event kind: skip it (warn once at
                # the end) instead of failing the whole replay.
                unknown_kinds[str(kind)] += 1
                continue
            records.append(record)
            print(format_record(record))
    except KeyboardInterrupt:
        pass

    if unknown_kinds:
        skipped = sum(unknown_kinds.values())
        kinds = ", ".join(sorted(unknown_kinds))
        print(
            f"! skipped {skipped} event(s) of unknown kind(s) [{kinds}] "
            "— written by a newer run-log schema?",
            file=sys.stderr,
        )
    errors = validate_run_log(records)
    counts = event_counts(records[1:]) if records else {}
    if counts:
        print()
        print("event counts (deterministic kinds):")
        for key, value in counts.items():
            print(f"  {key:40s} {value}")
    if errors:
        print()
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
