"""Tests for the live telemetry plane (``repro.obs.events``/``runlog``).

Covers the event-stream mechanics (bounding, seq, sinks), the JSONL
run log round-trip and its validator, the progress renderer, the
deadline/cancellation controller, the Chrome-trace exporter, and the
pipeline-level determinism contracts: events-off runs bit-identical to
events-on runs, and ``event_counts`` parity across ``n_jobs`` ∈ {1, 4}
and across the (deprecated) backend names.
"""

from __future__ import annotations

import io
import json
import threading
import time
import warnings

import pytest

from repro.core.config import ExploreConfig
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem, IntervalItem
from repro.core.mining.transactions import (
    BACKENDS,
    RETIRED_BACKENDS,
    EncodedUniverse,
    mine,
)
from repro.obs import (
    EVENTS_SCHEMA,
    Event,
    EventStream,
    JsonlRunLog,
    NullCollector,
    ObsCollector,
    ProgressRenderer,
    RunCancelled,
    RunController,
    as_event_stream,
    event_counts,
    read_run_log,
    to_chrome_trace,
    validate_run_log,
    write_chrome_trace,
)
from repro.obs.tail import _iter_lines, main as tail_main
from repro.tabular import Table


@pytest.fixture
def universe(rng):
    """A 500-row universe: two discretized attrs + one categorical."""
    n = 500
    x = rng.uniform(0, 10, n)
    y = rng.uniform(-3, 3, n)
    cat = rng.choice(["a", "b", "c", "d"], n)
    o = ((x > 6) & (y > 0)).astype(float)
    table = Table({"x": x, "y": y, "cat": cat})
    items = [
        IntervalItem("x", high=3),
        IntervalItem("x", 3, 6),
        IntervalItem("x", low=6),
        IntervalItem("y", high=0),
        IntervalItem("y", low=0),
        CategoricalItem("cat", "a"),
        CategoricalItem("cat", "b"),
        CategoricalItem("cat", "c"),
        CategoricalItem("cat", "d"),
    ]
    return EncodedUniverse.from_table(table, items, o)


def mined_signature(mined):
    return sorted(
        (tuple(sorted(m.ids)), m.stats.count, m.stats.n, m.stats.total)
        for m in mined
    )


def result_signature(result):
    return sorted(
        (tuple(sorted(str(i) for i in r.itemset)), r.count,
         round(r.divergence, 12))
        for r in result
    )


class TestEventStream:
    def test_seq_increases_and_events_are_retained(self):
        stream = EventStream()
        stream.emit("span_open", "a")
        stream.emit("span_close", "a", seconds=0.1)
        assert [e.seq for e in stream] == [0, 1]
        assert len(stream) == 2
        assert stream.events[0].kind == "span_open"

    def test_bounded_window_counts_dropped_but_sinks_see_all(self):
        seen = []

        class Sink:
            def handle(self, event):
                seen.append(event.seq)

        stream = EventStream(sinks=[Sink()], max_events=3)
        for i in range(5):
            stream.emit("progress", "p", done=i)
        assert len(stream) == 3
        assert stream.dropped == 2
        assert [e.seq for e in stream] == [2, 3, 4]
        assert seen == [0, 1, 2, 3, 4]

    def test_unknown_kind_and_bad_bound_raise(self):
        with pytest.raises(ValueError):
            EventStream().emit("nonsense", "x")
        with pytest.raises(ValueError):
            EventStream(max_events=0)

    def test_attrs_param_survives_signature_collisions(self):
        stream = EventStream()
        event = stream.emit(
            "span_open", "s", attrs={"kind": "base", "name": "inner"},
            extra=1,
        )
        assert event.attrs == {"kind": "base", "name": "inner", "extra": 1}
        record = event.to_dict()
        assert record["kind"] == "span_open"
        assert record["attrs"]["kind"] == "base"

    def test_explicit_timestamp_is_kept(self):
        stream = EventStream()
        event = stream.emit("heartbeat", "hb", worker=2, t=1.25)
        assert event.t == 1.25
        assert event.worker == 2

    def test_close_closes_closable_sinks(self, tmp_path):
        log = JsonlRunLog(tmp_path / "run.jsonl")
        stream = EventStream(sinks=[log])
        stream.emit("span_open", "a")
        stream.close()
        assert log._file is None


class TestAsEventStream:
    def test_none_and_passthrough(self):
        assert as_event_stream(None) is None
        stream = EventStream()
        assert as_event_stream(stream) is stream

    def test_true_sink_and_sink_list(self):
        assert isinstance(as_event_stream(True), EventStream)
        renderer = ProgressRenderer(stream=io.StringIO())
        single = as_event_stream(renderer)
        assert isinstance(single, EventStream)
        many = as_event_stream([renderer, ProgressRenderer(io.StringIO())])
        assert isinstance(many, EventStream)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_event_stream(42)


class TestEventCounts:
    def test_progress_reports_final_done_not_event_count(self):
        stream = EventStream()
        for done in (1, 2, 5):
            stream.emit("progress", "mine", done=done, total=5)
        stream.emit("progress", "sweep", done=4, total=4)
        counts = event_counts(stream)
        assert counts["progress:mine"] == 5
        assert counts["progress:sweep"] == 4

    def test_scheduling_dependent_kinds_are_excluded(self):
        stream = EventStream()
        stream.emit("span_open", "mine")
        stream.emit("heartbeat", "mine.shard", worker=1)
        stream.emit("worker_span", "mine.shard", worker=1, t0=0.0, t1=0.1)
        stream.emit("cancelled", "mine", reason="deadline")
        stream.emit("span_close", "mine", seconds=0.2)
        assert event_counts(stream) == {
            "span_close:mine": 1,
            "span_open:mine": 1,
        }

    def test_accepts_run_log_records(self):
        records = [
            {"seq": 0, "t": 0.0, "kind": "progress", "name": "mine",
             "worker": 0, "attrs": {"done": 3, "total": 3}},
            {"seq": 1, "t": 0.1, "kind": "counters", "name": "mine",
             "worker": 0, "attrs": {"counters": {}}},
        ]
        assert event_counts(records) == {
            "counters:mine": 1, "progress:mine": 3,
        }


class TestJsonlRunLog:
    def write_log(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = EventStream(
            sinks=[JsonlRunLog(path, meta={"command": "test"})]
        )
        obs = ObsCollector(events=stream)
        with obs.span("root", kind="demo"):
            obs.count("mining.candidates", 7)
            obs.progress("mine", advance=0, expect=2)
            obs.progress("mine")
            obs.progress("mine")
        stream.close()
        return path

    def test_round_trip_and_validation(self, tmp_path):
        path = self.write_log(tmp_path)
        records = read_run_log(path)
        assert records[0]["schema"] == EVENTS_SCHEMA
        assert records[0]["kind"] == "header"
        assert records[0]["meta"] == {"command": "test"}
        assert validate_run_log(records) == []
        kinds = [r["kind"] for r in records[1:]]
        assert kinds == [
            "span_open", "progress", "progress", "progress",
            "span_close", "counters",
        ]
        assert event_counts(records[1:])["progress:mine"] == 2
        # The root-close counter snapshot carries the registry.
        assert records[-1]["attrs"]["counters"] == {"mining.candidates": 7}

    def test_validator_catches_drift(self):
        assert validate_run_log([]) == ["empty run log (no header)"]
        bad = [
            {"schema": "someone-else/events@9", "kind": "header"},
            {"seq": 5, "t": 0.1, "kind": "progress", "name": "p", "worker": 0},
            {"seq": 3, "t": -1.0, "kind": "nonsense", "name": "p",
             "worker": 0},
            {"t": 0.2, "kind": "progress", "name": "p", "worker": 0},
        ]
        errors = validate_run_log(bad)
        assert any("schema" in e for e in errors)
        assert any("not increasing" in e for e in errors)
        assert any("unknown kind" in e for e in errors)
        assert any("bad timestamp" in e for e in errors)
        assert any("missing key 'seq'" in e for e in errors)

    def test_log_is_valid_mid_stream(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = JsonlRunLog(path)
        stream = EventStream(sinks=[log])
        stream.emit("span_open", "a")
        # Before close: header + complete prefix must already validate.
        assert validate_run_log(read_run_log(path)) == []
        stream.close()


class TestTail:
    def test_replay_prints_events_and_counts(self, tmp_path, capsys):
        path = TestJsonlRunLog().write_log(tmp_path)
        assert tail_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "# run log repro.obs/events@1" in out
        assert "span_open" in out and "progress" in out
        assert "event counts (deterministic kinds)" in out
        assert "progress:mine" in out

    def test_invalid_log_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "not-a-header"}\n')
        assert tail_main([str(path)]) == 1
        assert "invalid:" in capsys.readouterr().err

    def test_missing_log_exits_two(self, tmp_path, capsys):
        assert tail_main([str(tmp_path / "absent.jsonl")]) == 2


class TestTailUnknownKinds:
    """Forward compatibility: logs from newer schemas replay cleanly."""

    def write_newer_log(self, tmp_path):
        path = TestJsonlRunLog().write_log(tmp_path)
        with path.open("a") as fh:
            for seq, kind in enumerate(
                ("gpu_span", "gpu_span", "qps_gauge"), start=900
            ):
                fh.write(json.dumps({
                    "kind": kind, "name": "k", "t": 9.0, "seq": seq,
                    "worker": 0, "attrs": {},
                }) + "\n")
        return path

    def test_unknown_kinds_are_skipped_not_fatal(self, tmp_path, capsys):
        path = self.write_newer_log(tmp_path)
        assert tail_main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "gpu_span" not in captured.out
        assert "invalid:" not in captured.err

    def test_single_warning_names_kinds_and_count(self, tmp_path, capsys):
        path = self.write_newer_log(tmp_path)
        tail_main([str(path)])
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if "unknown kind" in line
        ]
        assert len(warnings) == 1
        assert "skipped 3 event(s)" in warnings[0]
        assert "gpu_span" in warnings[0] and "qps_gauge" in warnings[0]

    def test_known_kinds_only_emits_no_warning(self, tmp_path, capsys):
        path = TestJsonlRunLog().write_log(tmp_path)
        assert tail_main([str(path)]) == 0
        assert "unknown kind" not in capsys.readouterr().err


class TestTailFollow:
    def test_follow_yields_lines_appended_by_writer(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text('{"kind": "header"}\n')
        done = threading.Event()

        def writer():
            with path.open("a") as fh:
                fh.write('{"kind": "span_')  # partial: must NOT yield yet
                fh.flush()
                time.sleep(0.05)
                fh.write('open", "name": "mine"}\n')
                fh.write('{"kind": "progress", "name": "mine"}\n')
                fh.flush()
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        lines = []
        for line in _iter_lines(path, follow=True, interval=0.01):
            lines.append(line)
            if len(lines) == 3:
                break
        thread.join()
        assert done.is_set()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["header", "span_open", "progress"]
        # Only complete (newline-terminated) lines were yielded.
        assert all(line.endswith("\n") for line in lines)

    def test_no_follow_yields_trailing_partial_line_and_stops(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"kind": "header"}\n{"kind": "trunc')
        lines = list(_iter_lines(path, follow=False, interval=0.01))
        assert len(lines) == 2
        assert lines[0].endswith("\n")
        assert not lines[1].endswith("\n")


class TestProgressRenderer:
    def render(self, events, min_interval=0.0):
        out = io.StringIO()
        renderer = ProgressRenderer(stream=out, min_interval=min_interval)
        for event in events:
            renderer.handle(event)
        return out.getvalue()

    def test_progress_lines_with_eta_and_done(self):
        events = [
            Event(0, 0.0, "progress", "mine", attrs={"done": 0, "total": 4}),
            Event(1, 1.0, "progress", "mine", attrs={"done": 2, "total": 4}),
            Event(2, 2.0, "progress", "mine", attrs={"done": 4, "total": 4}),
        ]
        out = self.render(events)
        assert "mine: 0/4 (  0%)" in out
        assert "mine: 2/4 ( 50%) eta 1.0s" in out
        assert "mine: 4/4 (100%) done in 2.0s" in out

    def test_throttles_between_first_and_final(self):
        events = [
            Event(i, i * 0.001, "progress", "mine",
                  attrs={"done": i, "total": 100})
            for i in range(101)
        ]
        out = self.render(events, min_interval=10.0)
        # First event renders, the 99 throttled ones do not, and the
        # final (done == total) one always renders.
        assert out.count("\n") == 2

    def test_non_progress_kinds_ignored_cancelled_rendered(self):
        events = [
            Event(0, 0.0, "span_open", "mine"),
            Event(1, 0.5, "cancelled", "mine", attrs={"reason": "deadline"}),
        ]
        out = self.render(events)
        assert "span_open" not in out
        assert "cancelled at mine (deadline)" in out

    def test_non_tty_stream_gets_plain_lines_and_slow_interval(self):
        out = io.StringIO()  # StringIO.isatty() is False
        renderer = ProgressRenderer(stream=out)
        assert renderer.min_interval == ProgressRenderer.PLAIN_INTERVAL
        renderer.handle(
            Event(0, 0.0, "progress", "mine", attrs={"done": 1, "total": 4})
        )
        renderer.close()
        text = out.getvalue()
        # Plain append-only lines: no carriage returns or ANSI erases.
        assert "\r" not in text and "\x1b" not in text
        assert text.endswith("\n")

    def test_tty_stream_rewrites_in_place_and_closes_line(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        out = Tty()
        renderer = ProgressRenderer(stream=out, min_interval=0.0)
        assert ProgressRenderer(stream=out).min_interval == (
            ProgressRenderer.TTY_INTERVAL
        )
        renderer.handle(
            Event(0, 0.0, "progress", "mine", attrs={"done": 1, "total": 4})
        )
        renderer.handle(
            Event(1, 1.0, "progress", "mine", attrs={"done": 2, "total": 4})
        )
        mid = out.getvalue()
        # In-flight updates rewrite one line (\r + erase, no newline).
        assert mid.count("\r") == 2 and mid.count("\x1b[K") == 2
        assert "\n" not in mid
        renderer.handle(
            Event(2, 2.0, "progress", "mine", attrs={"done": 4, "total": 4})
        )
        done = out.getvalue()
        # The final (done == total) update closes the line.
        assert done.endswith("\n")
        renderer.close()
        assert out.getvalue() == done  # nothing left open

    def test_close_terminates_open_tty_line(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        out = Tty()
        renderer = ProgressRenderer(stream=out, min_interval=0.0)
        renderer.handle(
            Event(0, 0.0, "progress", "mine", attrs={"done": 1, "total": 4})
        )
        assert not out.getvalue().endswith("\n")
        renderer.close()
        assert out.getvalue().endswith("\n")


class TestRunController:
    def test_manual_cancel_trips_next_check(self):
        controller = RunController()
        controller.check("mine")  # no deadline, not cancelled: no-op
        controller.cancel("user abort")
        assert controller.cancelled
        with pytest.raises(RunCancelled) as exc_info:
            controller.check("mine")
        exc = exc_info.value
        assert exc.reason == "user abort"
        assert exc.where == "mine"
        assert "run cancelled (user abort) at mine" in str(exc)

    def test_expired_deadline_emits_cancelled_event(self):
        stream = EventStream()
        controller = RunController(deadline_s=1e-9)
        while not controller.expired():
            pass
        assert controller.remaining_seconds() == 0.0
        with pytest.raises(RunCancelled) as exc_info:
            controller.check("discretize", stream=stream)
        exc = exc_info.value
        assert exc.reason == "deadline"
        assert exc.elapsed_seconds > 0
        assert exc.events[-1].kind == "cancelled"
        assert exc.events[-1].attrs["reason"] == "deadline"

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            RunController(deadline_s=0.0)

    def test_no_deadline_never_expires(self):
        controller = RunController()
        assert controller.remaining_seconds() is None
        assert not controller.expired()


class TestCollectorEvents:
    def test_progress_expect_is_additive(self):
        obs = ObsCollector(events=EventStream())
        obs.progress("mine", advance=0, expect=3)
        obs.progress("mine", advance=3)
        obs.progress("mine", advance=0, expect=2)  # second subspace
        obs.progress("mine", advance=2)
        last = obs.events.events[-1]
        assert last.attrs["done"] == 5
        assert last.attrs["total"] == 5

    def test_counter_snapshot_only_at_root_close(self):
        obs = ObsCollector(events=EventStream())
        with obs.span("root"):
            with obs.span("inner"):
                obs.count("c", 2)
        kinds = [e.kind for e in obs.events]
        assert kinds == [
            "span_open", "span_open", "span_close", "span_close", "counters",
        ]
        assert obs.events.events[-1].attrs["counters"] == {"c": 2}

    def test_null_and_streamless_collectors_are_inert(self):
        null = NullCollector()
        null.progress("mine", expect=5)
        null.heartbeat("hb")
        null.checkpoint("mine")
        null.arm_deadline(10.0)
        assert null.events is None and null.controller is None
        plain = ObsCollector()
        plain.progress("mine", expect=5)
        plain.heartbeat("hb")
        plain.checkpoint("mine")
        assert plain.events is None

    def test_arm_deadline_attaches_a_stream(self):
        obs = ObsCollector()
        obs.arm_deadline(None)
        assert obs.controller is None
        obs.arm_deadline(30.0)
        assert obs.controller is not None
        assert obs.events is not None  # cancelled runs carry a log


class TestChromeTrace:
    def test_event_stream_export(self):
        stream = EventStream()
        obs = ObsCollector(events=stream)
        with obs.span("mine", polarity=False):
            obs.progress("mine", advance=0, expect=1)
            obs.heartbeat("mine.shard", worker=1, t=0.01)
            stream.emit(
                "worker_span", "mine.shard", worker=1,
                t=0.02, t0=0.01, t1=0.02, root=3,
            )
            obs.progress("mine")
        payload = to_chrome_trace(obs=obs, name="unit")
        events = payload["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases.count("B") == 1 and phases.count("E") == 1
        assert phases.count("C") == 2  # two progress points
        (shard,) = [e for e in events if e["ph"] == "X"]
        assert shard["tid"] == 1
        assert shard["dur"] == pytest.approx(0.01 * 1e6)
        names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert names == {"main", "worker-1"}
        process = [e for e in events if e["name"] == "process_name"]
        assert process[0]["args"]["name"] == "unit"

    def test_span_tree_fallback_without_stream(self):
        obs = ObsCollector()
        with obs.span("outer"):
            with obs.span("inner", kind="demo"):
                pass
        payload = to_chrome_trace(obs=obs)
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {s["name"] for s in slices} == {"outer", "inner"}
        assert all(s["tid"] == 0 for s in slices)
        inner = next(s for s in slices if s["name"] == "inner")
        assert inner["args"] == {"kind": "demo"}

    def test_write_round_trips_through_json(self, tmp_path):
        obs = ObsCollector()
        with obs.span("root"):
            pass
        path = tmp_path / "trace.json"
        payload = write_chrome_trace(path, obs=obs)
        assert json.loads(path.read_text()) == payload
        assert payload["displayTimeUnit"] == "ms"

    def test_exports_run_log_records_directly(self, tmp_path):
        path = TestJsonlRunLog().write_log(tmp_path)
        payload = to_chrome_trace(events=read_run_log(path)[1:])
        assert any(e["ph"] == "B" for e in payload["traceEvents"])

    def test_empty_stream_exports_metadata_only(self):
        payload = to_chrome_trace(events=EventStream(), name="empty")
        events = payload["traceEvents"]
        # Process + main-thread metadata, but no slices or counters.
        assert [e["ph"] for e in events] == ["M", "M"]
        assert events[0]["args"] == {"name": "empty"}
        assert events[1]["args"] == {"name": "main"}
        assert payload["displayTimeUnit"] == "ms"

    def test_cancelled_terminal_event_becomes_instant(self):
        stream = EventStream()
        controller = RunController(deadline_s=1e-9)
        obs = ObsCollector(events=stream)
        obs.controller = controller
        while not controller.expired():
            pass
        with pytest.raises(RunCancelled):
            with obs.span("mine"):
                controller.check("mine", stream=stream)
        payload = to_chrome_trace(obs=obs)
        phases = [e["ph"] for e in payload["traceEvents"]]
        # The cancellation instant lands inside the mine span (the
        # span still closes as the with-block unwinds).
        assert phases.index("B") < phases.index("i") < phases.index("E")
        (instant,) = [
            e for e in payload["traceEvents"] if e["ph"] == "i"
        ]
        assert instant["name"] == "mine"
        assert instant["args"]["reason"] == "deadline"
        assert instant["s"] == "t"

    def test_dropped_events_export_the_retained_window(self):
        stream = EventStream(max_events=4)
        for i in range(10):
            stream.emit("heartbeat", f"hb{i}")
        assert stream.dropped == 6
        payload = to_chrome_trace(events=stream)
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        # Only the retained (most recent) window is exported; the trace
        # stays loadable even though early events were evicted.
        assert [e["name"] for e in instants] == ["hb6", "hb7", "hb8", "hb9"]


class TestMiningParity:
    """The tentpole determinism contracts at the mining layer."""

    def counts_for(self, universe, backend, n_jobs=1):
        obs = ObsCollector(events=EventStream())
        mined = mine(universe, 0.05, backend, n_jobs=n_jobs, obs=obs)
        return mined, event_counts(obs.events)

    def test_progress_totals_agree_across_backends(self, universe):
        finals = {}
        announced = {}
        for backend in BACKENDS + RETIRED_BACKENDS:
            obs = ObsCollector(events=EventStream())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                mine(universe, 0.05, backend, obs=obs)
            finals[backend] = event_counts(obs.events)["progress:mine"]
            totals = [
                e.attrs.get("total") for e in obs.events
                if e.kind == "progress" and e.name == "mine"
            ]
            announced[backend] = totals[-1]
        assert len(set(finals.values())) == 1, finals
        # Every backend finishes exactly the total it announced.
        for backend in BACKENDS + RETIRED_BACKENDS:
            assert finals[backend] == announced[backend]

    def test_event_counts_identical_across_n_jobs(self, universe):
        mined_serial, counts_serial = self.counts_for(universe, "bitset", 1)
        mined_par, counts_par = self.counts_for(universe, "bitset", 4)
        assert mined_signature(mined_par) == mined_signature(mined_serial)
        assert counts_par == counts_serial

    def test_parallel_run_streams_heartbeats_and_worker_spans(self, universe):
        obs = ObsCollector(events=EventStream())
        mine(universe, 0.05, "bitset", n_jobs=4, obs=obs)
        heartbeats = [
            e for e in obs.events
            if e.kind == "heartbeat" and e.name == "mine.shard"
        ]
        envs = [
            e for e in obs.events
            if e.kind == "heartbeat" and e.name == "worker.env"
        ]
        shards = [e for e in obs.events if e.kind == "worker_span"]
        assert heartbeats and shards
        assert len(heartbeats) == len(shards)
        workers = {e.worker for e in shards}
        assert workers and workers <= {1, 2, 3, 4}
        # Each participating worker introduces itself exactly once.
        assert sorted(e.worker for e in envs) == sorted(workers)
        for env in envs:
            assert env.attrs["pid"] > 0
            assert env.attrs["python"]
        for shard in shards:
            assert shard.attrs["t1"] >= shard.attrs["t0"]
        # Per-worker tracks survive into the Chrome trace.
        payload = to_chrome_trace(obs=obs)
        slice_tids = {
            e["tid"] for e in payload["traceEvents"]
            if e["ph"] == "X" and e["tid"] > 0
        }
        assert slice_tids == workers

    def test_events_off_results_bit_identical(self, universe):
        mined_off = mine(universe, 0.05)
        mined_on = mine(
            universe, 0.05, obs=ObsCollector(events=EventStream()),
        )
        assert mined_signature(mined_on) == mined_signature(mined_off)


class TestExplorerDeadline:
    def test_config_validates_deadline(self):
        with pytest.raises(ValueError):
            ExploreConfig(deadline_s=0.0)
        with pytest.raises(ValueError):
            ExploreConfig(deadline_s=-5)

    def test_deadline_excluded_from_serialization(self):
        config = ExploreConfig(min_support=0.1, deadline_s=30.0)
        assert "deadline_s" not in config.to_dict()
        assert config.fingerprint() == ExploreConfig(
            min_support=0.1
        ).fingerprint()

    def test_deadline_upgrades_null_obs(self):
        config = ExploreConfig(deadline_s=30.0)
        assert config.obs.enabled  # NULL_OBS would drop the checkpoints

    def test_tiny_deadline_cancels_with_partial_log(self, pocket_data):
        table, errors = pocket_data
        config = ExploreConfig(min_support=0.05, deadline_s=1e-6)
        with pytest.raises(RunCancelled) as exc_info:
            HDivExplorer(config).explore(table, errors)
        exc = exc_info.value
        assert exc.reason == "deadline"
        assert exc.where  # a named checkpoint, not mid-shard
        assert exc.events[-1].kind == "cancelled"

    def test_completed_run_matches_undeadlined(self, pocket_data):
        table, errors = pocket_data
        plain = HDivExplorer(
            ExploreConfig(min_support=0.1, tree_support=0.1)
        ).explore(table, errors)
        budgeted = HDivExplorer(
            ExploreConfig(min_support=0.1, tree_support=0.1, deadline_s=600.0)
        ).explore(table, errors)
        assert result_signature(budgeted) == result_signature(plain)

    def test_explorer_event_counts_n_jobs_parity(self, pocket_data):
        table, errors = pocket_data

        def run(n_jobs):
            obs = ObsCollector(events=EventStream())
            config = ExploreConfig(
                min_support=0.1, tree_support=0.1,
                n_jobs=n_jobs, obs=obs,
            )
            result = HDivExplorer(config).explore(table, errors)
            return result_signature(result), event_counts(obs.events)

        sig1, counts1 = run(1)
        sig4, counts4 = run(4)
        assert sig4 == sig1
        assert counts4 == counts1
        assert counts1["progress:discretize"] == 2  # x and y; cat is categorical
        assert counts1["progress:mine"] > 0
