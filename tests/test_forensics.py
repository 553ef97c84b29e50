"""Tests for the forensics tools (``repro.obs.diff``/``doctor``).

Covers profile loading from both artifact kinds, the noise-aware
status thresholds, the acceptance contract — a diff of two bundles with an
injected slowdown attributes the regression to that phase in both text
and JSON — and the doctor's health-check registry, each built-in check
on synthetic unhealthy bundles, and both CLIs' exit codes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import ExploreConfig
from repro.core.hexplorer import HDivExplorer
from repro.obs import (
    BUNDLE_SCHEMA,
    EventStream,
    JsonlRunLog,
    ObsCollector,
    RunBundle,
)
from repro.obs.bundle import Bundle
from repro.obs.diff import (
    DIFF_SCHEMA,
    RunProfile,
    _status,
    diff_payload,
    load_profile,
    main as diff_main,
    render_diff_text,
)
from repro.obs.doctor import (
    DOCTOR_SCHEMA,
    DoctorPolicy,
    Finding,
    diagnose,
    doctor_payload,
    health_check,
    main as doctor_main,
    registered_checks,
    render_doctor_text,
)


def make_bundle(pocket_data, directory, slow_mine=None):
    """Capture an explorer run bundle, optionally recording a synthetic
    trailing ``mine`` span of ``slow_mine`` seconds in its run log."""
    table, errors = pocket_data
    obs = ObsCollector(events=EventStream())
    config = ExploreConfig(min_support=0.1, tree_support=0.1, obs=obs)
    with RunBundle(
        directory, name="fig2", config=config.to_dict(), obs=obs,
        dataset=table,
    ):
        HDivExplorer(config).explore(table, errors)
        if slow_mine is not None:
            obs.events.emit("span_open", "mine")
            obs.events.emit("span_close", "mine", seconds=slow_mine)
    return directory


def profile(**kw):
    base = dict(
        label="p", source="test", phases={}, counters={}, mem_peaks={},
    )
    base.update(kw)
    return RunProfile(**base)


class TestStatusPolicy:
    THRESHOLDS = (0.5, 0.05)  # diff_payload's defaults: rel, abs seconds

    def test_needs_both_thresholds(self):
        # Big relative but tiny absolute: noise, not a regression.
        assert _status(0.001, 0.01, *self.THRESHOLDS) == "ok"
        # Big absolute but small relative: within tolerance.
        assert _status(10.0, 10.2, *self.THRESHOLDS) == "ok"
        # Both: regression.
        assert _status(0.1, 0.5, *self.THRESHOLDS) == "regression"

    def test_improvement_and_add_remove(self):
        assert _status(0.5, 0.1, *self.THRESHOLDS) == "improved"
        assert _status(None, 0.1, *self.THRESHOLDS) == "added"
        assert _status(0.1, None, *self.THRESHOLDS) == "removed"

    def test_defaults_and_threshold_keywords(self):
        a = profile(phases={"mine": 0.1})
        b = profile(phases={"mine": 0.14})  # +40 %, +40 ms
        payload = diff_payload(a, b)
        assert payload["policy"] == {
            "rel_threshold": 0.5, "abs_threshold": 0.05,
        }
        assert payload["summary"]["regressions"] == 0
        strict = diff_payload(a, b, rel_threshold=0.1, abs_threshold=0.01)
        assert strict["summary"]["regressions"] == 1
        with pytest.raises(ValueError, match="non-negative"):
            diff_payload(a, b, rel_threshold=-0.1)


class TestDiffAttribution:
    """The acceptance contract: injected slowdown -> attributed phase."""

    @pytest.fixture
    def bundles(self, pocket_data, tmp_path):
        a = make_bundle(pocket_data, tmp_path / "a")
        b = make_bundle(pocket_data, tmp_path / "b", slow_mine=0.5)
        return a, b

    def test_json_attributes_regression_to_injected_phase(self, bundles):
        a, b = bundles
        payload = diff_payload(load_profile(str(a)), load_profile(str(b)))
        assert payload["schema"] == DIFF_SCHEMA
        assert payload["summary"]["regressions"] >= 1
        regressed = {
            r["path"] for r in payload["phases"]
            if r["status"] == "regression"
        }
        assert "mine" in regressed
        attributed = {e["path"] for e in payload["attribution"]}
        assert "mine" in attributed
        mine = next(e for e in payload["attribution"] if e["path"] == "mine")
        assert mine["delta_seconds"] >= 0.4
        assert mine["suspects"]  # always names at least one suspect

    def test_text_report_names_regression_and_fails(self, bundles):
        a, b = bundles
        payload = diff_payload(load_profile(str(a)), load_profile(str(b)))
        text = render_diff_text(payload)
        assert "mine" in text
        assert "regression" in text
        assert "attribution:" in text
        assert "=> FAIL" in text

    def test_cli_text_and_json_exit_1(self, bundles, capsys):
        a, b = bundles
        assert diff_main([str(a), str(b)]) == 1
        assert "=> FAIL" in capsys.readouterr().out
        assert diff_main([str(a), str(b), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["regressions"] >= 1
        assert any(e["path"] == "mine" for e in payload["attribution"])

    def test_self_diff_passes(self, bundles, capsys):
        a, _ = bundles
        assert diff_main([str(a), str(a)]) == 0
        assert "=> PASS" in capsys.readouterr().out

    def test_cli_load_error_exits_2(self, tmp_path, capsys):
        assert diff_main([str(tmp_path / "no"), str(tmp_path / "pe")]) == 2
        assert "error:" in capsys.readouterr().err


class TestDiffSignals:
    def test_counter_suspects_respect_phase_hints(self):
        a = profile(
            phases={"mine": 0.1},
            counters={"mining.candidates": 100, "discretize.splits": 5},
        )
        b = profile(
            phases={"mine": 0.5},
            counters={"mining.candidates": 500, "discretize.splits": 50},
        )
        (entry,) = diff_payload(a, b)["attribution"]
        joined = " ".join(entry["suspects"])
        assert "mining.candidates" in joined
        # discretize.* is not hinted for a mine regression.
        assert "discretize.splits" not in joined

    def test_fallback_suspect_when_nothing_moved(self):
        a = profile(phases={"mine": 0.1})
        b = profile(phases={"mine": 0.5})
        (entry,) = diff_payload(a, b)["attribution"]
        assert any("no correlated counter shift" in s
                   for s in entry["suspects"])


class TestLoadProfile:
    def test_run_log_source(self, pocket_data, tmp_path):
        make_bundle(pocket_data, tmp_path / "b")
        p = load_profile(str(tmp_path / "b" / "run_log.jsonl"))
        assert p.source == "run-log"
        assert {"discretize", "encode", "mine"} <= set(p.phases)
        assert p.counters  # from the terminal counters snapshot

    def test_bundle_source_uses_trace_phases(self, pocket_data, tmp_path):
        make_bundle(pocket_data, tmp_path / "b")
        p = load_profile(str(tmp_path / "b"))
        assert p.source == "bundle"
        assert p.phases.keys() == load_profile(
            str(tmp_path / "b" / "run_log.jsonl")
        ).phases.keys()

    def test_run_logs_of_memory_profiled_runs_diff_mem_peaks(
        self, pocket_data, tmp_path
    ):
        table, errors = pocket_data
        logs = []
        for name in ("a", "b"):
            logs.append(tmp_path / f"{name}.jsonl")
            obs = ObsCollector(
                profile_memory=True,
                events=EventStream(sinks=[JsonlRunLog(logs[-1])]),
            )
            config = ExploreConfig(min_support=0.1, obs=obs)
            try:
                HDivExplorer(config).explore(table, errors)
            finally:
                obs.stop_memory_profiling()
                obs.events.close()
        payload = diff_payload(
            load_profile(str(logs[0])), load_profile(str(logs[1]))
        )
        paths = {row["path"] for row in payload["mem_peaks"]}
        assert "mine" in paths
        assert all(row["a_bytes"] > 0 for row in payload["mem_peaks"]
                   if row["path"] == "mine")

    def test_missing_spec_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no such bundle"):
            load_profile(str(tmp_path / "nope"))
        with pytest.raises(ValueError, match="no manifest"):
            load_profile(str(tmp_path))

    def test_file_that_is_not_a_run_log_raises(self, tmp_path):
        other = tmp_path / "history.jsonl"
        other.write_text(json.dumps({"schema": "repro.obs/bench@2"}) + "\n")
        with pytest.raises(ValueError, match="not a repro.obs/events@2 run log"):
            load_profile(str(other))


def synthetic_bundle(manifest=None, records=None, crash=None):
    base_manifest = {
        "schema": BUNDLE_SCHEMA, "name": "synth", "status": "ok",
        "events": {"emitted": 0, "retained": 0, "dropped": 0},
    }
    base_manifest.update(manifest or {})
    return Bundle(
        directory=Path("synth"),
        manifest=base_manifest,
        records=[{"kind": "header"}] + list(records or []),
        crash=crash,
    )


def recorded_span(name, seconds, gauges=None, **attrs):
    """Run-log records of one root span and its closing snapshot."""
    return [
        {"kind": "span_open", "name": name},
        {"kind": "span_close", "name": name,
         "attrs": {"seconds": seconds, **attrs}},
        {"kind": "counters", "name": name,
         "attrs": {"counters": {}, "gauges": gauges or {}}},
    ]


class TestDoctorChecks:
    def test_healthy_explorer_bundle_has_zero_findings(
        self, pocket_data, tmp_path
    ):
        from repro.obs import load_bundle

        make_bundle(pocket_data, tmp_path / "b")
        assert diagnose(load_bundle(tmp_path / "b")) == []

    def test_registry_lists_builtin_checks(self):
        checks = registered_checks()
        assert {"run-status", "dropped-events", "seq-gaps",
                "mem-divergence", "deadline"} <= set(checks)
        assert list(checks) == sorted(checks)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            diagnose(synthetic_bundle(), checks=["no-such-check"])

    def test_crashed_run_is_error_cancelled_is_warning(self):
        crashed = synthetic_bundle(
            manifest={"status": "crashed"},
            crash={"kind": "exception", "type": "ValueError",
                   "message": "x", "last_events": []},
        )
        (finding,) = diagnose(crashed, checks=["run-status"])
        assert finding.severity == "error"
        assert "ValueError" in finding.message
        cancelled = synthetic_bundle(
            manifest={"status": "cancelled"},
            crash={"kind": "cancelled", "reason": "deadline",
                   "where": "mine", "elapsed_seconds": 1.0,
                   "last_events": []},
        )
        (finding,) = diagnose(cancelled, checks=["run-status"])
        assert finding.severity == "warning"
        assert "deadline" in finding.message

    def test_dropped_events_warning(self):
        bundle = synthetic_bundle(
            manifest={"events": {"emitted": 100, "retained": 40,
                                 "dropped": 60}},
        )
        (finding,) = diagnose(bundle, checks=["dropped-events"])
        assert finding.severity == "warning"
        assert "60" in finding.message

    def test_seq_gap_and_lost_head_are_errors(self):
        torn = synthetic_bundle(
            records=[{"kind": "progress", "seq": s} for s in (0, 1, 3, 4)],
        )
        (finding,) = diagnose(torn, checks=["seq-gaps"])
        assert finding.severity == "error"
        assert "missing" in finding.message
        headless = synthetic_bundle(
            records=[{"kind": "progress", "seq": s} for s in (5, 6, 7)],
        )
        (finding,) = diagnose(headless, checks=["seq-gaps"])
        assert "not 0" in finding.message

    def test_mem_divergence_warning(self):
        diverged = synthetic_bundle(records=recorded_span(
            "mine", 0.1, gauges={"mem.rss_max_kb": 1_000_000},
            mem_peak_bytes=10_000_000,
        ))
        (finding,) = diagnose(diverged, checks=["mem-divergence"])
        assert "RSS" in finding.message
        close = synthetic_bundle(records=recorded_span(
            "mine", 0.1, gauges={"mem.rss_max_kb": 10_000},
            mem_peak_bytes=10_000_000,
        ))
        assert diagnose(close, checks=["mem-divergence"]) == []

    def test_mem_divergence_fires_on_a_profiled_bundle(
        self, pocket_data, tmp_path
    ):
        """End to end: the peaks come from a real bundle's run log."""
        from repro.obs import load_bundle

        table, errors = pocket_data
        obs = ObsCollector(profile_memory=True)
        config = ExploreConfig(min_support=0.1, tree_support=0.1, obs=obs)
        try:
            with RunBundle(tmp_path / "b", config=config.to_dict(), obs=obs):
                HDivExplorer(config).explore(table, errors)
        finally:
            obs.stop_memory_profiling()
        bundle = load_bundle(tmp_path / "b")
        traced = max(bundle.mem_peaks.values())
        assert traced > 0
        rss_kb = bundle.gauges["mem.rss_max_kb"]
        strict = DoctorPolicy(rss_divergence_ratio=rss_kb * 1024.0 / traced / 2)
        (finding,) = diagnose(bundle, strict, checks=["mem-divergence"])
        assert finding.details["traced_peak_bytes"] == traced
        lenient = DoctorPolicy(rss_divergence_ratio=rss_kb * 1024.0 / traced * 2)
        assert diagnose(bundle, lenient, checks=["mem-divergence"]) == []

    def test_deadline_expiry_error_and_near_miss_warning(self):
        expired = synthetic_bundle(
            manifest={"status": "cancelled", "deadline_s": 5.0},
            crash={"kind": "cancelled", "reason": "deadline",
                   "where": "mine", "last_events": []},
        )
        (finding,) = diagnose(expired, checks=["deadline"])
        assert finding.severity == "error"
        near = synthetic_bundle(
            manifest={"deadline_s": 10.0, "elapsed_seconds": 9.5},
        )
        (finding,) = diagnose(near, checks=["deadline"])
        assert finding.severity == "warning"
        comfortable = synthetic_bundle(
            manifest={"deadline_s": 10.0, "elapsed_seconds": 2.0},
        )
        assert diagnose(comfortable, checks=["deadline"]) == []

    def test_custom_check_registers_and_runs(self):
        @health_check("always-sad")
        def _always_sad(bundle, policy):
            yield Finding("always-sad", "info", "synthetic finding")

        try:
            assert "always-sad" in registered_checks()
            findings = diagnose(synthetic_bundle(), checks=["always-sad"])
            assert [f.check for f in findings] == ["always-sad"]
        finally:
            from repro.obs import doctor

            del doctor._REGISTRY["always-sad"]

    def test_finding_validates_severity(self):
        with pytest.raises(ValueError):
            Finding("x", "catastrophic", "nope")


class TestDoctorReport:
    def test_payload_summary_worst_severity(self):
        findings = [
            Finding("a", "info", "i"), Finding("b", "warning", "w"),
        ]
        payload = doctor_payload("unit", findings)
        assert payload["schema"] == DOCTOR_SCHEMA
        assert payload["summary"] == {"findings": 2, "worst": "warning"}

    def test_text_healthy_and_unhealthy(self):
        healthy = render_doctor_text(doctor_payload("unit", []))
        assert "=> healthy" in healthy
        sick = render_doctor_text(
            doctor_payload("unit", [Finding("a", "error", "broken")])
        )
        assert "[error  ] a: broken" in sick
        assert "=> 1 finding (worst: error)" in sick


class TestDoctorCli:
    def test_healthy_bundle_exits_0(self, pocket_data, tmp_path, capsys):
        make_bundle(pocket_data, tmp_path / "b")
        assert doctor_main([str(tmp_path / "b")]) == 0
        assert "=> healthy" in capsys.readouterr().out

    def test_cancelled_bundle_exits_1_with_findings(
        self, pocket_data, tmp_path, capsys
    ):
        table, errors = pocket_data
        obs = ObsCollector()
        obs.arm_deadline(1e-6)
        config = ExploreConfig(min_support=0.1, tree_support=0.1, obs=obs)
        from repro.obs import RunCancelled

        with pytest.raises(RunCancelled):
            with RunBundle(
                tmp_path / "b", config=config.to_dict(), obs=obs,
                dataset=table,
            ):
                HDivExplorer(config).explore(table, errors)
        assert doctor_main([str(tmp_path / "b"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        checks = {f["check"] for f in payload["findings"]}
        assert "run-status" in checks and "deadline" in checks

    def test_tampered_bundle_reports_integrity_findings(
        self, pocket_data, tmp_path, capsys
    ):
        make_bundle(pocket_data, tmp_path / "b")
        run_log = tmp_path / "b" / "run_log.jsonl"
        run_log.write_text(run_log.read_text() + " ")
        assert doctor_main([str(tmp_path / "b")]) == 1
        assert "bundle-integrity" in capsys.readouterr().out

    def test_missing_bundle_exits_2(self, tmp_path, capsys):
        assert doctor_main([str(tmp_path / "gone")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_check_selection(self, pocket_data, tmp_path, capsys):
        make_bundle(pocket_data, tmp_path / "b")
        code = doctor_main([str(tmp_path / "b"), "--check", "run-status"])
        assert code == 0
