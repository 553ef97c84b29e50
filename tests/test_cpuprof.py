"""Tests for the span-correlated sampling CPU profiler.

Covers the sampler mechanics (lifecycle, exception-safe join, stack
table rows), the artifact (payload validation, byte-stable
``.folded``/speedscope exports), the wiring (profiling collectors,
bundle capture, CLI flags), and the consumers (diff function
attribution, doctor cpu-divergence check).
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import ExploreConfig
from repro.core.hexplorer import HDivExplorer
from repro.obs import BUNDLE_SCHEMA, NULL_OBS, ObsCollector, RunBundle
from repro.obs.bundle import Bundle, load_bundle
from repro.obs.cpuprof import (
    CPUPROF_SCHEMA,
    CpuProfiler,
    cpuprof_payload,
    function_seconds,
    load_cpuprof,
    main as cpuprof_main,
    shorten_path,
    to_folded,
    to_speedscope,
    validate_cpuprof_payload,
)


def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(i * i for i in range(50))


def seed_table(prof: CpuProfiler, rows) -> None:
    """Add hand-built ``(span, frames, count)`` rows to a stack table."""
    for span, frames, count in rows:
        key = (span, tuple(frames))
        prof.table[key] = prof.table.get(key, 0) + count
        prof.samples_total += count


def fixed_profiler() -> CpuProfiler:
    """A profiler with a hand-built, deterministic stack table."""
    prof = CpuProfiler(sample_hz=100.0)
    seed_table(prof, [
        ("explore.mine", ("repro/a.py:run", "repro/b.py:hot"), 30),
        ("explore.mine", ("repro/a.py:run", "repro/b.py:warm"), 10),
        ("explore", ("repro/a.py:run",), 5),
        ("", ("site/idle.py:wait",), 2),
    ])
    return prof


class TestShortenPath:
    def test_repro_paths_collapse_to_last_repro_component(self):
        assert (
            shorten_path("/home/x/repo/src/repro/core/mining/bitset.py")
            == "repro/core/mining/bitset.py"
        )

    def test_foreign_paths_keep_two_components(self):
        assert shorten_path("/usr/lib/python3.11/threading.py") == (
            "python3.11/threading.py"
        )
        assert shorten_path("single.py") == "single.py"


class TestCpuProfilerLifecycle:
    def test_rejects_nonpositive_sample_hz(self):
        with pytest.raises(ValueError):
            CpuProfiler(sample_hz=0.0)
        with pytest.raises(ValueError):
            CpuProfiler(sample_hz=-5.0)

    def test_start_and_stop_are_idempotent_and_joined(self):
        prof = CpuProfiler(sample_hz=500.0)
        assert not prof.running
        prof.start({})
        first = prof._thread
        prof.start({})  # second start is a no-op
        assert prof._thread is first
        prof.stop()
        assert not prof.running
        prof.stop()  # idempotent
        assert not prof.running

    def test_samples_attribute_to_registered_span_path(self):
        prof = CpuProfiler(sample_hz=500.0)
        paths: dict[int, str] = {}
        stop = threading.Event()

        def work():
            paths[threading.get_ident()] = "explore.mine"
            while not stop.is_set():
                busy_wait(0.01)

        worker = threading.Thread(target=work)
        worker.start()
        try:
            prof.start(paths)
            time.sleep(0.15)
            prof.stop()
        finally:
            stop.set()
            worker.join()
        assert prof.samples_total > 0
        spans = cpuprof_payload(prof)["spans"]
        assert spans["explore.mine"]["cpu_samples"] > 0
        assert prof.duration_seconds > 0.0

    def test_table_accumulates_across_start_stop_cycles(self):
        prof = CpuProfiler(sample_hz=100.0)
        seed_table(prof, [("a", ("f",), 1)])
        prof.start({})
        prof.stop()
        seed_table(prof, [("a", ("f",), 2)])
        assert prof.table[("a", ("f",))] == 3
        assert prof.samples_total == 3


class TestMergeAndRows:
    def test_rows_are_sorted_and_picklable(self):
        prof = fixed_profiler()
        rows = prof.rows()
        assert rows == sorted(rows)
        assert pickle.loads(pickle.dumps(rows)) == rows

    def test_top_functions_rank_by_leaf_self_time_then_name(self):
        prof = CpuProfiler(sample_hz=100.0)
        seed_table(prof, [
            ("s", ("a.py:outer", "a.py:hot"), 10),
            ("s", ("a.py:hot",), 10),          # same leaf, other stack
            ("t", ("a.py:tied_a",), 5),
            ("t", ("a.py:tied_b",), 5),
        ])
        top = prof.top_functions(3)
        assert top[0] == ("a.py:hot", 0.2)
        assert [name for name, _ in top[1:]] == ["a.py:tied_a", "a.py:tied_b"]


class TestCollectorIntegration:
    def test_sampler_runs_only_while_a_root_span_is_open(self):
        obs = ObsCollector(profile_cpu=True, sample_hz=500.0)
        assert not obs.cpu.running
        with obs.span("explore"):
            assert obs.cpu.running
            with obs.span("mine"):
                assert obs.cpu.running
        assert not obs.cpu.running
        assert obs._span_paths == {}

    def test_sampler_joined_when_the_run_raises(self):
        obs = ObsCollector(profile_cpu=True, sample_hz=500.0)
        with pytest.raises(RuntimeError):
            with obs.span("explore"):
                assert obs.cpu.running
                raise RuntimeError("boom")
        assert not obs.cpu.running
        assert obs._span_paths == {}

    def test_null_obs_stays_inert(self):
        assert NULL_OBS.profile_cpu is False
        assert NULL_OBS.cpu is None
        NULL_OBS.enable_cpu_profiling(50.0)
        NULL_OBS.stop_cpu_profiling()
        assert NULL_OBS.profile_cpu is False
        assert NULL_OBS.cpu is None

    def test_stop_cpu_profiling_detaches(self):
        obs = ObsCollector(profile_cpu=True)
        obs.stop_cpu_profiling()
        assert obs.cpu is None and not obs.profile_cpu


class TestPayloadAndExports:
    def test_payload_is_schema_valid_and_consistent(self):
        payload = cpuprof_payload(fixed_profiler())
        assert payload["schema"] == CPUPROF_SCHEMA
        assert validate_cpuprof_payload(payload) == []
        assert payload["samples_total"] == 47
        assert payload["spans"]["explore.mine"] == {
            "cpu_samples": 40, "self_seconds": 0.4,
        }
        assert payload["spans"]["(no span)"]["cpu_samples"] == 2
        assert payload["functions"]["repro/b.py:hot"] == {
            "self_samples": 30, "self_seconds": 0.3,
        }

    def test_validate_flags_broken_payloads(self):
        payload = cpuprof_payload(fixed_profiler())
        assert validate_cpuprof_payload({"schema": "nope"})
        bad_total = dict(payload, samples_total=999)
        assert any(
            "samples_total" in p for p in validate_cpuprof_payload(bad_total)
        )
        bad_hz = dict(payload, sample_hz=0)
        assert any(
            "sample_hz" in p for p in validate_cpuprof_payload(bad_hz)
        )

    def test_folded_export_is_byte_stable_and_sorted(self):
        payload = cpuprof_payload(fixed_profiler())
        folded = to_folded(payload)
        assert folded == to_folded(cpuprof_payload(fixed_profiler()))
        lines = folded.strip().splitlines()
        assert lines == sorted(lines)
        assert "explore.mine;repro/a.py:run;repro/b.py:hot 30" in lines
        assert "(no span);site/idle.py:wait 2" in lines

    def test_speedscope_export_is_byte_stable_and_well_formed(self):
        payload = cpuprof_payload(fixed_profiler())
        doc = to_speedscope(payload)
        again = to_speedscope(cpuprof_payload(fixed_profiler()))
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        n_frames = len(doc["shared"]["frames"])
        assert all(
            0 <= i < n_frames for s in profile["samples"] for i in s
        )
        assert profile["endValue"] == pytest.approx(47 / 100.0)

    def test_function_seconds_scopes_to_span_prefix(self):
        payload = cpuprof_payload(fixed_profiler())
        run_wide = function_seconds(payload)
        assert run_wide["repro/b.py:hot"] == pytest.approx(0.3)
        scoped = function_seconds(payload, span_prefix="explore")
        assert "site/idle.py:wait" not in scoped
        mine_only = function_seconds(payload, span_prefix="explore.mine")
        assert set(mine_only) == {"repro/b.py:hot", "repro/b.py:warm"}


def signature(result):
    return sorted(
        (tuple(sorted(str(i) for i in r.itemset)), r.count,
         round(r.divergence, 9))
        for r in result
    )


class TestEndToEnd:
    def explore(self, pocket_data, obs=None, bundle_dir=None):
        """One explorer run on ``obs``, bundled into ``bundle_dir``
        when it is given."""
        table, errors = pocket_data
        config = ExploreConfig(min_support=0.05, obs=obs)
        if bundle_dir is None:
            return HDivExplorer(config).explore(table, errors)
        with RunBundle(
            bundle_dir, config=config.to_dict(), obs=obs, dataset=table
        ):
            return HDivExplorer(config).explore(table, errors)

    def test_results_bit_identical_with_profiler_serial(self, pocket_data):
        plain = self.explore(pocket_data)
        profiled = self.explore(
            pocket_data, obs=ObsCollector(profile_cpu=True)
        )
        assert signature(plain) == signature(profiled)

    def test_bundle_captures_valid_cpuprof(self, pocket_data, tmp_path):
        bundle_dir = tmp_path / "bundle"
        self.explore(
            pocket_data, obs=ObsCollector(profile_cpu=True, sample_hz=300.0),
            bundle_dir=bundle_dir,
        )
        assert (bundle_dir / "cpuprof.json").is_file()
        payload = load_cpuprof(bundle_dir)
        assert validate_cpuprof_payload(payload) == []
        assert payload["sample_hz"] == 300.0
        bundle = load_bundle(bundle_dir)
        assert bundle.cpuprof == payload

    def test_bundle_without_profiling_has_no_cpuprof(
        self, pocket_data, tmp_path
    ):
        bundle_dir = tmp_path / "plain"
        self.explore(pocket_data, obs=ObsCollector(), bundle_dir=bundle_dir)
        assert not (bundle_dir / "cpuprof.json").exists()
        assert load_bundle(bundle_dir).cpuprof is None


class TestCpuprofCli:
    def write_payload(self, tmp_path) -> Path:
        path = tmp_path / "cpuprof.json"
        path.write_text(
            json.dumps(cpuprof_payload(fixed_profiler())), encoding="utf-8"
        )
        return path

    def test_export_writes_folded_and_speedscope(self, tmp_path, capsys):
        src = self.write_payload(tmp_path)
        folded = tmp_path / "out.folded"
        scope = tmp_path / "out.speedscope.json"
        assert cpuprof_main([
            "export", str(src),
            "--folded", str(folded), "--speedscope", str(scope),
        ]) == 0
        assert folded.read_text().splitlines() == sorted(
            folded.read_text().splitlines()
        )
        doc = json.loads(scope.read_text())
        assert doc["profiles"][0]["type"] == "sampled"

    def test_export_default_prints_folded_to_stdout(self, tmp_path, capsys):
        src = self.write_payload(tmp_path)
        assert cpuprof_main(["export", str(src)]) == 0
        assert "repro/b.py:hot 30" in capsys.readouterr().out

    def test_report_lists_hottest_functions(self, tmp_path, capsys):
        src = self.write_payload(tmp_path)
        assert cpuprof_main(["report", str(src), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "47 samples at 100 Hz" in out
        assert "repro/b.py:hot" in out

    def test_invalid_source_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "cpuprof.json"
        bad.write_text('{"schema": "wrong"}')
        assert cpuprof_main(["report", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliFlags:
    def parse(self, argv):
        from repro.cli import build_parser

        return build_parser().parse_args(argv)

    def test_profile_cpu_flags_parse_on_all_exploring_commands(self):
        for argv in (
            ["explore", "d.csv", "--profile-cpu", "--sample-hz", "50"],
            ["hexplore", "d.csv", "--profile-cpu", "--sample-hz", "50"],
            ["sweep", "d.csv", "--param", "min_support", "--values",
             "0.1", "--profile-cpu", "--sample-hz", "50"],
        ):
            args = self.parse(argv)
            assert args.profile_cpu is True
            assert args.sample_hz == 50.0

    def test_observability_group_is_shared_and_defaulted(self):
        args = self.parse(["explore", "d.csv"])
        assert args.profile_cpu is False
        assert args.sample_hz == 97.0
        for flag in ("run_log", "bundle", "deadline"):
            assert getattr(args, flag) is None
        assert not hasattr(args, "trace") and not hasattr(args, "metrics_out")
        assert args.progress is False and args.profile_memory is False


def span_records(spans):
    """Run-log open/close records of a nested ``(name, seconds,
    children)`` span forest, closes carrying ``seconds``."""
    records = []
    for name, seconds, children in spans:
        records.append({"kind": "span_open", "name": name})
        records.extend(span_records(children))
        records.append({
            "kind": "span_close", "name": name,
            "attrs": {"seconds": seconds},
        })
    return records


def cpu_bundle(spans, cpuprof=None):
    """A synthetic in-memory bundle for the doctor check."""
    manifest = {
        "schema": BUNDLE_SCHEMA, "name": "synth", "status": "ok",
        "events": {"emitted": 0, "retained": 0, "dropped": 0},
    }
    return Bundle(
        directory=Path("synth"),
        manifest=manifest,
        records=[{"kind": "header"}, *span_records(spans)],
        crash=None,
        cpuprof=cpuprof,
    )


def cpu_payload(span_seconds: dict[str, float], hz: float = 100.0):
    stacks = [
        {"span": span, "frames": ["a.py:f"], "count": int(seconds * hz)}
        for span, seconds in sorted(span_seconds.items())
    ]
    return {
        "schema": CPUPROF_SCHEMA,
        "sample_hz": hz,
        "samples_total": sum(r["count"] for r in stacks),
        "duration_seconds": sum(span_seconds.values()),
        "spans": {
            r["span"]: {
                "cpu_samples": r["count"],
                "self_seconds": r["count"] / hz,
            }
            for r in stacks
        },
        "functions": {},
        "stacks": stacks,
    }


class TestDoctorCpuDivergence:
    def diagnose(self, bundle):
        from repro.obs.doctor import diagnose

        return diagnose(bundle, checks=["cpu-divergence"])

    def test_flags_span_with_divergent_sampled_time(self):
        bundle = cpu_bundle(
            [("mine", 1.0, [])], cpuprof=cpu_payload({"mine": 0.5}),
        )
        findings = self.diagnose(bundle)
        assert len(findings) == 1
        assert findings[0].check == "cpu-divergence"
        assert "mine" in findings[0].message

    def test_agreement_and_nested_spans_stay_healthy(self):
        bundle = cpu_bundle(
            [("explore", 1.0, [("mine", 0.9, [])])],
            cpuprof=cpu_payload({"explore.mine": 0.95}),
        )
        assert self.diagnose(bundle) == []

    def test_skips_short_spans_and_unprofiled_bundles(self):
        divergent = cpu_payload({"mine": 0.01})
        short = cpu_bundle([("mine", 0.1, [])], cpuprof=divergent)
        assert self.diagnose(short) == []
        unprofiled = cpu_bundle([("mine", 9.0, [])])
        assert self.diagnose(unprofiled) == []


class TestDiffFunctionAttribution:
    def profile(self, cpu, phases=None):
        from repro.obs.diff import RunProfile

        return RunProfile(
            label="x", source="bundle",
            phases=phases or {}, counters={}, mem_peaks={},
            cpu=cpu,
        )

    def test_attribution_names_the_regressed_function(self):
        from repro.obs.diff import diff_payload

        a = self.profile(
            cpu_payload({"mine": 0.2}), phases={"mine": 0.2}
        )
        slow = cpu_payload({"mine": 0.2})
        slow["stacks"].append(
            {"span": "mine", "frames": ["slow.py:spin"], "count": 80}
        )
        slow["samples_total"] += 80
        slow["spans"]["mine"]["cpu_samples"] += 80
        slow["spans"]["mine"]["self_seconds"] += 0.8
        b = self.profile(slow, phases={"mine": 1.0})
        payload = diff_payload(a, b)
        suspects = [
            s for entry in payload["attribution"] for s in entry["suspects"]
        ]
        assert any(
            "function slow.py:spin" in s and "+0.800s" in s
            for s in suspects
        )
        assert any(
            row["function"] == "slow.py:spin"
            for row in payload["cpu_functions"]
        )

    def test_no_cpu_tables_means_no_function_rows(self):
        from repro.obs.diff import diff_payload

        a = self.profile(None, phases={"mine": 0.2})
        b = self.profile(None, phases={"mine": 1.0})
        payload = diff_payload(a, b)
        assert payload["cpu_functions"] == []
        assert all(
            not s.startswith("function ")
            for entry in payload["attribution"] for s in entry["suspects"]
        )
