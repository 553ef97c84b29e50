"""Tests for run bundles (``repro.obs.bundle``).

Covers the RunBundle capture contract (manifest, run log, crash.json),
the load/validate round-trip and tamper detection, the run log as the
one recording (what a bundle folds from it equals the recording
collector), and the acceptance contracts: fixed-seed runs bundle
deterministically whether they succeed or hit a deadline, with the
ResultSet bit-identical bundling on or off, and every exploring CLI
command (``explore --base`` included) writes the bundle ``--bundle``
asks for.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.config import ExploreConfig
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.session import ExploreSession
from repro.obs import (
    BUNDLE_SCHEMA,
    NULL_OBS,
    EventStream,
    ObsCollector,
    RunBundle,
    RunCancelled,
    load_bundle,
    validate_bundle,
)
from repro.obs import bundle as bundle_module
from repro.obs.bundle import (
    CRASH_FILENAME,
    MANIFEST_FILENAME,
    dataset_snapshot,
    env_snapshot,
)
from repro.obs.runlog import fold_events


def result_signature(result):
    return sorted(
        (tuple(sorted(str(i) for i in r.itemset)), r.count,
         round(r.divergence, 12))
        for r in result
    )


class TestSnapshots:
    def test_env_snapshot_fields(self):
        env = env_snapshot()
        assert env["python"] and env["platform"]
        assert env["pid"] > 0

    def test_dataset_snapshot_hashes_shape(self, pocket_data):
        table, _ = pocket_data
        snap = dataset_snapshot(table)
        assert snap["n_rows"] == 3000
        assert snap["columns"] == ["x", "y", "cat"]
        assert len(snap["shape_hash"]) == 16
        # Same shape -> same hash; non-tables -> None.
        assert dataset_snapshot(table)["shape_hash"] == snap["shape_hash"]
        assert dataset_snapshot(object()) is None

    def test_fold_events_accumulates_repeated_paths(self):
        def span(kind, name, **attrs):
            return {"kind": kind, "name": name, "attrs": attrs}

        records = [
            span("span_open", "explore"),
            span("span_open", "mine"),
            span("span_close", "mine", seconds=0.25),
            span("span_open", "mine"),
            span("span_close", "mine", seconds=0.25),
            span("span_close", "explore", seconds=1.0),
        ]
        assert fold_events(records).phases == {
            "explore": 1.0, "explore.mine": 0.5,
        }


class TestRunBundle:
    def run_bundled(self, tmp_path, name="unit"):
        obs = ObsCollector(events=EventStream())
        with RunBundle(
            tmp_path / "b", name=name, config={"support": 0.1}, obs=obs
        ) as bundle:
            with obs.span("explore"):
                with obs.span("mine"):
                    obs.count("mining.candidates", 7)
        return bundle

    def test_ok_run_writes_all_artifacts(self, tmp_path):
        bundle = self.run_bundled(tmp_path)
        manifest = bundle.manifest
        assert manifest["schema"] == BUNDLE_SCHEMA
        assert manifest["status"] == "ok"
        assert manifest["config"] == {"support": 0.1}
        assert manifest["events"]["dropped"] == 0
        assert manifest["events"]["emitted"] == manifest["events"]["retained"]
        assert set(manifest["files"]) == {"run_log"}
        assert validate_bundle(tmp_path / "b") == []
        assert not (tmp_path / "b" / CRASH_FILENAME).exists()

    def test_ok_run_holds_only_manifest_and_run_log(self, tmp_path):
        self.run_bundled(tmp_path)
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            MANIFEST_FILENAME, "run_log.jsonl",
        ]

    def test_exception_writes_crash_json_and_propagates(self, tmp_path):
        obs = ObsCollector(events=EventStream())
        with pytest.raises(RuntimeError, match="boom"):
            with RunBundle(tmp_path / "b", obs=obs):
                with obs.span("mine"):
                    raise RuntimeError("boom")
        assert validate_bundle(tmp_path / "b") == []
        loaded = load_bundle(tmp_path / "b")
        assert loaded.status == "crashed"
        assert loaded.crash["kind"] == "exception"
        assert loaded.crash["type"] == "RuntimeError"
        assert loaded.crash["message"] == "boom"
        assert any("boom" in line for line in loaded.crash["traceback"])
        assert loaded.crash["last_events"]
        assert loaded.crash["last_events"][-1]["kind"] == "counters"

    def test_finalize_is_idempotent(self, tmp_path):
        obs = ObsCollector(events=EventStream())
        bundle = RunBundle(tmp_path / "b", obs=obs)
        with bundle:
            with obs.span("root"):
                pass
        first = bundle.manifest
        assert bundle.finalize() is first

    def test_rerun_overwrites_stale_crash(self, tmp_path):
        obs = ObsCollector(events=EventStream())
        with pytest.raises(RuntimeError):
            with RunBundle(tmp_path / "b", obs=obs):
                raise RuntimeError("first run dies")
        bundle = self.run_bundled(tmp_path)
        assert bundle.manifest["status"] == "ok"
        assert validate_bundle(tmp_path / "b") == []
        assert not (tmp_path / "b" / CRASH_FILENAME).exists()

    def test_creates_stream_for_streamless_collector(self, tmp_path):
        obs = ObsCollector()
        assert obs.events is None
        with RunBundle(tmp_path / "b", obs=obs):
            with obs.span("root"):
                pass
        assert obs.events is not None
        assert validate_bundle(tmp_path / "b") == []

    def test_run_log_sink_detached_after_finalize(self, tmp_path):
        obs = ObsCollector(events=EventStream())
        self_dir = tmp_path / "b"
        with RunBundle(self_dir, obs=obs):
            with obs.span("root"):
                pass
        size = (self_dir / "run_log.jsonl").stat().st_size
        obs.events.emit("progress", "after")  # must not hit the file
        assert (self_dir / "run_log.jsonl").stat().st_size == size

    def test_empty_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunBundle(tmp_path / "b", name="", obs=ObsCollector())

    @pytest.mark.parametrize("obs", [None, NULL_OBS], ids=["missing", "null"])
    def test_refuses_a_run_it_cannot_record(self, tmp_path, obs):
        with pytest.raises(ValueError, match="obs="):
            RunBundle(tmp_path / "b", obs=obs)
        assert not (tmp_path / "b").exists()


class TestGitSha:
    def test_names_the_code_checkout_not_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        package = Path(bundle_module.__file__).resolve().parent
        try:
            proc = subprocess.run(
                ["git", "-C", str(package), "rev-parse", "--short=12",
                 "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
        except OSError:
            pytest.skip("git is not available")
        if proc.returncode != 0 or not proc.stdout.strip():
            pytest.skip("the package is not in a git checkout")
        other = tmp_path / "other"
        other.mkdir()
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
        subprocess.run(git + ["init", "-q"], cwd=other, check=True)
        subprocess.run(
            git + ["commit", "-q", "--allow-empty", "-m", "other"],
            cwd=other, check=True,
        )
        monkeypatch.chdir(other)
        obs = ObsCollector()
        with RunBundle(tmp_path / "b", obs=obs) as bundle:
            with obs.span("root"):
                pass
        assert bundle.manifest["git_sha"] == proc.stdout.strip()


class TestValidateBundle:
    def make(self, tmp_path):
        TestRunBundle().run_bundled(tmp_path)
        return tmp_path / "b"

    def test_missing_manifest(self, tmp_path):
        assert validate_bundle(tmp_path) == [f"missing {MANIFEST_FILENAME}"]

    def test_tampered_file_fails_sha256(self, tmp_path):
        directory = self.make(tmp_path)
        run_log = directory / "run_log.jsonl"
        run_log.write_text(run_log.read_text().replace('": 7', '": 8'))
        problems = validate_bundle(directory)
        assert any("sha256 mismatch" in p for p in problems)

    def test_deleted_artifact_detected(self, tmp_path):
        directory = self.make(tmp_path)
        (directory / "run_log.jsonl").unlink()
        problems = validate_bundle(directory)
        assert any("missing file" in p for p in problems)

    def test_fingerprint_mismatch_detected(self, tmp_path):
        directory = self.make(tmp_path)
        manifest = json.loads((directory / MANIFEST_FILENAME).read_text())
        manifest["config"]["support"] = 0.2
        (directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        problems = validate_bundle(directory)
        assert any("config_fingerprint" in p for p in problems)

    def test_status_crash_consistency(self, tmp_path):
        directory = self.make(tmp_path)
        manifest = json.loads((directory / MANIFEST_FILENAME).read_text())
        manifest["status"] = "cancelled"
        (directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        problems = validate_bundle(directory)
        assert any("no crash.json" in p for p in problems)


class TestExplorerBundles:
    """The acceptance contracts at the explorer layer."""

    def explore(
        self, pocket_data, bundle_dir=None, n_jobs=1, obs=None,
        deadline_s=None,
    ):
        """One explorer run, bundled into ``bundle_dir`` when it is
        given and under a deadline of ``deadline_s`` when that is."""
        table, errors = pocket_data
        if obs is None and (bundle_dir or deadline_s):
            obs = ObsCollector()
        config = ExploreConfig(
            min_support=0.1, tree_support=0.1, n_jobs=n_jobs, obs=obs,
        )
        if deadline_s is not None:
            obs.arm_deadline(deadline_s)
        capture = contextlib.nullcontext() if bundle_dir is None else RunBundle(
            bundle_dir, name="hexplore", config=config.to_dict(), obs=obs,
            dataset=table,
        )
        with capture:
            return HDivExplorer(config).explore(table, errors)

    @pytest.mark.parametrize("n_jobs", [1])
    def test_results_bit_identical_bundling_on_or_off(
        self, pocket_data, tmp_path, n_jobs
    ):
        plain = self.explore(pocket_data, n_jobs=n_jobs)
        bundled = self.explore(
            pocket_data, bundle_dir=tmp_path / "b", n_jobs=n_jobs
        )
        assert result_signature(bundled) == result_signature(plain)
        assert validate_bundle(tmp_path / "b") == []
        bundle = load_bundle(tmp_path / "b")
        assert bundle.status == "ok"
        assert bundle.name == "hexplore"

    def test_fixed_seed_round_trip_is_deterministic(
        self, pocket_data, tmp_path
    ):
        self.explore(pocket_data, bundle_dir=tmp_path / "a")
        self.explore(pocket_data, bundle_dir=tmp_path / "b")
        a = load_bundle(tmp_path / "a")
        b = load_bundle(tmp_path / "b")
        assert a.manifest["config_fingerprint"] == (
            b.manifest["config_fingerprint"]
        )
        assert a.manifest["dataset"] == b.manifest["dataset"]
        assert a.counters == b.counters
        # Same phases (wall times differ, the tree shape does not).
        assert sorted(a.phase_seconds()) == sorted(b.phase_seconds())
        assert [e["kind"] for e in a.events] == [e["kind"] for e in b.events]

    def test_manifest_captures_config_and_dataset(
        self, pocket_data, tmp_path
    ):
        self.explore(pocket_data, bundle_dir=tmp_path / "b")
        manifest = load_bundle(tmp_path / "b").manifest
        assert manifest["config"]["min_support"] == 0.1
        assert "bundle_dir" not in manifest["config"]  # not serialized
        assert manifest["dataset"]["n_rows"] == 3000
        assert manifest["env"]["python"]
        assert manifest["elapsed_seconds"] > 0
        assert manifest["git_sha"] and manifest["recorded_at"]

    def test_mem_peaks_come_from_the_trace(self, pocket_data, tmp_path):
        obs = ObsCollector(profile_memory=True)
        try:
            self.explore(pocket_data, bundle_dir=tmp_path / "b", obs=obs)
        finally:
            obs.stop_memory_profiling()
        bundle = load_bundle(tmp_path / "b")
        assert "mine" in bundle.mem_peaks
        assert bundle.mem_peaks == obs.mem_peaks
        self.explore(pocket_data, bundle_dir=tmp_path / "plain")
        assert load_bundle(tmp_path / "plain").mem_peaks == {}

    def test_session_results_bit_identical_bundling_on_or_off(
        self, pocket_data, tmp_path
    ):
        table, errors = pocket_data
        plain = ExploreSession(table, errors)
        expected = result_signature(plain.explore(min_support=0.1))
        swept = [
            result_signature(p.result)
            for p in plain.sweep("min_support", [0.1, 0.2])
        ]
        obs = ObsCollector()
        session = ExploreSession(table, errors, obs=obs)
        with RunBundle(tmp_path / "e", name="session", obs=obs):
            explored = session.explore(min_support=0.1)
        with RunBundle(tmp_path / "s", name="sweep", obs=obs):
            sweep = session.sweep("min_support", [0.1, 0.2])
        assert result_signature(explored) == expected
        assert [result_signature(p.result) for p in sweep] == swept
        for name in ("e", "s"):
            assert validate_bundle(tmp_path / name) == []
            assert load_bundle(tmp_path / name).status == "ok"

    @pytest.mark.parametrize("n_jobs", [1])
    def test_deadline_cancelled_run_leaves_valid_bundle(
        self, pocket_data, tmp_path, n_jobs
    ):
        with pytest.raises(RunCancelled) as exc_info:
            self.explore(
                pocket_data, bundle_dir=tmp_path / "b",
                n_jobs=n_jobs, deadline_s=1e-6,
            )
        assert validate_bundle(tmp_path / "b") == []
        bundle = load_bundle(tmp_path / "b")
        assert bundle.status == "cancelled"
        assert bundle.crash["kind"] == "cancelled"
        assert bundle.crash["reason"] == "deadline"
        assert bundle.crash["where"] == exc_info.value.where
        assert bundle.crash["last_events"]
        assert bundle.manifest["deadline_s"] == 1e-6


def _bundled_hexplore(table, errors, obs):
    HDivExplorer(ExploreConfig(min_support=0.1, obs=obs)).explore(
        table, errors
    )


def _bundled_hexplore_profiled(table, errors, obs):
    obs.enable_memory_profiling()
    try:
        _bundled_hexplore(table, errors, obs)
    finally:
        obs.stop_memory_profiling()


def _bundled_divexplore(table, errors, obs):
    DivExplorer(ExploreConfig(min_support=0.1, obs=obs)).explore(
        table, errors
    )


def _bundled_sweep(table, errors, obs):
    ExploreSession(table, errors, obs=obs).sweep(
        "min_support", [0.1, 0.2, 0.3]
    )


def _bundled_cancelled(table, errors, obs):
    obs.arm_deadline(1e-6)
    _bundled_hexplore(table, errors, obs)


class TestRunLogIsTheRecording:
    """What a bundle reads back is folded from its run log, and equals
    what the collector that recorded the run holds."""

    def test_span_close_carries_attributes_set_after_open(
        self, pocket_data
    ):
        table, errors = pocket_data
        obs = ObsCollector(events=EventStream())
        ExploreSession(table, errors, obs=obs).sweep(
            "min_support", [0.1, 0.2]
        )
        closes = {}
        for event in obs.events:
            if event.kind == "span_close":
                closes.setdefault(event.name, []).append(event.attrs)
        assert all(a["itemsets"] > 0 for a in closes["bitset"])
        assert [a["cache_hits"] > 0 for a in closes["point"]] == [
            False, True,
        ]
        assert all("seconds" in a for attrs in closes.values() for a in attrs)

    def test_root_counter_snapshot_carries_gauges(self, pocket_data):
        table, errors = pocket_data
        obs = ObsCollector(events=EventStream())
        _bundled_hexplore(table, errors, obs)
        (last,) = [e for e in obs.events if e.kind == "counters"][-1:]
        assert last.attrs["counters"] == obs.counters
        assert last.attrs["gauges"] == obs.gauges
        assert last.attrs["gauges"]["universe.items"] > 0

    @pytest.mark.parametrize("run", [
        _bundled_hexplore,
        _bundled_hexplore_profiled,
        _bundled_divexplore,
        _bundled_sweep,
        _bundled_cancelled,
    ], ids=["hexplore", "hexplore-memory", "divexplore", "sweep",
            "cancelled"])
    def test_bundle_folds_to_the_collector(self, pocket_data, tmp_path, run):
        table, errors = pocket_data
        obs = ObsCollector()
        with contextlib.suppress(RunCancelled):
            with RunBundle(tmp_path / "b", obs=obs, dataset=table):
                run(table, errors, obs)
        assert validate_bundle(tmp_path / "b") == []
        bundle = load_bundle(tmp_path / "b")
        cancelled = run is _bundled_cancelled
        assert bundle.status == ("cancelled" if cancelled else "ok")
        assert bundle.counters == obs.counters
        assert bundle.gauges == obs.gauges
        assert bundle.mem_peaks == obs.mem_peaks
        assert bundle.phase_seconds() == obs.phase_seconds()
        assert bundle.counters and bundle.phase_seconds()
        if run is _bundled_hexplore_profiled:
            assert "mine" in bundle.mem_peaks
            assert "mem.rss_max_kb" in bundle.gauges

    def test_log_written_before_closes_carried_attributes_folds_empty(self):
        records = [
            {"kind": "header", "schema": "repro.obs/events@2"},
            {"kind": "span_open", "name": "mine"},
            {"kind": "span_close", "name": "mine",
             "attrs": {"seconds": 0.5}},
            {"kind": "counters", "name": "mine",
             "attrs": {"counters": {"mining.candidates": 3}}},
        ]
        fold = fold_events(records)
        assert fold.phases == {"mine": 0.5}
        assert fold.counters == {"mining.candidates": 3}
        assert fold.gauges == {} and fold.mem_peaks == {}


class TestCliBundle:
    def run_cli(self, tmp_path, capsys, *args):
        """Run one CLI command with ``--bundle``; return the bundle dir."""
        import numpy as np

        from repro.tabular import Table, write_csv

        rng = np.random.default_rng(7)
        n = 400
        table = Table({
            "x": rng.uniform(0, 10, n),
            "label": (rng.uniform(size=n) < 0.3).astype(int),
            "pred": (rng.uniform(size=n) < 0.3).astype(int),
        })
        csv = tmp_path / "data.csv"
        write_csv(table, csv)
        bundle_dir = tmp_path / "bundle"
        command, *flags = args
        code = cli_main([
            command, str(csv), "--kind", "error",
            "--y-true", "label", "--y-pred", "pred",
            "--support", "0.2", "--bundle", str(bundle_dir), *flags,
        ])
        assert code == 0
        assert "wrote run bundle to" in capsys.readouterr().out
        return bundle_dir

    def test_explore_bundle_flag(self, tmp_path, capsys):
        bundle_dir = self.run_cli(tmp_path, capsys, "explore")
        assert validate_bundle(bundle_dir) == []
        assert load_bundle(bundle_dir).status == "ok"

    def test_explore_base_bundle_flag(self, tmp_path, capsys):
        bundle_dir = self.run_cli(tmp_path, capsys, "explore", "--base")
        assert validate_bundle(bundle_dir) == []
        bundle = load_bundle(bundle_dir)
        assert bundle.status == "ok"
        assert bundle.name == "explore"
        # The base path's tree fitting is inside the capture.
        assert bundle.counters["discretize.splits_tried"] > 0
        assert bundle.counters["mining.candidates"] > 0

    def test_sweep_bundle_flag(self, tmp_path, capsys):
        bundle_dir = self.run_cli(
            tmp_path, capsys, "sweep", "--param", "min_support",
            "--values", "0.2,0.3",
        )
        assert validate_bundle(bundle_dir) == []
        bundle = load_bundle(bundle_dir)
        assert bundle.status == "ok"
        assert bundle.name == "sweep"
        assert "sweep" in bundle.phase_seconds()
