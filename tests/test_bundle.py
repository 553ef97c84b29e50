"""Tests for run bundles (``repro.obs.bundle``).

Covers the RunBundle capture contract (manifest, run log, trace,
metrics, perfdb record, crash.json), the load/validate round-trip and
tamper detection, the ``bundle_scope`` explorer hook, and the
acceptance contracts: fixed-seed runs bundle deterministically whether
they succeed or hit a deadline, across ``n_jobs`` ∈ {1, 4}, with the
ResultSet bit-identical bundling on or off.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.core.config import ExploreConfig
from repro.core.hexplorer import HDivExplorer
from repro.obs import (
    BUNDLE_SCHEMA,
    EventStream,
    ObsCollector,
    RunBundle,
    RunCancelled,
    bundle_scope,
    load_bundle,
    validate_bundle,
)
from repro.obs.bundle import (
    CRASH_FILENAME,
    MANIFEST_FILENAME,
    dataset_snapshot,
    env_snapshot,
    trace_phase_seconds,
)


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

    def test_trace_phase_seconds_accumulates_repeated_paths(self):
        spans = [
            {"name": "explore", "elapsed_seconds": 1.0, "children": [
                {"name": "mine", "elapsed_seconds": 0.25},
                {"name": "mine", "elapsed_seconds": 0.25},
            ]},
        ]
        assert trace_phase_seconds(spans) == {
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
        assert set(manifest["files"]) == {
            "run_log", "trace", "metrics", "perfdb",
        }
        assert validate_bundle(tmp_path / "b") == []
        assert not (tmp_path / "b" / CRASH_FILENAME).exists()

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
        obs.events.emit("heartbeat", "after")  # must not hit the file
        assert (self_dir / "run_log.jsonl").stat().st_size == size

    def test_empty_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunBundle(tmp_path / "b", name="")


class TestBundleScope:
    def test_inert_without_bundle_dir(self):
        config = ExploreConfig(min_support=0.1)
        obs = ObsCollector()
        with bundle_scope(config, obs) as bundle:
            assert bundle is None
        assert obs.events is None  # untouched

    def test_duck_types_plain_objects(self, tmp_path):
        class Cfg:
            bundle_dir = str(tmp_path / "b")

        obs = ObsCollector(events=EventStream())
        with bundle_scope(Cfg(), obs, name="duck") as bundle:
            with obs.span("root"):
                pass
        assert bundle is not None
        assert bundle.manifest["name"] == "duck"
        assert bundle.manifest["config"] == {}
        assert validate_bundle(tmp_path / "b") == []


class TestValidateBundle:
    def make(self, tmp_path):
        TestRunBundle().run_bundled(tmp_path)
        return tmp_path / "b"

    def test_missing_manifest(self, tmp_path):
        assert validate_bundle(tmp_path) == [f"missing {MANIFEST_FILENAME}"]

    def test_tampered_file_fails_sha256(self, tmp_path):
        directory = self.make(tmp_path)
        metrics = directory / "metrics.json"
        metrics.write_text(metrics.read_text().replace("7", "8"))
        problems = validate_bundle(directory)
        assert any("sha256 mismatch" in p for p in problems)

    def test_deleted_artifact_detected(self, tmp_path):
        directory = self.make(tmp_path)
        (directory / "trace.json").unlink()
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

    def explore(self, pocket_data, bundle_dir=None, n_jobs=1, **kw):
        table, errors = pocket_data
        config = ExploreConfig(
            min_support=0.1, tree_support=0.1,
            n_jobs=n_jobs,
            bundle_dir=None if bundle_dir is None else str(bundle_dir),
            **kw,
        )
        return HDivExplorer(config).explore(table, errors)

    @pytest.mark.parametrize("n_jobs", [1, 4])
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
        workers = bundle.manifest["workers"]
        if n_jobs == 1:
            assert workers == []
        else:
            assert {w["worker"] for w in workers} <= {1, 2, 3, 4}
            assert all(w["pid"] > 0 for w in workers)

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

    @pytest.mark.parametrize("n_jobs", [1, 4])
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


class TestCliBundle:
    def test_explore_bundle_flag(self, tmp_path, capsys):
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
        code = cli_main([
            "explore", str(csv), "--kind", "error",
            "--y-true", "label", "--y-pred", "pred",
            "--support", "0.2", "--bundle", str(bundle_dir),
        ])
        assert code == 0
        assert "wrote run bundle to" in capsys.readouterr().out
        assert validate_bundle(bundle_dir) == []
        assert load_bundle(bundle_dir).status == "ok"
