"""Tests for ``repro.obs`` — spans, metrics, and telemetry determinism.

Covers the collector mechanics (nesting, null-object behaviour,
pickling), counter parity across the retired backend names,
tracing-on/off result identity, and the text and ``bench@2`` reports.
"""

from __future__ import annotations

import json
import pickle
import warnings

import numpy as np
import pytest

from repro.core.config import ExploreConfig
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem, IntervalItem
from repro.core.mining.transactions import (
    RETIRED_BACKENDS,
    EncodedUniverse,
    mine,
)
from repro.core.report import exploration_report
from repro.obs import (
    BENCH_SCHEMA,
    NULL_OBS,
    NullCollector,
    ObsCollector,
    bench_payload,
    config_fingerprint,
    obs_summary,
    render_text,
    resolve_obs,
    trim_spans,
    validate_bench_payload,
    write_bench_json,
)
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


class TestSpans:
    def test_nesting_builds_a_tree(self):
        obs = ObsCollector()
        with obs.span("outer"):
            with obs.span("inner.a"):
                pass
            with obs.span("inner.b"):
                pass
        assert [r.name for r in obs.roots] == ["outer"]
        assert [c.name for c in obs.roots[0].children] == ["inner.a", "inner.b"]
        assert obs.current_span() is None

    def test_elapsed_and_attrs(self):
        obs = ObsCollector()
        with obs.span("phase", n=3) as span:
            span.set(extra="x")
        assert span.elapsed_seconds > 0.0
        assert span.attrs == {"n": 3, "extra": "x"}
        d = span.to_dict()
        assert d["name"] == "phase" and d["attrs"]["extra"] == "x"

    def test_exception_still_closes_span(self):
        obs = ObsCollector()
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                raise RuntimeError("boom")
        assert [r.name for r in obs.roots] == ["doomed"]
        assert obs.current_span() is None

    def test_walk_preorder(self):
        obs = ObsCollector()
        with obs.span("a"):
            with obs.span("b"):
                with obs.span("c"):
                    pass
        assert [s.name for s in obs.roots[0].walk()] == ["a", "b", "c"]

    def test_phase_seconds_accumulates_repeats(self):
        obs = ObsCollector()
        for _ in range(2):
            with obs.span("mine"):
                with obs.span("bitset"):
                    pass
        phases = obs.phase_seconds()
        assert set(phases) == {"mine", "mine.bitset"}
        assert phases["mine"] >= phases["mine.bitset"] > 0.0


class TestCollectorMetrics:
    def test_count_gauge_counter(self):
        obs = ObsCollector()
        obs.count("c")
        obs.count("c", 4)
        obs.gauge("g", 2.5)
        obs.gauge("g", 3.5)
        assert obs.counter("c") == 5
        assert obs.counter("missing") == 0
        assert obs.gauges["g"] == 3.5

    def test_metrics_dict_sorted(self):
        obs = ObsCollector()
        for name in ("zebra", "alpha", "mid"):
            obs.count(name)
        assert list(obs.metrics_dict()["counters"]) == ["alpha", "mid", "zebra"]


class TestNullCollector:
    def test_disabled_and_inert(self):
        assert NULL_OBS.enabled is False
        with NULL_OBS.span("x", a=1) as span:
            span.set(b=2)
        assert span.elapsed_seconds == 0.0
        assert span.attrs == {}
        NULL_OBS.count("c", 5)
        NULL_OBS.gauge("g", 1.0)
        assert NULL_OBS.counter("c") == 0
        assert NULL_OBS.metrics_dict() == {"counters": {}, "gauges": {}}
        assert NULL_OBS.trace_dict() == []
        assert NULL_OBS.phase_seconds() == {}

    def test_pickle_round_trips_to_singleton(self):
        clone = pickle.loads(pickle.dumps(NULL_OBS))
        assert clone is NULL_OBS
        assert pickle.loads(pickle.dumps(NullCollector())) is NULL_OBS

    def test_resolve_obs(self):
        assert resolve_obs(None) is NULL_OBS
        obs = ObsCollector()
        assert resolve_obs(obs) is obs


class TestConfigIntegration:
    def test_obs_does_not_affect_equality_or_hash(self):
        plain = ExploreConfig()
        instrumented = ExploreConfig(obs=ObsCollector())
        assert plain == instrumented
        assert hash(plain) == hash(instrumented)

    def test_none_normalized_to_null(self):
        assert ExploreConfig(obs=None).obs is NULL_OBS

    def test_fingerprint_stable_and_obs_free(self):
        a = ExploreConfig(min_support=0.07)
        b = ExploreConfig(min_support=0.07, obs=ObsCollector())
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != ExploreConfig(min_support=0.08).fingerprint()
        assert "obs" not in a.to_dict()

    def test_explorers_accept_obs_kwarg(self):
        obs = ObsCollector()
        assert DivExplorer(obs=obs).obs is obs
        assert HDivExplorer(obs=obs).obs is obs


class TestCounterParity:
    """The metric contract (see docs/OBSERVABILITY.md): counters do not
    depend on which (deprecated) backend name was used."""

    CENTRAL = ("mining.frequent_itemsets",)

    def collect(self, universe, backend):
        obs = ObsCollector()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            mined = mine(universe, 0.05, backend, obs=obs)
        return mined, dict(obs.counters)

    def test_central_counters_identical_across_backends(self, universe):
        per_backend = {
            b: self.collect(universe, b)[1]
            for b in (*RETIRED_BACKENDS, "bitset")
        }
        reference = per_backend["bitset"]
        level_keys = [
            k for k in reference if k.startswith("mining.frequent.level_")
        ]
        assert level_keys, "level counters missing"
        for backend, counters in per_backend.items():
            for key in (*self.CENTRAL, *level_keys):
                assert counters[key] == reference[key], (backend, key)
            assert counters == reference, backend

    def test_eclat_and_bitset_fully_identical(self, universe):
        mined_e, counters_e = self.collect(universe, "eclat")
        mined_b, counters_b = self.collect(universe, "bitset")
        assert counters_e == counters_b
        assert mined_signature(mined_e) == mined_signature(mined_b)
        assert counters_e["mining.candidates"] > 0
        assert counters_e["mining.support_pruned"] > 0
        assert counters_e["mining.rows_scanned"] > 0


class TestTracingDeterminism:
    def explore(self, pocket_data, obs, hierarchical):
        table, errors = pocket_data
        config = ExploreConfig(min_support=0.05, obs=obs)
        if hierarchical:
            return HDivExplorer(config).explore(table, errors)
        from repro.core.discretize import TreeDiscretizer

        trees = TreeDiscretizer(0.1).fit_all(table, errors)
        items = {a: t.leaf_items() for a, t in trees.items()}
        return DivExplorer(config).explore(
            table, errors, continuous_items=items
        )

    @staticmethod
    def rows(result):
        return [
            (
                str(r.itemset), r.count, r.divergence,
                None if np.isnan(r.t) else r.t,
            )
            for r in result
        ]

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_results_identical_with_and_without_obs(
        self, pocket_data, hierarchical
    ):
        baseline = self.explore(pocket_data, None, hierarchical)
        traced = self.explore(pocket_data, ObsCollector(), hierarchical)
        assert self.rows(baseline) == self.rows(traced)

    def test_hexplorer_span_tree_and_summary(self, pocket_data):
        table, errors = pocket_data
        obs = ObsCollector()
        result = HDivExplorer(
            ExploreConfig(min_support=0.05, obs=obs)
        ).explore(table, errors)
        names = [r.name for r in obs.roots]
        assert names == ["discretize", "encode", "mine"]
        mine_span = obs.roots[-1]
        assert [c.name for c in mine_span.children] == ["bitset"]
        assert obs.counter("discretize.splits_tried") > 0
        summary = result.summary()
        assert "obs" in summary
        assert summary["obs"]["frequent_itemsets"] == len(result)
        assert result.summary()["obs"]["phases"]["mine"] > 0.0

    def test_summary_has_no_obs_section_when_disabled(self, pocket_data):
        table, errors = pocket_data
        result = DivExplorer(ExploreConfig(min_support=0.1)).explore(
            table, errors
        )
        assert "obs" not in result.summary()

    def test_back_compat_timing_attributes(self, pocket_data):
        table, errors = pocket_data
        explorer = HDivExplorer(ExploreConfig(min_support=0.1))
        result = explorer.explore(table, errors)
        assert explorer.last_discretization_seconds_ > 0.0
        assert result.elapsed_seconds > 0.0


class TestPayloads:
    def make_obs(self):
        obs = ObsCollector()
        with obs.span("mine", polarity=False):
            with obs.span("bitset"):
                obs.count("mining.candidates", 10)
        obs.gauge("universe.items", 9)
        return obs

    def test_obs_summary_shape(self):
        s = obs_summary(self.make_obs())
        assert set(s) == {
            "phases", "candidates", "frequent_itemsets", "pruning",
        }
        assert s["candidates"] == 10

    def test_render_text_lists_spans_and_counters(self):
        text = render_text(self.make_obs())
        assert "mine" in text and "bitset" in text
        assert "mining.candidates" in text

    def test_bench_payload_valid_and_fingerprinted(self, tmp_path):
        obs = self.make_obs()
        config = {"dataset": "compas", "support": 0.05}
        payload = write_bench_json(
            tmp_path / "BENCH_x.json", "x", obs=obs, config=config,
            extra={"note": 1},
        )
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["config_fingerprint"] == config_fingerprint(config)
        assert validate_bench_payload(payload) == []
        reread = json.loads((tmp_path / "BENCH_x.json").read_text())
        assert validate_bench_payload(reread) == []

    def test_validation_catches_corruption(self):
        payload = bench_payload("x", obs=self.make_obs(), config={"a": 1})
        payload["config"]["a"] = 2
        errors = validate_bench_payload(payload)
        assert any("fingerprint" in e for e in errors)
        payload = bench_payload("x", obs=self.make_obs())
        payload["counters"] = {"bad": 1.5}
        assert any("integer" in e for e in validate_bench_payload(payload))

    def test_retired_bench_v1_schema_is_rejected(self):
        payload = bench_payload("x", obs=self.make_obs())
        payload["schema"] = "repro.obs/bench@1"
        assert validate_bench_payload(payload) == [
            f"schema is not {BENCH_SCHEMA!r}: 'repro.obs/bench@1'"
        ]

    def test_config_fingerprint_key_order_invariant(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


class TestVerboseReport:
    def test_verbose_appends_observability_section(self, pocket_data):
        table, errors = pocket_data
        obs = ObsCollector()
        result = HDivExplorer(
            ExploreConfig(min_support=0.1, obs=obs)
        ).explore(table, errors)
        plain = exploration_report(result)
        verbose = exploration_report(result, verbose=True)
        assert "observability:" not in plain
        assert "observability:" in verbose
        assert "phase wall times:" in verbose

    def test_verbose_without_collector_says_disabled(self, pocket_data):
        table, errors = pocket_data
        result = DivExplorer(ExploreConfig(min_support=0.1)).explore(
            table, errors
        )
        text = exploration_report(result, verbose=True)
        assert "disabled" in text


class TestSpanTreesUnderExceptions:
    def test_deep_raise_closes_every_open_span(self):
        obs = ObsCollector()
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("middle"):
                    with obs.span("inner"):
                        raise ValueError("deep boom")
        assert obs.current_span() is None
        (root,) = obs.roots
        assert [s.name for s in root.walk()] == ["outer", "middle", "inner"]
        assert all(s.elapsed_seconds >= 0.0 for s in root.walk())

    def test_partial_tree_serializes_after_exception(self):
        obs = ObsCollector()
        with obs.span("survivor"):
            pass
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                with obs.span("child"):
                    raise RuntimeError("boom")
        trace = obs.trace_dict()
        assert [s["name"] for s in trace] == ["survivor", "doomed"]
        payload = bench_payload("x", obs=obs, config={})
        assert validate_bench_payload(payload) == []
        assert set(obs.phase_seconds()) == {
            "survivor", "doomed", "doomed.child",
        }

    def test_sibling_span_can_open_after_exception(self):
        obs = ObsCollector()
        with obs.span("root"):
            try:
                with obs.span("bad"):
                    raise KeyError("x")
            except KeyError:
                pass
            with obs.span("good"):
                pass
        (root,) = obs.roots
        assert [c.name for c in root.children] == ["bad", "good"]


class TestTrimSpans:
    def deep_obs(self):
        obs = ObsCollector()
        with obs.span("a"):
            with obs.span("b"):
                with obs.span("c"):
                    with obs.span("d"):
                        pass
                with obs.span("c2"):
                    pass
        return obs

    def test_depth_one_keeps_roots_and_accounts_for_the_rest(self):
        obs = self.deep_obs()
        trimmed = trim_spans(obs.trace_dict(), 1)
        (root,) = trimmed
        assert root["name"] == "a"
        assert "children" not in root
        assert root["children_dropped"] == 4  # b, c, c2, d
        assert root["children_seconds"] == pytest.approx(
            obs.roots[0].children[0].elapsed_seconds
        )

    def test_depth_two_trims_grandchildren(self):
        trimmed = trim_spans(self.deep_obs().trace_dict(), 2)
        b = trimmed[0]["children"][0]
        assert b["name"] == "b"
        assert "children" not in b
        assert b["children_dropped"] == 3  # c, d, c2

    def test_deep_enough_depth_is_identity(self):
        spans = self.deep_obs().trace_dict()
        assert trim_spans(spans, 10) == spans

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            trim_spans([], 0)
        # Depth 0 is rejected before any span is touched — a non-empty
        # forest raises identically instead of returning roots-only.
        with pytest.raises(ValueError):
            trim_spans(self.deep_obs().trace_dict(), 0)
        with pytest.raises(ValueError):
            trim_spans([], -3)

    def test_empty_forest_is_preserved(self):
        assert trim_spans([], 1) == []
        assert trim_spans([], 100) == []

    def test_children_seconds_when_all_children_dropped(self):
        obs = ObsCollector()
        with obs.span("root"):
            with obs.span("left"):
                pass
            with obs.span("right"):
                pass
        (root,) = trim_spans(obs.trace_dict(), 1)
        children = obs.roots[0].children
        assert root["children_dropped"] == 2
        # children_seconds sums *all* direct children when every one of
        # them was dropped — not just the first.
        assert root["children_seconds"] == pytest.approx(
            sum(c.elapsed_seconds for c in children)
        )
        assert "children" not in root

    def test_bench_payload_records_depth_and_validates(self):
        obs = self.deep_obs()
        payload = bench_payload("x", obs=obs, config={}, max_span_depth=2)
        assert payload["max_span_depth"] == 2
        assert validate_bench_payload(payload) == []
        # Trimming only drops trace detail, never phase totals.
        assert set(payload["phases"]) == {
            "a", "a.b", "a.b.c", "a.b.c.d", "a.b.c2",
        }


class TestMemoryProfiling:
    def mined_with(self, universe, profile, n_jobs=1):
        obs = ObsCollector(profile_memory=profile)
        try:
            with obs.span("mine"):
                mined = mine(universe, 0.05, "bitset", n_jobs=n_jobs, obs=obs)
        finally:
            obs.stop_memory_profiling()
        return mined, obs

    def test_results_identical_with_profiling_on(self, universe):
        mined_off, _ = self.mined_with(universe, False)
        mined_on, obs = self.mined_with(universe, True)
        assert mined_signature(mined_on) == mined_signature(mined_off)
        assert obs.profile_memory is False  # stopped in mined_with
        assert obs.mem_peaks  # but the peaks survive the stop
        assert all(
            isinstance(v, int) and v >= 0 for v in obs.mem_peaks.values()
        )

    def test_peaks_recorded_per_span_path(self, universe):
        _, obs = self.mined_with(universe, True)
        assert "mine" in obs.mem_peaks
        assert "mine.bitset" in obs.mem_peaks
        # A parent's peak is at least its child's (high-water nesting).
        assert obs.mem_peaks["mine"] >= obs.mem_peaks["mine.bitset"]

    def test_span_attrs_carry_peak_bytes(self, universe):
        _, obs = self.mined_with(universe, True)
        (root,) = obs.roots
        assert root.attrs["mem_peak_bytes"] >= 0
        assert all("mem_peak_bytes" in s.attrs for s in root.walk())

    def test_rss_gauge_recorded_at_root_close(self, universe):
        _, obs = self.mined_with(universe, True)
        rss = obs.gauges.get("mem.rss_max_kb")
        if rss is not None:  # resource module present (POSIX)
            assert rss > 0

    @pytest.mark.parametrize("n_jobs", [1])
    def test_parallel_runs_merge_worker_peaks(self, universe, n_jobs):
        mined, obs = self.mined_with(universe, True, n_jobs=n_jobs)
        serial_mined, _ = self.mined_with(universe, False)
        assert mined_signature(mined) == mined_signature(serial_mined)
        assert obs.mem_peaks["mine"] >= 0

    def test_record_peak_takes_the_max(self):
        obs = ObsCollector()
        obs.record_peak("p", 100)
        obs.record_peak("p", 70)
        obs.record_peak("q", 5)
        obs.record_peak("p", 300)
        assert obs.mem_peaks == {"p": 300, "q": 5}

    def test_null_collector_is_inert(self):
        assert NULL_OBS.profile_memory is False
        assert NULL_OBS.mem_peaks == {}
        NULL_OBS.enable_memory_profiling()
        NULL_OBS.record_peak("x", 10)
        NULL_OBS.stop_memory_profiling()
        assert NULL_OBS.mem_peaks == {}
        assert NULL_OBS.profile_memory is False

    def test_bench_payload_and_summary_carry_mem_peaks(self, universe):
        _, obs = self.mined_with(universe, True)
        payload = bench_payload("x", obs=obs, config={})
        assert validate_bench_payload(payload) == []
        assert payload["mem_peaks"] == {
            k: obs.mem_peaks[k] for k in sorted(obs.mem_peaks)
        }
        summary = obs_summary(obs)
        assert summary["mem_peaks"] == payload["mem_peaks"]
        assert "mem peaks:" in render_text(obs)

    def test_unprofiled_payload_omits_mem_sections(self):
        obs = ObsCollector()
        with obs.span("x"):
            pass
        payload = bench_payload("x", obs=obs, config={})
        assert "mem_peaks" not in payload
        assert "mem_peaks" not in obs_summary(obs)
