"""Tests for the unified ExploreConfig construction surface.

Every explorer, baseline and session entry point takes an
:class:`ExploreConfig` and/or its field names as keyword arguments.
Anything else — a misspelled field, a retired spelling (``support=``,
``st=``, ``max_level=``) or a bare number as the config — raises
:class:`TypeError` naming the entry point.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from repro.baselines import ErrorTree, SliceFinder, SliceLine
from repro.core.config import ExploreConfig, resolve_config
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.session import ExploreSession
from repro.tabular import Table


def _session() -> ExploreSession:
    table = Table({"x": [0.0, 1.0, 2.0, 3.0], "c": ["a", "b", "a", "b"]})
    return ExploreSession(table, np.array([0.0, 1.0, 0.0, 1.0]))


#: Every front door that resolves an ExploreConfig, keyed by the owner
#: name its TypeError carries. Each takes ``(config, **fields)``.
ENTRY_POINTS = {
    "DivExplorer": DivExplorer,
    "HDivExplorer": HDivExplorer,
    "SliceFinder": SliceFinder,
    "SliceLine": SliceLine,
    "ErrorTree": ErrorTree,
    "ExploreSession.explore": lambda *a, **kw: _session().explore(*a, **kw),
    "ExploreSession.sweep": lambda *a, **kw: _session().sweep(
        "min_support", [0.1], *a, **kw
    ),
}


class TestExploreConfig:
    def test_defaults(self):
        cfg = ExploreConfig()
        assert cfg.min_support == 0.05
        assert cfg.tree_support == 0.1
        assert cfg.criterion == "divergence"
        assert cfg.backend == "bitset"
        assert cfg.polarity is False
        assert cfg.max_length is None
        assert cfg.n_jobs == 1

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExploreConfig().min_support = 0.2

    def test_replace_revalidates(self):
        cfg = ExploreConfig().replace(min_support=0.2, backend="bitset")
        assert cfg.min_support == 0.2 and cfg.backend == "bitset"
        with pytest.raises(ValueError):
            cfg.replace(min_support=0.0)

    @pytest.mark.parametrize("retired", ["fpgrowth", "apriori", "eclat"])
    def test_retired_backend_warns_once_and_normalises(self, retired):
        with pytest.warns(DeprecationWarning) as caught:
            cfg = ExploreConfig(min_support=0.1, backend=retired)
        assert len(caught) == 1
        assert cfg.backend == "bitset"
        assert cfg == ExploreConfig(min_support=0.1)
        assert cfg.fingerprint() == ExploreConfig(min_support=0.1).fingerprint()

    @pytest.mark.parametrize("n_jobs", [0, -1, 2, 4])
    def test_n_jobs_warns_and_normalises_to_serial(self, n_jobs):
        with pytest.warns(DeprecationWarning, match="n_jobs") as caught:
            cfg = ExploreConfig(n_jobs=n_jobs)
        assert len(caught) == 1
        assert cfg.n_jobs == 1
        assert cfg == ExploreConfig()
        assert cfg.fingerprint() == ExploreConfig().fingerprint()

    def test_n_jobs_1_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert ExploreConfig(n_jobs=1).n_jobs == 1
            assert ExploreConfig().replace(n_jobs=1) == ExploreConfig()

    @pytest.mark.parametrize(
        "bad",
        [
            {"min_support": 0.0},
            {"min_support": 1.5},
            {"tree_support": 0.0},
            {"criterion": "gini"},
            {"backend": "mystery"},
            {"max_length": 0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExploreConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"min_support": True},
            {"min_support": "0.05"},
            {"tree_support": False},
            {"tree_support": "0.1"},
            {"max_length": 2.5},
            {"max_length": True},
            {"max_length": "2"},
            {"polarity": "false"},
            {"polarity": 2},
        ],
        ids=repr,
    )
    def test_wrongly_typed_field_raises(self, bad):
        (name,) = bad
        with pytest.raises(TypeError, match=name):
            ExploreConfig(**bad)

    @pytest.mark.parametrize(
        "name,value,canonical",
        [
            ("min_support", 1, 1.0),
            ("tree_support", np.float64(0.2), 0.2),
            ("max_length", 2.0, 2),
            ("max_length", np.int64(2), 2),
            ("polarity", 1, True),
            ("polarity", 0, False),
        ],
    )
    def test_equal_configs_fingerprint_equal(self, name, value, canonical):
        cfg = ExploreConfig(**{name: value})
        same = ExploreConfig(**{name: canonical})
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg.fingerprint() == same.fingerprint()
        assert type(getattr(cfg, name)) is type(canonical)


class TestResolveConfig:
    def test_kwargs_override_config(self):
        kwargs = {"min_support": 0.3}
        cfg = resolve_config(ExploreConfig(min_support=0.1), kwargs)
        assert cfg.min_support == 0.3
        assert kwargs == {"min_support": 0.3}  # read, not consumed

    def test_defaults_apply_without_config(self):
        cfg = resolve_config(None, {}, defaults={"min_support": 0.01})
        assert cfg.min_support == 0.01

    def test_bad_config_type(self):
        with pytest.raises(TypeError):
            resolve_config("0.05", {})


class TestExplorerConstruction:
    def test_div_explorer_from_config(self):
        cfg = ExploreConfig(min_support=0.1, polarity=True)
        ex = DivExplorer(cfg)
        assert ex.config == cfg
        assert ex.min_support == 0.1
        assert not hasattr(ex, "backend")
        assert not hasattr(ex, "n_jobs")
        assert ex.polarity is True

    def test_hdiv_explorer_from_config(self):
        cfg = ExploreConfig(min_support=0.07, tree_support=0.2, max_length=3)
        ex = HDivExplorer(cfg, max_candidates=16)
        assert ex.min_support == 0.07
        assert ex.tree_support == 0.2
        assert ex.max_length == 3
        assert not hasattr(ex, "backend")
        assert ex.max_candidates == 16

    def test_legacy_kwargs_silent(self, recwarn):
        # Canonical keyword spellings are not deprecated.
        HDivExplorer(min_support=0.1, tree_support=0.2, backend="bitset")
        DivExplorer(min_support=0.1, max_length=2)
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    @pytest.mark.parametrize("owner", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "keyword", ["min_supprt", "support", "st", "max_level"]
    )
    def test_unknown_kwarg_raises(self, owner, keyword):
        # A misspelled field and each retired spelling are all unknown.
        message = f"{owner} got unexpected keyword arguments ['{keyword}']"
        with pytest.raises(TypeError, match=re.escape(message)):
            ENTRY_POINTS[owner](**{keyword: 0.1})

    @pytest.mark.parametrize("owner", ENTRY_POINTS)
    def test_number_as_config_raises(self, owner):
        with pytest.raises(
            TypeError, match=rf"^{re.escape(owner)}: .*min_support="
        ):
            ENTRY_POINTS[owner](0.1)

    def test_config_and_kwargs_mix(self):
        ex = DivExplorer(ExploreConfig(min_support=0.1), polarity=True)
        assert ex.min_support == 0.1 and ex.polarity is True


#: Run options that are not configuration, with values a caller would
#: pass: profiling and deadlines are set on the collector, and a run
#: bundle wraps the call.
RUN_OPTIONS = {
    "profile_memory": True,
    "profile_cpu": True,
    "sample_hz": 50.0,
    "deadline_s": 30.0,
    "bundle_dir": "out",
}


class TestRunOptionsAreNotConfig:
    def test_fields_are_the_result_knobs_and_the_collector(self):
        assert [f.name for f in dataclasses.fields(ExploreConfig)] == [
            "min_support", "tree_support", "criterion", "backend",
            "polarity", "max_length", "n_jobs", "obs",
        ]

    @pytest.mark.parametrize("name", RUN_OPTIONS)
    def test_config_rejects_run_option(self, name):
        with pytest.raises(TypeError, match=name):
            ExploreConfig(**{name: RUN_OPTIONS[name]})

    @pytest.mark.parametrize("name", RUN_OPTIONS)
    def test_explorer_rejects_run_option_naming_owner(self, name):
        message = f"HDivExplorer got unexpected keyword arguments ['{name}']"
        with pytest.raises(TypeError, match=re.escape(message)):
            HDivExplorer(**{name: RUN_OPTIONS[name]})

    @pytest.mark.parametrize("name", RUN_OPTIONS)
    def test_from_dict_rejects_run_option_keyword(self, name):
        with pytest.raises(TypeError, match=name):
            ExploreConfig.from_dict(
                {"min_support": 0.1}, **{name: RUN_OPTIONS[name]}
            )


class TestBaselineConstruction:
    def test_sliceline_from_config(self):
        sl = SliceLine(ExploreConfig(min_support=0.2, max_length=2), k=5)
        assert sl.min_support == 0.2
        assert sl.max_level == 2
        assert sl.k == 5

    def test_sliceline_defaults(self):
        sl = SliceLine()
        assert sl.min_support == 0.01
        assert sl.max_level == 3

    def test_slicefinder_from_config(self):
        sf = SliceFinder(ExploreConfig(max_length=1), k=3)
        assert sf.max_level == 1 and sf.k == 3

    def test_slicefinder_max_level_validation(self):
        with pytest.raises(ValueError):
            SliceFinder(max_length=0)

    def test_errortree_from_config(self):
        et = ErrorTree(ExploreConfig(min_support=0.2, criterion="entropy"))
        assert et.min_support == 0.2
        assert et.criterion == "entropy"

    def test_errortree_legacy_kwargs(self):
        et = ErrorTree(min_support=0.1, max_depth=2)
        assert et.min_support == 0.1 and et.max_depth == 2


class TestConfigDrivenExploration:
    def test_config_equals_legacy_results(self, pocket_data):
        table, errors = pocket_data
        cfg = ExploreConfig(min_support=0.1, tree_support=0.2)
        from_config = HDivExplorer(cfg).explore(table, errors)
        from_kwargs = HDivExplorer(min_support=0.1, tree_support=0.2).explore(
            table, errors
        )
        assert from_config.itemsets() == from_kwargs.itemsets()

    def test_bitset_backend_config(self, pocket_data):
        table, errors = pocket_data
        cfg = ExploreConfig(min_support=0.1, tree_support=0.2, backend="bitset")
        bit = HDivExplorer(cfg).explore(table, errors)
        ref = HDivExplorer(min_support=0.1, tree_support=0.2).explore(
            table, errors
        )
        assert bit.itemsets() == ref.itemsets()


class TestSerializationRoundTrip:
    def test_from_dict_inverts_to_dict(self):
        cfg = ExploreConfig(
            min_support=0.07, tree_support=0.2, criterion="entropy",
            polarity=True, max_length=3,
        )
        assert ExploreConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_applies_defaults(self):
        assert ExploreConfig.from_dict({}) == ExploreConfig()
        assert ExploreConfig.from_dict({"backend": "bitset"}).backend == "bitset"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ExploreConfig keys"):
            ExploreConfig.from_dict({"min_support": 0.1, "supportz": 0.2})

    def test_from_dict_rejects_runtime_fields(self):
        # The obs collector is runtime wiring, not serialized state:
        # it arrives via the keyword-only parameter, never the dict.
        with pytest.raises(ValueError, match="unknown ExploreConfig keys"):
            ExploreConfig.from_dict({"obs": None})

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            ExploreConfig.from_dict({"min_support": 0.0})


class TestFingerprint:
    def test_insertion_order_insensitive(self):
        cfg = ExploreConfig(min_support=0.1, backend="bitset")
        data = cfg.to_dict()
        shuffled = dict(reversed(list(data.items())))
        assert list(shuffled) != list(data)
        rebuilt = ExploreConfig.from_dict(shuffled)
        assert rebuilt.fingerprint() == cfg.fingerprint()

    def test_noop_replace_preserves_fingerprint(self):
        cfg = ExploreConfig(min_support=0.1, tree_support=0.2)
        assert cfg.replace().fingerprint() == cfg.fingerprint()
        assert cfg.replace(min_support=0.1).fingerprint() == cfg.fingerprint()

    def test_changed_field_changes_fingerprint(self):
        cfg = ExploreConfig()
        assert cfg.replace(min_support=0.2).fingerprint() != cfg.fingerprint()

    def test_subset_keys(self):
        a = ExploreConfig(min_support=0.1, polarity=False)
        b = ExploreConfig(min_support=0.1, polarity=True)
        assert a.fingerprint(keys=["min_support"]) == b.fingerprint(
            keys=["min_support"]
        )
        assert a.fingerprint() != b.fingerprint()

    def test_subset_keys_validated(self):
        with pytest.raises(ValueError, match="unknown fingerprint keys"):
            ExploreConfig().fingerprint(keys=["supportz"])

    def test_obs_does_not_leak_into_fingerprint(self):
        from repro.obs import ObsCollector

        with_obs = ExploreConfig(min_support=0.1, obs=ObsCollector())
        without = ExploreConfig(min_support=0.1)
        assert with_obs.fingerprint() == without.fingerprint()
