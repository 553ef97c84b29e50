"""Tests for the unified ExploreConfig construction surface.

Every explorer and baseline must construct from a single
:class:`ExploreConfig`; historical keyword arguments keep working, with
renamed spellings (``support=``, ``st=``, ``max_level=``) emitting a
DeprecationWarning.
"""

import dataclasses

import pytest

from repro.baselines import ErrorTree, SliceFinder, SliceLine
from repro.core.config import ExploreConfig, resolve_config
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer


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


class TestResolveConfig:
    def test_kwargs_override_config(self):
        kwargs = {"min_support": 0.3}
        cfg = resolve_config(ExploreConfig(min_support=0.1), kwargs)
        assert cfg.min_support == 0.3
        assert kwargs == {}  # consumed

    def test_number_positional_is_min_support(self):
        assert resolve_config(0.2, {}).min_support == 0.2

    def test_defaults_apply_without_config(self):
        cfg = resolve_config(None, {}, defaults={"min_support": 0.01})
        assert cfg.min_support == 0.01

    def test_legacy_alias_warns_and_maps(self):
        with pytest.warns(DeprecationWarning, match="'support' is deprecated"):
            cfg = resolve_config(None, {"support": 0.15})
        assert cfg.min_support == 0.15

    def test_canonical_beats_alias(self):
        with pytest.warns(DeprecationWarning):
            cfg = resolve_config(None, {"st": 0.5, "tree_support": 0.3})
        assert cfg.tree_support == 0.3

    def test_bad_config_type(self):
        with pytest.raises(TypeError):
            resolve_config("0.05", {})


class TestExplorerConstruction:
    def test_div_explorer_from_config(self):
        cfg = ExploreConfig(min_support=0.1, polarity=True, n_jobs=2)
        ex = DivExplorer(cfg)
        assert ex.config == cfg
        assert ex.min_support == 0.1
        assert not hasattr(ex, "backend")
        assert ex.polarity is True
        assert ex.n_jobs == 2

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

    def test_positional_min_support_silent(self, recwarn):
        ex = HDivExplorer(0.1, tree_support=0.2)
        assert ex.min_support == 0.1
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    @pytest.mark.parametrize(
        "ctor,legacy,canonical",
        [
            (HDivExplorer, {"support": 0.2}, ("min_support", 0.2)),
            (HDivExplorer, {"st": 0.3}, ("tree_support", 0.3)),
            (HDivExplorer, {"max_level": 2}, ("max_length", 2)),
            (DivExplorer, {"support": 0.2}, ("min_support", 0.2)),
        ],
    )
    def test_renamed_kwargs_warn(self, ctor, legacy, canonical):
        with pytest.warns(DeprecationWarning):
            ex = ctor(**legacy)
        name, value = canonical
        assert getattr(ex.config, name) == value

    def test_unknown_kwarg_raises(self):
        with pytest.raises(TypeError):
            HDivExplorer(min_supprt=0.1)
        with pytest.raises(TypeError):
            DivExplorer(tree_supportt=0.2)

    def test_config_and_kwargs_mix(self):
        ex = DivExplorer(ExploreConfig(min_support=0.1), polarity=True)
        assert ex.min_support == 0.1 and ex.polarity is True


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

    def test_sliceline_max_level_warns(self):
        with pytest.warns(DeprecationWarning):
            sl = SliceLine(max_level=2)
        assert sl.max_level == 2

    def test_slicefinder_from_config(self):
        sf = SliceFinder(ExploreConfig(max_length=1), k=3)
        assert sf.max_level == 1 and sf.k == 3

    def test_slicefinder_max_level_validation(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError):
                SliceFinder(max_level=0)

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
        legacy = HDivExplorer(0.1, tree_support=0.2).explore(table, errors)
        assert from_config.itemsets() == legacy.itemsets()

    def test_bitset_backend_config(self, pocket_data):
        table, errors = pocket_data
        cfg = ExploreConfig(min_support=0.1, tree_support=0.2, backend="bitset")
        bit = HDivExplorer(cfg).explore(table, errors)
        ref = HDivExplorer(0.1, tree_support=0.2).explore(table, errors)
        assert bit.itemsets() == ref.itemsets()


class TestSerializationRoundTrip:
    def test_from_dict_inverts_to_dict(self):
        cfg = ExploreConfig(
            min_support=0.07, tree_support=0.2, criterion="entropy",
            polarity=True, max_length=3, n_jobs=2,
        )
        assert ExploreConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_applies_defaults(self):
        assert ExploreConfig.from_dict({}) == ExploreConfig()
        assert ExploreConfig.from_dict({"backend": "bitset"}).backend == "bitset"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ExploreConfig keys"):
            ExploreConfig.from_dict({"min_support": 0.1, "supportz": 0.2})

    def test_from_dict_rejects_runtime_fields(self):
        # obs/profile_memory are runtime wiring, not serialized state:
        # they arrive via the keyword-only parameters, never the dict.
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
