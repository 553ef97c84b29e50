"""Tests for MissingItem, missing-item universes, the retired Eclat
backend name, and the error-difference outcome."""

import numpy as np
import pytest

from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem, Itemset, MissingItem
from repro.core.mining import mine
from repro.core.outcomes import error_difference
from repro.core.serialize import item_from_dict, item_to_dict
from repro.tabular import ColumnKind, Schema, Table


class TestMissingItem:
    def test_mask_matches_missing(self):
        table = Table({"x": [1.0, None, 3.0], "c": ["a", "b", None]})
        assert list(MissingItem("x").mask(table)) == [False, True, False]
        assert list(MissingItem("c").mask(table)) == [False, False, True]

    def test_equality_and_str(self):
        assert MissingItem("x") == MissingItem("x")
        assert MissingItem("x") != MissingItem("y")
        assert str(MissingItem("x")) == "x=⊥"

    def test_covers_only_self(self):
        assert MissingItem("x").covers(MissingItem("x"))
        assert not MissingItem("x").covers(CategoricalItem("x", "a"))

    def test_serialization_roundtrip(self):
        item = MissingItem("income")
        assert item_from_dict(item_to_dict(item)) == item

    def test_itemset_with_missing_item(self):
        table = Table({"x": [1.0, None, None], "c": ["a", "a", "b"]})
        itemset = Itemset([MissingItem("x"), CategoricalItem("c", "a")])
        assert list(itemset.mask(table)) == [False, True, False]


class TestMissingUniverse:
    @pytest.fixture
    def dirty_data(self, rng):
        """Rows with missing x err much more often."""
        n = 2000
        x = rng.uniform(0, 1, n)
        missing = rng.uniform(size=n) < 0.2
        x[missing] = np.nan
        c = rng.choice(["a", "b"], n)
        o = (rng.uniform(size=n) < np.where(missing, 0.5, 0.05)).astype(float)
        return Table({"x": x, "c": c}), o, missing

    def test_explorer_finds_missingness_subgroup(self, dirty_data):
        table, o, _ = dirty_data
        result = HDivExplorer(
            min_support=0.05, tree_support=0.2, include_missing_items=True
        ).explore(table, o)
        best = result.top_k(1)[0]
        assert MissingItem("x") in best.itemset
        assert best.divergence > 0.2

    def test_without_flag_missingness_invisible(self, dirty_data):
        table, o, _ = dirty_data
        result = HDivExplorer(min_support=0.05, tree_support=0.2).explore(
            table, o
        )
        for r in result:
            assert MissingItem("x") not in r.itemset

    def test_base_explorer_missing_flag(self, dirty_data):
        """⊥ items are added for *covered* attributes only."""
        from repro.core.discretize import TreeDiscretizer

        table, o, _ = dirty_data
        trees = TreeDiscretizer(0.2).fit_all(table, o)
        result = DivExplorer(
            min_support=0.05, include_missing_items=True
        ).explore(
            table, o,
            continuous_items={a: t.leaf_items() for a, t in trees.items()},
        )
        found = [r for r in result if MissingItem("x") in r.itemset]
        assert found

    def test_base_explorer_uncovered_attribute_gets_no_missing_item(
        self, dirty_data
    ):
        table, o, _ = dirty_data
        result = DivExplorer(
            min_support=0.05, include_missing_items=True
        ).explore(table, o)  # x not covered (no continuous items)
        assert all(MissingItem("x") not in r.itemset for r in result)


def mine_retired(universe, min_support, backend, **kwargs):
    """``mine`` under a retired backend name, which must warn."""
    with pytest.warns(DeprecationWarning, match=f"{backend!r} is deprecated"):
        return mine(universe, min_support, backend, **kwargs)


def mine_eclat(universe, min_support, **kwargs):
    return mine_retired(universe, min_support, "eclat", **kwargs)


def mine_fpgrowth(universe, min_support, **kwargs):
    return mine_retired(universe, min_support, "fpgrowth", **kwargs)


class TestEclat:
    """The retired ``eclat`` name: one engine behind it until the
    deprecated ``backend`` parameter is removed."""

    def test_matches_fpgrowth_flat(self, pocket_data):
        from repro.core.discretize import TreeDiscretizer
        from repro.core.mining import base_universe

        table, errors = pocket_data
        trees = TreeDiscretizer(0.2).fit_all(table, errors)
        universe = base_universe(
            table, errors, {a: t.leaf_items() for a, t in trees.items()}
        )
        ec = {(m.ids, m.stats.count) for m in mine_eclat(universe, 0.1)}
        fp = {(m.ids, m.stats.count) for m in mine_fpgrowth(universe, 0.1)}
        assert ec == fp

    def test_matches_fpgrowth_generalized(self, pocket_data):
        from repro.core.discretize import TreeDiscretizer
        from repro.core.mining import generalized_universe

        table, errors = pocket_data
        gamma = TreeDiscretizer(0.2).hierarchy_set(table, errors)
        universe = generalized_universe(table, errors, gamma)
        ec = {(m.ids, m.stats.count) for m in mine_eclat(universe, 0.15)}
        fp = {(m.ids, m.stats.count) for m in mine_fpgrowth(universe, 0.15)}
        assert ec == fp

    def test_max_length(self, pocket_data):
        from repro.core.discretize import TreeDiscretizer
        from repro.core.mining import base_universe

        table, errors = pocket_data
        trees = TreeDiscretizer(0.25).fit_all(table, errors)
        universe = base_universe(
            table, errors, {a: t.leaf_items() for a, t in trees.items()}
        )
        mined = mine_eclat(universe, 0.1, max_length=2)
        assert max(len(m.ids) for m in mined) == 2

    def test_dispatch(self, pocket_data):
        from repro.core.mining import base_universe

        table, errors = pocket_data
        universe = base_universe(table, errors, {})
        assert {m.ids for m in mine_eclat(universe, 0.1)} == {
            m.ids for m in mine(universe, 0.1)
        }

    def test_explorer_backend(self, pocket_data):
        table, errors = pocket_data
        with pytest.warns(DeprecationWarning, match="'eclat' is deprecated"):
            explorer = HDivExplorer(
                min_support=0.1, tree_support=0.2, backend="eclat"
            )
        assert explorer.config.backend == "bitset"
        ec = explorer.explore(table, errors)
        default = HDivExplorer(min_support=0.1, tree_support=0.2).explore(
            table, errors
        )
        assert [str(r) for r in ec] == [str(r) for r in default]

    def test_invalid_support(self, pocket_data):
        from repro.core.mining import base_universe

        table, errors = pocket_data
        universe = base_universe(table, errors, {})
        with pytest.warns(DeprecationWarning), pytest.raises(ValueError):
            mine(universe, 0.0, "eclat")


class TestErrorDifference:
    def test_values(self):
        table = Table(
            {
                "y": ["1", "1", "0", "0"],
                "a": ["0", "1", "0", "1"],  # errs on rows 0, 3
                "b": ["1", "0", "1", "1"],  # errs on rows 1, 2, 3
            }
        )
        out = error_difference("y", "a", "b").values(table)
        assert list(out) == [1.0, -1.0, -1.0, 0.0]

    def test_explorer_finds_regression_subgroup(self, rng):
        """Model A regresses only on cat=b rows."""
        n = 2000
        cat = rng.choice(["a", "b"], n)
        y = rng.choice(["0", "1"], n)
        pred_b = y.copy()  # model B is perfect
        pred_a = y.copy()
        regress = (cat == "b") & (rng.uniform(size=n) < 0.4)
        pred_a[regress] = np.where(y[regress] == "1", "0", "1")
        table = Table({"cat": cat, "y": y, "a": pred_a, "b": pred_b})
        out = error_difference("y", "a", "b").values(table)
        result = DivExplorer(min_support=0.1).explore(
            table.project(["cat"]), out
        )
        best = result.top_k(1, by="divergence")[0]
        assert best.itemset == Itemset([CategoricalItem("cat", "b")])
