"""Edge-case and failure-injection tests across the pipeline."""

import math

import numpy as np
import pytest

from repro.core.discretize import TreeDiscretizer
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem, IntervalItem, Itemset
from repro.core.mining import EncodedUniverse, mine
from repro.core.outcomes import array_outcome
from repro.tabular import ColumnKind, Schema, Table


class TestDegenerateData:
    def test_all_nan_outcome_explores_without_divergence(self, rng):
        table = Table({"x": rng.uniform(0, 1, 100)})
        outcomes = np.full(100, np.nan)
        result = HDivExplorer(min_support=0.2, tree_support=0.3).explore(
            table, outcomes
        )
        assert all(math.isnan(r.divergence) for r in result)
        assert result.max_divergence() == 0.0  # NaNs never rank

    def test_constant_outcome_zero_divergence(self, rng):
        table = Table({"x": rng.uniform(0, 1, 100)})
        result = HDivExplorer(min_support=0.2, tree_support=0.3).explore(
            table, np.ones(100)
        )
        assert all(r.divergence == pytest.approx(0.0) for r in result)

    def test_single_row_table(self):
        table = Table({"x": [1.0], "c": ["a"]})
        result = HDivExplorer(min_support=0.5, tree_support=0.5).explore(
            table, np.array([1.0])
        )
        assert len(result) >= 1

    def test_attribute_entirely_nan(self, rng):
        n = 200
        schema = Schema.from_kinds({"x": ColumnKind.CONTINUOUS})
        table = Table(
            {"x": [None] * n, "c": rng.choice(["a", "b"], n)},
            schema=schema,
        )
        o = (np.asarray(table["c"].to_list()) == "a").astype(float)
        result = HDivExplorer(min_support=0.1, tree_support=0.2).explore(
            table, o
        )
        # The NaN attribute contributes no items; cat still explored.
        assert all(
            item.attribute == "c" for r in result for item in r.itemset
        )

    def test_two_distinct_values_split_once(self):
        table = Table({"x": [0.0] * 50 + [1.0] * 50})
        o = np.array([0.0] * 50 + [1.0] * 50)
        tree = TreeDiscretizer(0.2).fit(table, "x", o)
        assert len(tree.leaf_items()) == 2
        assert tree.root.split_value == 0.0

    def test_missing_categorical_rows_never_match(self, rng):
        values = ["a", None, "b", None, "a"]
        table = Table({"c": values})
        o = np.ones(5)
        result = DivExplorer(min_support=0.2).explore(table, o)
        for r in result:
            assert r.count <= 3  # the two missing rows match nothing

    def test_extreme_outcome_magnitudes(self, rng):
        table = Table({"x": rng.uniform(0, 1, 200)})
        o = rng.normal(0, 1, 200) * 1e12
        result = HDivExplorer(min_support=0.2, tree_support=0.3).explore(
            table, o
        )
        assert np.isfinite(result.global_mean)

    def test_support_one_returns_universal_items_only(self, rng):
        table = Table({"c": ["a"] * 100})
        result = DivExplorer(min_support=1.0).explore(table, np.ones(100))
        assert len(result) == 1
        assert result[0].support == 1.0


class TestAdversarialItems:
    def test_item_mask_on_table_missing_categories(self):
        table = Table({"c": ["x", "y"]})
        item = CategoricalItem("c", "never-seen")
        assert not item.mask(table).any()

    def test_itemset_mask_on_empty_support_items(self):
        table = Table({"c": ["x", "y"], "v": [1.0, 2.0]})
        itemset = Itemset(
            [CategoricalItem("c", "zz"), IntervalItem("v", 0, 10)]
        )
        assert not itemset.mask(table).any()
        assert itemset.support(table) == 0.0

    def test_mining_with_empty_support_item(self):
        table = Table({"c": ["x"] * 50})
        items = [CategoricalItem("c", "x"), CategoricalItem("c", "absent")]
        universe = EncodedUniverse.from_table(table, items, np.ones(50))
        mined = mine(universe, 0.1)
        assert {m.ids for m in mined} == {frozenset({0})}

    def test_duplicate_items_in_universe(self):
        """The same item twice: same-attribute rule keeps them apart."""
        table = Table({"c": ["x"] * 20 + ["y"] * 20})
        item = CategoricalItem("c", "x")
        universe = EncodedUniverse.from_table(
            table, [item, item], np.ones(40)
        )
        mined = mine(universe, 0.1)
        # Two singleton itemsets (ids 0 and 1), never combined.
        assert all(len(m.ids) == 1 for m in mined)


class TestOutcomeBoundaries:
    def test_boolean_outcome_all_bottom(self):
        table = Table({"c": ["a", "b"]})
        out = array_outcome(np.array([np.nan, np.nan]), boolean=True)
        values = out.values(table)
        assert np.isnan(values).all()

    def test_explorer_with_negative_numeric_outcomes(self, rng):
        table = Table({"x": rng.uniform(0, 1, 300)})
        o = np.where(table.continuous("x").values > 0.5, -100.0, 100.0)
        result = HDivExplorer(min_support=0.2, tree_support=0.3).explore(
            table, o
        )
        assert result.max_divergence() > 50

    def test_welch_t_large_subgroup_equals_dataset(self, rng):
        """A subgroup = whole dataset has Δ = 0 and t = 0."""
        table = Table({"c": ["a"] * 100})
        o = rng.normal(size=100)
        result = DivExplorer(min_support=0.5).explore(table, o)
        full = result.find(Itemset([CategoricalItem("c", "a")]))
        assert full.divergence == pytest.approx(0.0)
        assert full.t == pytest.approx(0.0)
