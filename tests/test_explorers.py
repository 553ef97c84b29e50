"""Integration tests for DivExplorer and HDivExplorer."""

import numpy as np
import pytest

from repro.core.discretize import TreeDiscretizer
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem, IntervalItem, Itemset
from repro.tabular import Table


@pytest.fixture
def leaf_items(pocket_data):
    table, errors = pocket_data
    trees = TreeDiscretizer(0.1).fit_all(table, errors)
    return {a: t.leaf_items() for a, t in trees.items()}


class TestDivExplorer:
    def test_finds_the_pocket_direction(self, pocket_data, leaf_items):
        table, errors = pocket_data
        result = DivExplorer(0.05).explore(
            table, errors, continuous_items=leaf_items
        )
        best = result.top_k(1)[0]
        assert best.divergence > 0.1
        # The pocket involves x and cat=b.
        assert "cat" in best.itemset.attributes or "x" in best.itemset.attributes

    def test_all_supports_above_threshold(self, pocket_data, leaf_items):
        table, errors = pocket_data
        s = 0.1
        result = DivExplorer(s).explore(
            table, errors, continuous_items=leaf_items
        )
        assert all(r.support >= s for r in result)
        assert all(r.support <= 1.0 for r in result)

    def test_result_counts_match_direct_masks(self, pocket_data, leaf_items):
        table, errors = pocket_data
        result = DivExplorer(0.2).explore(
            table, errors, continuous_items=leaf_items
        )
        for r in list(result)[:20]:
            assert r.count == int(r.itemset.mask(table).sum())

    def test_divergences_match_direct_computation(self, pocket_data, leaf_items):
        table, errors = pocket_data
        result = DivExplorer(0.2).explore(
            table, errors, continuous_items=leaf_items
        )
        global_mean = np.nanmean(errors)
        for r in list(result)[:20]:
            mask = r.itemset.mask(table)
            assert r.divergence == pytest.approx(
                np.nanmean(errors[mask]) - global_mean
            )

    def test_categorical_only(self, pocket_data):
        table, errors = pocket_data
        result = DivExplorer(0.05).explore(table, errors)
        assert all(
            item.attribute == "cat" for r in result for item in r.itemset
        )

    def test_extra_items(self, pocket_data):
        table, errors = pocket_data
        custom = IntervalItem("x", 0, 2)
        result = DivExplorer(0.05).explore(
            table, errors, categorical_attributes=[], extra_items=[custom]
        )
        assert result.find(Itemset([custom])) is not None

    def test_elapsed_recorded(self, pocket_data, leaf_items):
        table, errors = pocket_data
        result = DivExplorer(0.1).explore(
            table, errors, continuous_items=leaf_items
        )
        assert result.elapsed_seconds > 0

    def test_polarity_option_subset(self, pocket_data, leaf_items):
        table, errors = pocket_data
        full = DivExplorer(0.05).explore(
            table, errors, continuous_items=leaf_items
        )
        pruned = DivExplorer(0.05, polarity=True).explore(
            table, errors, continuous_items=leaf_items
        )
        assert pruned.itemsets() <= full.itemsets()

    def test_invalid_support(self):
        with pytest.raises(ValueError):
            DivExplorer(0.0)


class TestHDivExplorer:
    def test_superset_of_base(self, pocket_data, leaf_items):
        """The paper's guarantee: hierarchical results ⊇ base results."""
        table, errors = pocket_data
        s = 0.05
        base = DivExplorer(s).explore(
            table, errors, continuous_items=leaf_items
        )
        hier = HDivExplorer(s, tree_support=0.1).explore(table, errors)
        assert base.itemsets() <= hier.itemsets()
        assert hier.max_divergence() >= base.max_divergence() - 1e-12

    def test_pocket_found_with_higher_divergence(self, pocket_data):
        table, errors = pocket_data
        hier = HDivExplorer(0.05, tree_support=0.1).explore(table, errors)
        best = hier.top_k(1)[0]
        assert best.divergence > 0.15

    def test_last_hierarchies_populated(self, pocket_data):
        table, errors = pocket_data
        explorer = HDivExplorer(0.1)
        explorer.explore(table, errors)
        gamma = explorer.last_hierarchies_
        assert "x" in gamma and "y" in gamma
        gamma.validate(table)
        assert explorer.last_discretization_seconds_ >= 0

    def test_discretization_seconds_set_without_discretization(
        self, pocket_data
    ):
        """Regression: the timing attribute must be set by ``explore``
        even when every attribute comes with a predefined hierarchy and
        the tree discretizer never runs."""
        table, errors = pocket_data
        from repro.core.hierarchy import ItemHierarchy

        hierarchies = []
        for attr in ("x", "y"):
            root = IntervalItem(attr)
            hierarchies.append(
                ItemHierarchy(
                    attr, root,
                    {root: (IntervalItem(attr, high=0),
                            IntervalItem(attr, low=0))},
                )
            )
        explorer = HDivExplorer(0.1)
        explorer.last_discretization_seconds_ = None  # sentinel
        explorer.explore(table, errors, hierarchies=hierarchies)
        # No attribute was discretized...
        assert set(explorer.last_hierarchies_.attributes) == {"x", "y"}
        # ...yet the timing attribute was still refreshed.
        assert explorer.last_discretization_seconds_ is not None
        assert explorer.last_discretization_seconds_ >= 0.0

    def test_predefined_hierarchy_respected(self, pocket_data):
        table, errors = pocket_data
        from repro.core.hierarchy import ItemHierarchy

        root = IntervalItem("x")
        custom = ItemHierarchy(
            "x", root,
            {root: (IntervalItem("x", high=0), IntervalItem("x", low=0))},
        )
        explorer = HDivExplorer(0.05)
        result = explorer.explore(table, errors, hierarchies=[custom])
        # x items in results come only from the custom hierarchy.
        x_items = {
            item
            for r in result
            for item in r.itemset
            if item.attribute == "x"
        }
        assert x_items <= {IntervalItem("x", high=0), IntervalItem("x", low=0)}

    def test_continuous_attribute_selection(self, pocket_data):
        table, errors = pocket_data
        explorer = HDivExplorer(0.05)
        result = explorer.explore(
            table, errors, continuous_attributes=["x"]
        )
        assert "y" not in explorer.last_hierarchies_
        assert all(
            item.attribute != "y" for r in result for item in r.itemset
        )

    def test_categorical_attribute_selection(self, pocket_data):
        table, errors = pocket_data
        result = HDivExplorer(0.05).explore(
            table, errors, categorical_attributes=[]
        )
        assert all(
            item.attribute != "cat" for r in result for item in r.itemset
        )

    def test_polarity_preserves_pocket(self, pocket_data):
        table, errors = pocket_data
        full = HDivExplorer(0.05).explore(table, errors)
        pruned = HDivExplorer(0.05, polarity=True).explore(table, errors)
        assert pruned.max_divergence() == pytest.approx(
            full.max_divergence()
        )

    def test_backends_equivalent(self, pocket_data):
        # The retired backend names warn and run the one engine.
        table, errors = pocket_data
        with pytest.warns(DeprecationWarning):
            fp = HDivExplorer(0.1, backend="fpgrowth").explore(table, errors)
        with pytest.warns(DeprecationWarning):
            ap = HDivExplorer(0.1, backend="apriori").explore(table, errors)
        default = HDivExplorer(0.1).explore(table, errors)
        assert fp.itemsets() == ap.itemsets() == default.itemsets()

    def test_max_length(self, pocket_data):
        table, errors = pocket_data
        result = HDivExplorer(0.05, max_length=1).explore(table, errors)
        assert all(r.length == 1 for r in result)

    def test_entropy_criterion(self, pocket_data):
        table, errors = pocket_data
        result = HDivExplorer(0.05, criterion="entropy").explore(table, errors)
        assert result.max_divergence() > 0.1

    def test_invalid_support(self):
        with pytest.raises(ValueError):
            HDivExplorer(min_support=2.0)
