"""Unit tests for the tree discretizer."""

import math

import numpy as np
import pytest

from repro.core.discretize import TreeDiscretizer
from repro.core.outcomes import array_outcome, numeric_outcome
from repro.tabular import Table


@pytest.fixture
def step_data(rng):
    """x uniform in [0, 10); outcome is 1 exactly when x > 7."""
    n = 2000
    x = rng.uniform(0, 10, n)
    o = (x > 7).astype(float)
    return Table({"x": x}), o


class TestFit:
    def test_finds_the_step(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.1, criterion="divergence").fit(table, "x", o)
        assert tree.root.split_value == pytest.approx(7.0, abs=0.1)

    def test_entropy_also_finds_the_step(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.1, criterion="entropy").fit(table, "x", o)
        assert tree.root.split_value == pytest.approx(7.0, abs=0.1)

    def test_support_constraint_holds_everywhere(self, step_data):
        table, o = step_data
        st = 0.15
        tree = TreeDiscretizer(st).fit(table, "x", o)
        for node in tree.nodes():
            assert node.stats.count >= math.ceil(st * table.n_rows)

    def test_leaves_partition_rows(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.1).fit(table, "x", o)
        total = np.zeros(table.n_rows, dtype=int)
        for item in tree.leaf_items():
            total += item.mask(table).astype(int)
        assert (total == 1).all()

    def test_children_partition_parent(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.1).fit(table, "x", o)
        for node in tree.nodes():
            if node.children:
                left, right = node.children
                assert (
                    left.stats.count + right.stats.count == node.stats.count
                )

    def test_max_depth(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.01, max_depth=2).fit(table, "x", o)
        assert tree.depth() <= 2

    def test_min_gain_stops_splitting(self, rng):
        # Constant outcome: divergence gain is always zero.
        table = Table({"x": rng.uniform(0, 1, 500)})
        o = np.ones(500)
        tree = TreeDiscretizer(0.1, min_gain=1e-9).fit(table, "x", o)
        assert tree.root.is_leaf

    def test_zero_gain_still_splits_by_default(self, rng):
        # Paper behaviour: support is the only stopping criterion.
        table = Table({"x": rng.uniform(0, 1, 500)})
        o = np.ones(500)
        tree = TreeDiscretizer(0.2).fit(table, "x", o)
        assert not tree.root.is_leaf

    def test_nan_attribute_rows_excluded(self, rng):
        x = rng.uniform(0, 10, 1000)
        x[:100] = np.nan
        o = (x > 5).astype(float)
        table = Table({"x": x})
        tree = TreeDiscretizer(0.1).fit(table, "x", o)
        assert tree.root.stats.count == 900

    def test_nan_outcomes_excluded_from_stats_not_support(self, rng):
        x = rng.uniform(0, 10, 1000)
        o = np.full(1000, np.nan)
        o[:500] = (x[:500] > 5).astype(float)
        table = Table({"x": x})
        tree = TreeDiscretizer(0.1).fit(table, "x", o)
        assert tree.root.stats.count == 1000
        assert tree.root.stats.n == 500

    def test_constant_attribute_single_leaf(self):
        table = Table({"x": [3.0] * 100})
        tree = TreeDiscretizer(0.1).fit(table, "x", np.ones(100))
        assert tree.root.is_leaf
        assert len(tree.leaf_items()) == 1

    def test_max_candidates_cap_still_splits(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.1, max_candidates=2).fit(table, "x", o)
        assert not tree.root.is_leaf

    def test_support_too_large_single_leaf(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.7).fit(table, "x", o)
        assert tree.root.is_leaf

    def test_entropy_rejects_numeric_outcome(self, step_data):
        table, _ = step_data
        table = table.with_values("income", list(range(table.n_rows)))
        disc = TreeDiscretizer(0.1, criterion="entropy")
        with pytest.raises(ValueError, match="entropy"):
            disc.fit(table, "x", numeric_outcome("income"))

    @pytest.mark.parametrize("entry", ["fit", "fit_all", "hierarchy_set"])
    def test_entropy_rejects_numeric_array(self, step_data, rng, entry):
        table, _ = step_data
        income = rng.lognormal(3.0, 1.0, table.n_rows)
        disc = TreeDiscretizer(0.1, criterion="entropy")
        args = (table, "x", income) if entry == "fit" else (table, income)
        with pytest.raises(ValueError, match="entropy"):
            getattr(disc, entry)(*args)

    def test_entropy_accepts_boolean_array_with_nan(self, step_data, rng):
        table, o = step_data
        o = o.copy()
        o[rng.uniform(size=o.size) < 0.2] = np.nan
        tree = TreeDiscretizer(0.1, criterion="entropy").fit(table, "x", o)
        assert tree.root.split_value == pytest.approx(7.0, abs=0.3)

    def test_divergence_accepts_numeric_outcome(self, rng):
        x = rng.uniform(0, 10, 500)
        income = np.where(x > 5, 100.0, 10.0) + rng.normal(0, 1, 500)
        table = Table({"x": x, "income": income})
        tree = TreeDiscretizer(0.1).fit(table, "x", numeric_outcome("income"))
        assert tree.root.split_value == pytest.approx(5.0, abs=0.3)

    def test_outcome_object_accepted(self, step_data):
        table, o = step_data
        outcome = array_outcome(o, boolean=True)
        tree = TreeDiscretizer(0.1).fit(table, "x", outcome)
        assert not tree.root.is_leaf

    def test_bad_support_rejected(self):
        with pytest.raises(ValueError):
            TreeDiscretizer(0.0)
        with pytest.raises(ValueError):
            TreeDiscretizer(1.5)

    def test_bad_candidates_rejected(self):
        with pytest.raises(ValueError):
            TreeDiscretizer(0.1, max_candidates=0)

    def test_outcome_length_checked(self, step_data):
        table, _ = step_data
        with pytest.raises(ValueError, match="length"):
            TreeDiscretizer(0.1).fit(table, "x", np.ones(3))


class TestHierarchyConversion:
    def test_to_hierarchy_validates(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.1).fit(table, "x", o)
        hierarchy = tree.to_hierarchy()
        hierarchy.validate(table)  # Definition 4.1 partition property

    def test_items_exclude_root_by_default(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.1).fit(table, "x", o)
        items = tree.items()
        assert tree.root.item not in items
        assert tree.root.item in tree.items(include_root=True)

    def test_leaf_items_subset_of_items(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.1).fit(table, "x", o)
        assert set(tree.leaf_items()) <= set(tree.items(include_root=True))

    def test_render_contains_support(self, step_data):
        table, o = step_data
        tree = TreeDiscretizer(0.2).fit(table, "x", o)
        assert "sup=1.00" in tree.render()


class TestFitAll:
    def test_fits_every_continuous_attribute(self, pocket_data):
        table, errors = pocket_data
        trees = TreeDiscretizer(0.1).fit_all(table, errors)
        assert set(trees) == {"x", "y"}

    def test_attribute_subset(self, pocket_data):
        table, errors = pocket_data
        trees = TreeDiscretizer(0.1).fit_all(table, errors, attributes=["x"])
        assert set(trees) == {"x"}

    def test_hierarchy_set(self, pocket_data):
        table, errors = pocket_data
        gamma = TreeDiscretizer(0.1).hierarchy_set(table, errors)
        assert "x" in gamma and "y" in gamma
        gamma.validate(table)
