"""Tests for the combined-tree discretizer (the paper's alternative)."""

import math

import numpy as np
import pytest

from repro.core.discretize import CombinedTreeDiscretizer
from repro.core.outcomes import array_outcome, numeric_outcome
from repro.tabular import Table


@pytest.fixture
def interaction_data(rng):
    """Errors only where BOTH x>0 and y>0 — an attribute interaction."""
    n = 3000
    x = rng.uniform(-1, 1, n)
    y = rng.uniform(-1, 1, n)
    o = ((x > 0) & (y > 0)).astype(float)
    return Table({"x": x, "y": y}), o


class TestFit:
    def test_captures_interaction(self, interaction_data):
        table, o = interaction_data
        disc = CombinedTreeDiscretizer(min_support=0.1)
        root = disc.fit(table, o)
        # Both attributes get split somewhere in the tree.
        split_attrs = {
            node.split_attribute for node in root.walk() if not node.is_leaf
        }
        assert split_attrs == {"x", "y"}

    def test_leaves_partition_dataset(self, interaction_data):
        table, o = interaction_data
        disc = CombinedTreeDiscretizer(min_support=0.1)
        root = disc.fit(table, o)
        total = np.zeros(table.n_rows, dtype=int)
        for itemset in disc.leaf_subgroups(root):
            total += itemset.mask(table).astype(int)
        assert (total == 1).all()

    def test_support_constraint(self, interaction_data):
        table, o = interaction_data
        st = 0.15
        disc = CombinedTreeDiscretizer(min_support=st)
        root = disc.fit(table, o)
        min_count = math.ceil(st * table.n_rows)
        for node in root.walk():
            if node is not root:
                assert node.stats.count >= min_count

    def test_pure_leaf_found(self, interaction_data):
        table, o = interaction_data
        disc = CombinedTreeDiscretizer(min_support=0.1)
        root = disc.fit(table, o)
        best = max(
            (n for n in root.walk() if n.is_leaf),
            key=lambda n: n.stats.mean,
        )
        # The pure-error quadrant is isolated (~25% support, mean ≈ 1).
        assert best.stats.mean > 0.9

    def test_max_depth(self, interaction_data):
        table, o = interaction_data
        disc = CombinedTreeDiscretizer(min_support=0.01, max_depth=1)
        root = disc.fit(table, o)
        for node in root.walk():
            if not node.is_leaf:
                assert all(child.is_leaf for child in node.children)

    def test_granularity_uncontrolled_per_attribute(self, rng):
        """The paper's criticism: one attribute may never be split."""
        n = 2000
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)  # irrelevant to the outcome
        o = (x > 0.5).astype(float)
        table = Table({"x": x, "y": y})
        root = CombinedTreeDiscretizer(min_support=0.25).fit(table, o)
        split_attrs = {
            node.split_attribute for node in root.walk() if not node.is_leaf
        }
        assert "y" not in split_attrs

    def test_nan_rows_excluded(self, interaction_data):
        table, o = interaction_data
        x = table.continuous("x").values.copy()
        x[:200] = np.nan
        table2 = Table({"x": x, "y": table.continuous("y").values})
        root = CombinedTreeDiscretizer(min_support=0.1).fit(table2, o)
        assert root.stats.count == table.n_rows - 200

    def test_outcome_object(self, interaction_data):
        table, o = interaction_data
        disc = CombinedTreeDiscretizer(min_support=0.2)
        root = disc.fit(table, array_outcome(o, boolean=True))
        assert not root.is_leaf

    def test_attribute_selection(self, interaction_data):
        table, o = interaction_data
        root = CombinedTreeDiscretizer(min_support=0.1).fit(
            table, o, attributes=["x"]
        )
        split_attrs = {
            node.split_attribute for node in root.walk() if not node.is_leaf
        }
        assert split_attrs <= {"x"}

    def test_no_attributes_rejected(self, interaction_data):
        table, o = interaction_data
        with pytest.raises(ValueError):
            CombinedTreeDiscretizer().fit(table, o, attributes=[])

    def test_invalid_support(self):
        with pytest.raises(ValueError):
            CombinedTreeDiscretizer(min_support=0.0)

    @pytest.mark.parametrize("max_candidates", [0, -3])
    def test_invalid_max_candidates(self, max_candidates):
        with pytest.raises(ValueError, match="max_candidates must be positive"):
            CombinedTreeDiscretizer(max_candidates=max_candidates)

    @pytest.mark.parametrize("form", ["array", "outcome"])
    def test_entropy_rejects_numeric_outcome(self, interaction_data, rng, form):
        table, _ = interaction_data
        income = rng.lognormal(3.0, 1.0, table.n_rows)
        table = table.with_values("income", income.tolist())
        outcome = income if form == "array" else numeric_outcome("income")
        disc = CombinedTreeDiscretizer(criterion="entropy")
        with pytest.raises(ValueError, match="entropy"):
            disc.fit(table, outcome, attributes=["x", "y"])

    def test_entropy_accepts_boolean_array_with_nan(self, interaction_data, rng):
        table, o = interaction_data
        o = o.copy()
        o[rng.uniform(size=o.size) < 0.2] = np.nan
        root = CombinedTreeDiscretizer(0.1, criterion="entropy").fit(table, o)
        assert {root.split_attribute} <= {"x", "y"}
        assert not root.is_leaf

    def test_itemset_rendering(self, interaction_data):
        table, o = interaction_data
        disc = CombinedTreeDiscretizer(min_support=0.2)
        root = disc.fit(table, o)
        leaf = next(n for n in root.walk() if n.is_leaf)
        assert len(leaf.itemset()) >= 1
