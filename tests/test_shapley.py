"""Tests for Shapley attribution of subgroup divergence."""

import numpy as np
import pytest

from repro.core.items import CategoricalItem, IntervalItem, Itemset
from repro.core.outcomes import array_outcome
from repro.core.shapley import (
    itemset_divergences,
    rank_items_by_contribution,
    shapley_values,
)
from repro.tabular import Table


@pytest.fixture
def driver_data(rng):
    """cat=b fully drives the outcome; x is pure noise."""
    n = 4000
    x = rng.uniform(0, 1, n)
    cat = rng.choice(["a", "b"], n)
    o = (cat == "b").astype(float)
    return Table({"x": x, "cat": cat}), o


class TestShapleyValues:
    def test_efficiency_axiom(self, driver_data):
        """Shapley values sum to the itemset's divergence."""
        table, o = driver_data
        itemset = Itemset(
            [CategoricalItem("cat", "b"), IntervalItem("x", high=0.5)]
        )
        phi = shapley_values(table, o, itemset)
        mask = itemset.mask(table)
        delta = o[mask].mean() - o.mean()
        assert sum(phi.values()) == pytest.approx(delta, abs=1e-9)

    def test_driver_item_dominates(self, driver_data):
        table, o = driver_data
        cat_item = CategoricalItem("cat", "b")
        noise_item = IntervalItem("x", high=0.5)
        phi = shapley_values(table, o, Itemset([cat_item, noise_item]))
        assert abs(phi[cat_item]) > 10 * abs(phi[noise_item])

    def test_single_item_gets_full_divergence(self, driver_data):
        table, o = driver_data
        item = CategoricalItem("cat", "b")
        phi = shapley_values(table, o, Itemset([item]))
        delta = o[item.mask(table)].mean() - o.mean()
        assert phi[item] == pytest.approx(delta)

    def test_symmetry_axiom(self, rng):
        """Interchangeable items receive equal Shapley values."""
        n = 2000
        a = rng.choice(["y", "n"], n)
        b = rng.choice(["y", "n"], n)
        o = ((a == "y") & (b == "y")).astype(float)
        table = Table({"a": a, "b": b})
        phi = shapley_values(
            table, o,
            Itemset([CategoricalItem("a", "y"), CategoricalItem("b", "y")]),
        )
        values = list(phi.values())
        assert values[0] == pytest.approx(values[1], abs=0.02)

    def test_outcome_object_accepted(self, driver_data):
        table, o = driver_data
        itemset = Itemset([CategoricalItem("cat", "b")])
        phi = shapley_values(
            table, array_outcome(o, boolean=True), itemset
        )
        assert len(phi) == 1

    def test_empty_itemset_rejected(self, driver_data):
        table, o = driver_data
        with pytest.raises(ValueError):
            shapley_values(table, o, Itemset())

    def test_three_items_efficiency(self, rng):
        n = 3000
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        cat = rng.choice(["a", "b"], n)
        o = ((x > 0.5) & (cat == "b")).astype(float)
        table = Table({"x": x, "y": y, "cat": cat})
        itemset = Itemset(
            [
                IntervalItem("x", low=0.5),
                IntervalItem("y", high=0.9),
                CategoricalItem("cat", "b"),
            ]
        )
        phi = shapley_values(table, o, itemset)
        mask = itemset.mask(table)
        delta = o[mask].mean() - o.mean()
        assert sum(phi.values()) == pytest.approx(delta, abs=1e-9)


class TestHelpers:
    def test_itemset_divergences_includes_empty(self, driver_data):
        table, o = driver_data
        itemset = Itemset([CategoricalItem("cat", "b")])
        divs = itemset_divergences(table, o, itemset)
        assert divs[frozenset()] == 0.0
        assert len(divs) == 2

    def test_empty_coalition_support_nan(self, driver_data):
        table, o = driver_data
        impossible = CategoricalItem("cat", "zz")
        divs = itemset_divergences(
            table, o, Itemset([impossible])
        )
        assert np.isnan(divs[frozenset({impossible})])

    def test_rank_items(self, driver_data):
        table, o = driver_data
        cat_item = CategoricalItem("cat", "b")
        noise_item = IntervalItem("x", high=0.5)
        ranked = rank_items_by_contribution(
            table, o, Itemset([cat_item, noise_item])
        )
        assert ranked[0][0] == cat_item
        assert abs(ranked[0][1]) >= abs(ranked[1][1])
