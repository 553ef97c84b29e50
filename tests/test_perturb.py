"""Tests for dataset perturbation utilities."""

import numpy as np
import pytest

from repro.core.items import CategoricalItem, IntervalItem, Itemset
from repro.datasets.perturb import (
    bootstrap,
    flip_categories,
    flip_subgroup_outcome,
    inject_missing,
    jitter_continuous,
    shift_subgroup_outcome,
)
from repro.tabular import Table


@pytest.fixture
def base_table(rng):
    return Table(
        {
            "x": rng.uniform(0, 1, 1000),
            "c": rng.choice(["a", "b", "c"], 1000),
        }
    )


class TestInjectMissing:
    def test_fraction_applied(self, base_table, rng):
        corrupted = inject_missing(base_table, 0.2, rng)
        x_missing = corrupted["x"].missing_mask().mean()
        c_missing = corrupted["c"].missing_mask().mean()
        assert x_missing == pytest.approx(0.2, abs=0.05)
        assert c_missing == pytest.approx(0.2, abs=0.05)

    def test_zero_fraction_noop(self, base_table, rng):
        assert inject_missing(base_table, 0.0, rng).equals(base_table)

    def test_column_selection(self, base_table, rng):
        corrupted = inject_missing(base_table, 0.5, rng, columns=["x"])
        assert corrupted["c"].missing_mask().sum() == 0
        assert corrupted["x"].missing_mask().sum() > 0

    def test_original_untouched(self, base_table, rng):
        inject_missing(base_table, 0.5, rng)
        assert base_table["x"].missing_mask().sum() == 0

    def test_invalid_fraction(self, base_table, rng):
        with pytest.raises(ValueError):
            inject_missing(base_table, 1.5, rng)


class TestFlipCategories:
    def test_some_values_change(self, base_table, rng):
        flipped = flip_categories(base_table, "c", 0.5, rng)
        before = base_table["c"].to_list()
        after = flipped["c"].to_list()
        changed = sum(a != b for a, b in zip(before, after))
        # Random replacement keeps ~1/3 unchanged by chance.
        assert changed > 200

    def test_domain_preserved(self, base_table, rng):
        flipped = flip_categories(base_table, "c", 0.9, rng)
        assert set(flipped["c"].to_list()) <= {"a", "b", "c"}

    def test_missing_rows_not_resurrected(self, rng):
        table = Table({"c": ["a", None, "b"]})
        flipped = flip_categories(table, "c", 1.0, rng)
        assert flipped["c"].to_list()[1] is None


class TestJitter:
    def test_noise_scale(self, base_table, rng):
        jittered = jitter_continuous(base_table, "x", 0.1, rng)
        diff = (
            jittered.continuous("x").values - base_table.continuous("x").values
        )
        sigma = np.std(base_table.continuous("x").values)
        assert np.std(diff) == pytest.approx(0.1 * sigma, rel=0.2)

    def test_zero_sigma_noop(self, base_table, rng):
        jittered = jitter_continuous(base_table, "x", 0.0, rng)
        np.testing.assert_array_equal(
            jittered.continuous("x").values, base_table.continuous("x").values
        )

    def test_nan_preserved(self, rng):
        table = Table({"x": [1.0, None, 3.0]})
        jittered = jitter_continuous(table, "x", 0.5, rng)
        assert jittered["x"].to_list()[1] is None


class TestBootstrap:
    def test_alignment(self, base_table, rng):
        outcomes = base_table.continuous("x").values.copy()
        sampled_table, sampled_outcomes = bootstrap(base_table, outcomes, rng)
        np.testing.assert_array_equal(
            sampled_table.continuous("x").values, sampled_outcomes
        )

    def test_custom_size(self, base_table, rng):
        t, o = bootstrap(base_table, np.ones(1000), rng, n_rows=100)
        assert t.n_rows == 100 and o.size == 100


class TestSubgroupShift:
    def test_shift_only_inside(self, base_table):
        outcomes = np.zeros(1000)
        itemset = Itemset([CategoricalItem("c", "a")])
        shifted = shift_subgroup_outcome(outcomes, base_table, itemset, 2.0)
        mask = itemset.mask(base_table)
        assert (shifted[mask] == 2.0).all()
        assert (shifted[~mask] == 0.0).all()

    def test_nan_untouched(self, base_table):
        outcomes = np.full(1000, np.nan)
        itemset = Itemset([CategoricalItem("c", "a")])
        shifted = shift_subgroup_outcome(outcomes, base_table, itemset, 2.0)
        assert np.isnan(shifted).all()

    def test_flip_plants_detectable_anomaly(self, base_table, rng):
        from repro.core.hexplorer import HDivExplorer

        outcomes = np.zeros(1000)
        pocket = Itemset(
            [IntervalItem("x", high=0.3), CategoricalItem("c", "b")]
        )
        planted = flip_subgroup_outcome(
            outcomes, base_table, pocket, 0.8, rng
        )
        result = HDivExplorer(min_support=0.05, tree_support=0.15).explore(
            base_table, planted
        )
        best = result.top_k(1)[0]
        assert best.divergence > 0.1
        attrs = best.itemset.attributes
        assert "x" in attrs or "c" in attrs

    def test_flip_probability_validated(self, base_table, rng):
        with pytest.raises(ValueError):
            flip_subgroup_outcome(
                np.zeros(1000), base_table, Itemset(), 1.5, rng
            )
