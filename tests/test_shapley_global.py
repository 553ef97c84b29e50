"""Tests for global Shapley values and corrective items."""

import numpy as np
import pytest

from repro.core.explorer import DivExplorer
from repro.core.items import CategoricalItem, Itemset
from repro.core.shapley import corrective_items, global_shapley_values
from repro.tabular import Table


@pytest.fixture
def explored(rng):
    """cat=b drives the outcome up; fix=z pulls subgroups back to the
    mean (a corrective item); noise attr is irrelevant."""
    n = 5000
    cat = rng.choice(["a", "b"], n)
    fix = rng.choice(["z", "w"], n)
    noise = rng.choice(["u", "v"], n)
    p = np.where(cat == "b", 0.6, 0.1)
    p = np.where(fix == "z", 0.35, p)  # z flattens everything to ~mean
    o = (rng.uniform(size=n) < p).astype(float)
    table = Table({"cat": cat, "fix": fix, "noise": noise})
    result = DivExplorer(min_support=0.05).explore(table, o)
    return table, o, result


class TestGlobalShapley:
    def test_driver_item_ranks_first(self, explored):
        _table, _o, result = explored
        phi = global_shapley_values(result)
        best = max(phi.items(), key=lambda kv: kv[1])
        assert best[0] == CategoricalItem("cat", "b")

    def test_noise_items_near_zero(self, explored):
        _table, _o, result = explored
        phi = global_shapley_values(result)
        driver = phi[CategoricalItem("cat", "b")]
        for value in ("u", "v"):
            assert abs(phi[CategoricalItem("noise", value)]) < 0.2 * driver

    def test_singletons_equal_item_divergence(self, explored):
        """With only singleton results, global value = item divergence."""
        _table, _o, result = explored
        singles = result.filtered(lambda r: r.length == 1)
        phi = global_shapley_values(singles)
        for r in singles:
            (item,) = r.itemset
            assert phi[item] == pytest.approx(r.divergence)

    def test_empty_results(self):
        from repro.core.divergence import OutcomeStats
        from repro.core.results import ResultSet

        assert global_shapley_values(ResultSet([], OutcomeStats.empty())) == {}


class TestCorrectiveItems:
    def test_flattening_item_is_corrective(self, explored):
        _table, _o, result = explored
        target = Itemset([CategoricalItem("cat", "b")])
        corrections = corrective_items(result, target)
        assert corrections, "expected at least one corrective item"
        top_item, top_gain = corrections[0]
        assert top_item == CategoricalItem("fix", "z")
        assert top_gain > 0.05

    def test_amplifying_items_excluded(self, explored):
        _table, _o, result = explored
        target = Itemset([CategoricalItem("fix", "w")])
        corrections = dict(corrective_items(result, target))
        # cat=b amplifies divergence on top of fix=w; not corrective.
        assert CategoricalItem("cat", "b") not in corrections

    def test_unexplored_itemset_raises(self, explored):
        _table, _o, result = explored
        with pytest.raises(KeyError):
            corrective_items(
                result, Itemset([CategoricalItem("cat", "nope")])
            )

    def test_corrections_sorted_descending(self, explored):
        _table, _o, result = explored
        target = Itemset([CategoricalItem("cat", "b")])
        gains = [g for _item, g in corrective_items(result, target)]
        assert gains == sorted(gains, reverse=True)
