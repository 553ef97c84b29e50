"""Tests for JSON serialization of items and results."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.items import CategoricalItem, IntervalItem, Itemset
from repro.core.serialize import (
    item_from_dict,
    item_to_dict,
    itemset_from_list,
    itemset_to_list,
    load_results,
    results_from_dict,
    save_results,
)


class TestItemRoundtrip:
    def test_categorical_single(self):
        item = CategoricalItem("c", "a")
        assert item_from_dict(item_to_dict(item)) == item

    def test_categorical_multi_with_label(self):
        item = CategoricalItem("c", {"a", "b"}, label="AB")
        back = item_from_dict(item_to_dict(item))
        assert back == item
        assert back.label == "AB"

    def test_interval_bounded(self):
        item = IntervalItem("x", 1.5, 2.5, closed_low=True)
        assert item_from_dict(item_to_dict(item)) == item

    def test_interval_infinite_bounds(self):
        item = IntervalItem("x", low=3.0)
        encoded = item_to_dict(item)
        json.dumps(encoded)  # stays valid JSON despite inf
        assert item_from_dict(encoded) == item

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            item_from_dict({"kind": "mystery"})

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            item_to_dict(object())  # type: ignore[arg-type]

    @settings(max_examples=50, deadline=None)
    @given(
        low=st.one_of(st.just(-math.inf), st.floats(-1e6, 0, allow_nan=False)),
        high=st.one_of(st.just(math.inf), st.floats(1, 1e6, allow_nan=False)),
        cl=st.booleans(),
        ch=st.booleans(),
    )
    def test_interval_property_roundtrip(self, low, high, cl, ch):
        item = IntervalItem("x", low, high, cl, ch)
        encoded = json.loads(json.dumps(item_to_dict(item)))
        assert item_from_dict(encoded) == item


class TestItemsetRoundtrip:
    def test_mixed(self):
        itemset = Itemset(
            [CategoricalItem("c", "a"), IntervalItem("x", 0, 1)]
        )
        assert itemset_from_list(itemset_to_list(itemset)) == itemset

    def test_empty(self):
        assert itemset_from_list(itemset_to_list(Itemset())) == Itemset()


class TestResultsRoundtrip:
    @pytest.fixture
    def explored(self, pocket_data):
        from repro.core.hexplorer import HDivExplorer

        table, errors = pocket_data
        return HDivExplorer(min_support=0.1, tree_support=0.2).explore(
            table, errors
        )

    def test_file_roundtrip(self, explored, tmp_path):
        path = tmp_path / "results.json"
        save_results(explored, path)
        back = load_results(path)
        assert len(back) == len(explored)
        assert back.global_mean == pytest.approx(explored.global_mean)
        assert back.itemsets() == explored.itemsets()
        a = explored.top_k(3)
        b = back.top_k(3)
        for ra, rb in zip(a, b):
            assert ra.itemset == rb.itemset
            assert ra.divergence == pytest.approx(rb.divergence)
            assert ra.count == rb.count

    def test_file_is_plain_json(self, explored, tmp_path):
        path = tmp_path / "results.json"
        save_results(explored, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro.results.v1"

    def test_nan_t_survives(self, explored, tmp_path):
        import numpy as np

        from repro.core.divergence import OutcomeStats
        from repro.core.results import ResultSet, SubgroupResult

        r = SubgroupResult(
            Itemset([CategoricalItem("c", "x")]), 0.5, 10, float("nan"),
            float("nan"), float("nan"),
        )
        rs = ResultSet([r], OutcomeStats.from_outcomes(np.ones(10)), 1.0)
        path = tmp_path / "nan.json"
        save_results(rs, path)
        back = load_results(path)
        assert math.isnan(back[0].t)
        assert math.isnan(back[0].divergence)

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError):
            results_from_dict({"format": "v999"})


@settings(max_examples=30, deadline=None)
@given(
    labels=st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("L", "N")),
            min_size=1, max_size=8,
        ),
        min_size=1, max_size=4, unique=True,
    ),
    values=st.lists(
        st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=4
    ),
)
def test_property_mixed_itemset_roundtrip(labels, values):
    """Arbitrary categorical+interval itemsets survive JSON."""
    items = [CategoricalItem("c", set(labels))]
    for i, v in enumerate(sorted(set(values))):
        items.append(IntervalItem(f"x{i}", high=v))
    itemset = Itemset(items)
    encoded = json.loads(json.dumps(itemset_to_list(itemset)))
    assert itemset_from_list(encoded) == itemset
