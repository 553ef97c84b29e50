"""Unit tests for repro.tabular.column."""

import math

import numpy as np
import pytest

from repro.tabular.column import (
    MISSING_CODE,
    CategoricalColumn,
    ContinuousColumn,
    infer_column,
)


class TestCategoricalColumn:
    def test_from_values_basic(self):
        col = CategoricalColumn.from_values("c", ["b", "a", "b", "c"])
        assert col.categories == ["a", "b", "c"]
        assert col.to_list() == ["b", "a", "b", "c"]
        assert len(col) == 4

    def test_from_values_missing(self):
        col = CategoricalColumn.from_values("c", ["x", None, float("nan"), "y"])
        assert col.to_list() == ["x", None, None, "y"]
        assert list(col.missing_mask()) == [False, True, True, False]

    def test_from_values_coerces_to_str(self):
        col = CategoricalColumn.from_values("c", [1, 2, 1])
        assert col.categories == ["1", "2"]
        assert col.to_list() == ["1", "2", "1"]

    def test_mask_eq(self):
        col = CategoricalColumn.from_values("c", ["a", "b", "a"])
        assert list(col.mask_eq("a")) == [True, False, True]

    def test_mask_eq_unknown_category_is_empty(self):
        col = CategoricalColumn.from_values("c", ["a", "b"])
        assert not col.mask_eq("zz").any()

    def test_mask_in(self):
        col = CategoricalColumn.from_values("c", ["a", "b", "c", "a"])
        assert list(col.mask_in({"a", "c"})) == [True, False, True, True]

    def test_mask_in_ignores_unknown(self):
        col = CategoricalColumn.from_values("c", ["a", "b"])
        assert list(col.mask_in({"a", "zz"})) == [True, False]

    def test_mask_in_all_unknown(self):
        col = CategoricalColumn.from_values("c", ["a", "b"])
        assert not col.mask_in({"zz"}).any()

    def test_missing_never_matches(self):
        col = CategoricalColumn.from_values("c", ["a", None, "a"])
        assert list(col.mask_eq("a")) == [True, False, True]
        assert list(col.mask_in({"a"})) == [True, False, True]

    @pytest.mark.parametrize("n_rows", [0, 1, 97])
    def test_mask_in_matches_isin(self, n_rows):
        rng = np.random.default_rng(n_rows)
        categories = [f"v{i}" for i in range(5)]
        codes = rng.integers(MISSING_CODE, len(categories), n_rows)
        col = CategoricalColumn("c", codes, categories)
        for wanted in ([], ["zz"], ["v4"], ["v0", "v4", "v4", "zz"], categories):
            known = [categories.index(c) for c in wanted if c in categories]
            got = col.mask_in(iter(wanted))  # any one-pass iterable
            assert got.dtype == bool and got.shape == (n_rows,)
            assert got.tolist() == np.isin(codes, known).tolist()
            assert not got[codes == MISSING_CODE].any()

    def test_value_counts(self):
        col = CategoricalColumn.from_values("c", ["a", "b", "a", None])
        assert col.value_counts() == {"a": 2, "b": 1}

    def test_code_of(self):
        col = CategoricalColumn.from_values("c", ["b", "a"])
        assert col.code_of("a") == 0
        with pytest.raises(KeyError):
            col.code_of("zz")

    def test_take_and_select(self):
        col = CategoricalColumn.from_values("c", ["a", "b", "c"])
        assert col.take(np.array([2, 0])).to_list() == ["c", "a"]
        assert col.select(np.array([True, False, True])).to_list() == ["a", "c"]

    def test_rename_keeps_data(self):
        col = CategoricalColumn.from_values("c", ["a"])
        renamed = col.rename("d")
        assert renamed.name == "d"
        assert renamed.to_list() == ["a"]

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CategoricalColumn("c", np.array([0]), ["a", "a"])

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CategoricalColumn("c", np.array([2]), ["a", "b"])

    def test_bad_negative_code_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CategoricalColumn("c", np.array([-2]), ["a"])

    def test_missing_code_allowed(self):
        col = CategoricalColumn("c", np.array([MISSING_CODE, 0]), ["a"])
        assert col.to_list() == [None, "a"]

    def test_two_dimensional_codes_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            CategoricalColumn("c", np.zeros((2, 2), dtype=int), ["a"])


class TestContinuousColumn:
    def test_basic(self):
        col = ContinuousColumn("x", np.array([1.0, 2.5]))
        assert len(col) == 2
        assert col.to_list() == [1.0, 2.5]

    def test_missing_is_nan(self):
        col = ContinuousColumn("x", np.array([1.0, np.nan]))
        assert col.to_list() == [1.0, None]
        assert list(col.missing_mask()) == [False, True]

    def test_mask_interval_default_half_open(self):
        col = ContinuousColumn("x", np.array([1.0, 2.0, 3.0]))
        # (1, 3]: excludes 1, includes 3.
        assert list(col.mask_interval(1.0, 3.0)) == [False, True, True]

    def test_mask_interval_closed_low(self):
        col = ContinuousColumn("x", np.array([1.0, 2.0]))
        assert list(col.mask_interval(1.0, 2.0, closed_low=True)) == [True, True]

    def test_mask_interval_open_high(self):
        col = ContinuousColumn("x", np.array([1.0, 2.0]))
        assert list(
            col.mask_interval(0.0, 2.0, closed_high=False)
        ) == [True, False]

    def test_mask_interval_infinite_bounds(self):
        col = ContinuousColumn("x", np.array([-1e300, 0.0, 1e300]))
        assert col.mask_interval(-math.inf, math.inf).all()

    def test_mask_interval_nan_never_matches(self):
        col = ContinuousColumn("x", np.array([np.nan, 1.0]))
        assert list(col.mask_interval(-math.inf, math.inf)) == [False, True]

    def test_min_max_skip_nan(self):
        col = ContinuousColumn("x", np.array([np.nan, 2.0, 5.0]))
        assert col.min() == 2.0
        assert col.max() == 5.0

    def test_min_max_all_nan(self):
        col = ContinuousColumn("x", np.array([np.nan]))
        assert math.isnan(col.min())
        assert math.isnan(col.max())

    def test_take_select(self):
        col = ContinuousColumn("x", np.array([1.0, 2.0, 3.0]))
        assert col.take(np.array([1])).to_list() == [2.0]
        assert col.select(np.array([False, True, True])).to_list() == [2.0, 3.0]

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ContinuousColumn("x", np.zeros((2, 2)))


class TestInferColumn:
    def test_numeric_becomes_continuous(self):
        col = infer_column("x", [1, 2, 3])
        assert isinstance(col, ContinuousColumn)

    def test_float_becomes_continuous(self):
        col = infer_column("x", np.array([1.5, 2.5]))
        assert isinstance(col, ContinuousColumn)

    def test_strings_become_categorical(self):
        col = infer_column("x", ["a", "b"])
        assert isinstance(col, CategoricalColumn)

    def test_bools_become_categorical(self):
        col = infer_column("x", [True, False])
        assert isinstance(col, CategoricalColumn)
        assert sorted(col.categories) == ["False", "True"]
