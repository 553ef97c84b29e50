"""Tests for multiple-testing corrections."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.core.divergence import OutcomeStats
from repro.core.items import CategoricalItem, Itemset
from repro.core.results import ResultSet, SubgroupResult
from repro.core.significance import (
    benjamini_hochberg,
    bonferroni,
    p_values_from_results,
    welch_p_value,
)


def result_with_t(name: str, t: float) -> SubgroupResult:
    return SubgroupResult(
        itemset=Itemset([CategoricalItem("c", name)]),
        support=0.1,
        count=100,
        mean=0.5,
        divergence=0.1,
        t=t,
    )


@pytest.fixture
def mixed_results():
    global_stats = OutcomeStats.from_outcomes(np.zeros(1000))
    results = [
        result_with_t("strong", 8.0),
        result_with_t("medium", 3.5),
        result_with_t("weak", 1.2),
        result_with_t("none", 0.1),
        result_with_t("undefined", float("nan")),
    ]
    return ResultSet(results, global_stats)


class TestWelchPValue:
    def test_matches_scipy_ttest(self, rng):
        a = rng.normal(0.5, 1.0, 60)
        b = rng.normal(0.0, 1.5, 400)
        ours = welch_p_value(
            OutcomeStats.from_outcomes(a), OutcomeStats.from_outcomes(b)
        )
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert ours == pytest.approx(ref.pvalue, rel=1e-9)

    def test_nan_for_tiny_groups(self):
        tiny = OutcomeStats.from_outcomes(np.array([1.0]))
        big = OutcomeStats.from_outcomes(np.arange(10.0))
        assert math.isnan(welch_p_value(tiny, big))

    def test_zero_for_infinite_t(self):
        a = OutcomeStats.from_outcomes(np.full(5, 1.0))
        b = OutcomeStats.from_outcomes(np.full(5, 2.0))
        assert welch_p_value(a, b) == 0.0


class TestPValues:
    def test_monotone_in_t(self, mixed_results):
        ps = p_values_from_results(mixed_results)
        assert ps[0] < ps[1] < ps[2] < ps[3]

    def test_nan_propagates(self, mixed_results):
        ps = p_values_from_results(mixed_results)
        assert math.isnan(ps[4])


class TestBonferroni:
    def test_keeps_only_strong(self, mixed_results):
        kept = bonferroni(mixed_results, alpha=0.05)
        names = {str(r.itemset) for r in kept}
        assert "c=strong" in names
        assert "c=none" not in names
        assert "c=undefined" not in names

    def test_stricter_than_bh(self, mixed_results):
        bonf = {str(r.itemset) for r in bonferroni(mixed_results, 0.05)}
        bh = {str(r.itemset) for r in benjamini_hochberg(mixed_results, 0.05)}
        assert bonf <= bh

    def test_empty_results(self):
        empty = ResultSet([], OutcomeStats.empty())
        assert bonferroni(empty) == []

    def test_alpha_validation(self, mixed_results):
        with pytest.raises(ValueError):
            bonferroni(mixed_results, alpha=0.0)


class TestBenjaminiHochberg:
    def test_keeps_strong_drops_none(self, mixed_results):
        kept = benjamini_hochberg(mixed_results, alpha=0.05)
        names = {str(r.itemset) for r in kept}
        assert "c=strong" in names and "c=medium" in names
        assert "c=none" not in names

    def test_nan_never_selected(self, mixed_results):
        kept = benjamini_hochberg(mixed_results, alpha=0.99)
        assert all(not math.isnan(r.t) for r in kept)

    def test_monotone_in_alpha(self, mixed_results):
        strict = {str(r.itemset) for r in benjamini_hochberg(mixed_results, 0.001)}
        loose = {str(r.itemset) for r in benjamini_hochberg(mixed_results, 0.2)}
        assert strict <= loose

    def test_alpha_validation(self, mixed_results):
        with pytest.raises(ValueError):
            benjamini_hochberg(mixed_results, alpha=1.0)

    def test_all_nan_results(self):
        rs = ResultSet(
            [result_with_t("x", float("nan"))], OutcomeStats.empty()
        )
        assert benjamini_hochberg(rs) == []


# -- the column formulas against the per-row loops they replaced -------------


def reference_p_value(t: float) -> float:
    if math.isnan(t):
        return float("nan")
    if math.isinf(t):
        return 0.0
    return float(2.0 * scipy_stats.norm.sf(abs(t)))


def reference_bonferroni(rows, alpha):
    ps = [reference_p_value(r.t) for r in rows]
    if not ps:
        return []
    threshold = alpha / len(ps)
    return [r for r, p in zip(rows, ps) if not math.isnan(p) and p <= threshold]


def reference_benjamini_hochberg(rows, alpha):
    ps = np.asarray([reference_p_value(r.t) for r in rows])
    indices = np.nonzero(~np.isnan(ps))[0]
    if indices.size == 0:
        return []
    order = indices[np.argsort(ps[indices])]
    m = indices.size
    cutoff_rank = 0
    for rank, idx in enumerate(order, start=1):
        if ps[idx] <= alpha * rank / m:
            cutoff_rank = rank
    selected = set(order[:cutoff_rank])
    return [r for i, r in enumerate(rows) if i in selected]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


T_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 2.0, -2.0, math.inf, -math.inf, math.nan]),
    st.floats(-40.0, 40.0),
)


class TestColumnFormulas:
    @settings(max_examples=200, deadline=None)
    @given(
        ts=st.lists(T_VALUES, max_size=40),
        alpha=st.sampled_from([0.001, 0.05, 0.2, 0.9]),
    )
    def test_match_per_row_reference(self, ts, alpha):
        rows = [result_with_t(f"s{i}", t) for i, t in enumerate(ts)]
        rs = ResultSet(rows, OutcomeStats.empty())
        got = p_values_from_results(rs)
        assert [bits(p) for p in got] == [bits(reference_p_value(t)) for t in ts]
        for select, reference in (
            (bonferroni, reference_bonferroni),
            (benjamini_hochberg, reference_benjamini_hochberg),
        ):
            chosen = [str(r.itemset) for r in select(rs, alpha)]
            assert chosen == [str(r.itemset) for r in reference(rows, alpha)]
