"""Property-based tests for items, divergence stats, and hierarchies."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.divergence import OutcomeStats, divergence, welch_t
from repro.core.items import CategoricalItem, IntervalItem, Itemset
from repro.hierarchies import prefix_hierarchy, taxonomy_hierarchy
from repro.tabular import Table

finite_floats = st.floats(-1e6, 1e6, allow_nan=False)
#: Values a table cell can hold besides NaN: finite ones and ±inf.
cell_values = st.one_of(finite_floats, st.sampled_from([-math.inf, math.inf]))


@st.composite
def interval(draw, attribute="x"):
    low = draw(st.one_of(st.just(-math.inf), finite_floats))
    high = draw(st.one_of(st.just(math.inf), finite_floats))
    assume(low < high)
    return IntervalItem(
        attribute, low, high,
        closed_low=draw(st.booleans()),
        closed_high=draw(st.booleans()),
    )


class TestIntervalProperties:
    @settings(max_examples=100, deadline=None)
    @given(item=interval(), value=cell_values)
    def test_mask_agrees_with_contains(self, item, value):
        table = Table({"x": [value]})
        assert bool(item.mask(table)[0]) == item.contains_value(value)

    @settings(max_examples=100, deadline=None)
    @given(a=interval(), b=interval(), value=cell_values)
    def test_covers_implies_membership_implication(self, a, b, value):
        if a.covers(b) and b.contains_value(value):
            assert a.contains_value(value)

    @settings(max_examples=100, deadline=None)
    @given(a=interval())
    def test_covers_reflexive(self, a):
        assert a.covers(a)

    @settings(max_examples=100, deadline=None)
    @given(a=interval(), b=interval(), c=interval())
    def test_covers_transitive(self, a, b, c):
        if a.covers(b) and b.covers(c):
            assert a.covers(c)


class TestOutcomeStatsProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.one_of(finite_floats, st.just(float("nan"))),
            min_size=0, max_size=40,
        ),
        split=st.integers(0, 40),
    )
    def test_merge_equals_concat(self, values, split):
        split = min(split, len(values))
        arr = np.asarray(values, dtype=float)
        merged = OutcomeStats.from_outcomes(arr[:split]).merge(
            OutcomeStats.from_outcomes(arr[split:])
        )
        direct = OutcomeStats.from_outcomes(arr)
        assert merged.count == direct.count
        assert merged.n == direct.n
        assert merged.total == pytest.approx(direct.total, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(finite_floats, min_size=2, max_size=30),
        b=st.lists(finite_floats, min_size=2, max_size=30),
    )
    def test_welch_t_symmetric_and_nonnegative(self, a, b):
        sa = OutcomeStats.from_outcomes(np.asarray(a))
        sb = OutcomeStats.from_outcomes(np.asarray(b))
        t_ab = welch_t(sa, sb)
        t_ba = welch_t(sb, sa)
        if not math.isnan(t_ab):
            assert t_ab >= 0
            assert t_ab == pytest.approx(t_ba, rel=1e-9) or (
                math.isinf(t_ab) and math.isinf(t_ba)
            )

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(finite_floats, min_size=1, max_size=30))
    def test_divergence_of_whole_is_zero(self, values):
        s = OutcomeStats.from_outcomes(np.asarray(values))
        assert divergence(s, s) == pytest.approx(0.0, abs=1e-9)


@st.composite
def taxonomy_spec(draw):
    n_leaves = draw(st.integers(2, 12))
    n_groups = draw(st.integers(1, 4))
    leaves = [f"leaf{i}" for i in range(n_leaves)]
    assignment = draw(
        st.lists(
            st.integers(0, n_groups - 1),
            min_size=n_leaves, max_size=n_leaves,
        )
    )
    parent_of = {
        leaf: f"group{g}" for leaf, g in zip(leaves, assignment)
    }
    return leaves, parent_of


class TestHierarchyProperties:
    @settings(max_examples=50, deadline=None)
    @given(spec=taxonomy_spec(), seed=st.integers(0, 2**16))
    def test_taxonomy_partition_on_random_data(self, spec, seed):
        leaves, parent_of = spec
        h = taxonomy_hierarchy("c", leaves, parent_of)
        rng = np.random.default_rng(seed)
        table = Table({"c": rng.choice(leaves, size=50)})
        h.validate(table)  # Definition 4.1 must hold on any data

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.from_regex(r"[ab]\.[ab]\.[ab]", fullmatch=True),
            min_size=1, max_size=12,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_prefix_partition_on_random_data(self, values, seed):
        h = prefix_hierarchy("p", values)
        rng = np.random.default_rng(seed)
        table = Table({"p": rng.choice(sorted(set(values)), size=40)})
        h.validate(table)

    @settings(max_examples=50, deadline=None)
    @given(spec=taxonomy_spec())
    def test_ancestor_covers_descendant(self, spec):
        leaves, parent_of = spec
        h = taxonomy_hierarchy("c", leaves, parent_of)
        for item in h.items():
            for ancestor in h.ancestors(item):
                assert ancestor.covers(item)


class TestItemsetProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        values=st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
                        unique=True),
    )
    def test_itemset_mask_is_intersection(self, seed, values):
        rng = np.random.default_rng(seed)
        table = Table(
            {
                "c": rng.choice(list("abc"), 40),
                "x": rng.uniform(0, 1, 40),
            }
        )
        cat_item = CategoricalItem("c", set(values))
        num_item = IntervalItem("x", 0.3, 0.8)
        itemset = Itemset([cat_item, num_item])
        expected = cat_item.mask(table) & num_item.mask(table)
        np.testing.assert_array_equal(itemset.mask(table), expected)

    @settings(max_examples=60, deadline=None)
    @given(a=interval("x"), b=interval("x"))
    def test_generalizes_matches_covers_single_attr(self, a, b):
        assert Itemset([a]).generalizes(Itemset([b])) == a.covers(b)
