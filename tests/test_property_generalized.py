"""Property tests specific to generalized (hierarchical) mining."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.discretize import TreeDiscretizer
from repro.core.mining import generalized_universe, mine
from repro.tabular import Table


@st.composite
def hierarchical_case(draw):
    n = draw(st.integers(80, 250))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4, 4, n)
    y = rng.uniform(0, 1, n)
    cat = rng.choice(["p", "q", "r"], n)
    o = ((x > 0) | (cat == "p")).astype(float)
    table = Table({"x": x, "y": y, "cat": cat})
    st_support = draw(st.sampled_from([0.2, 0.3]))
    gamma = TreeDiscretizer(st_support).hierarchy_set(table, o)
    return table, o, gamma


@settings(max_examples=25, deadline=None)
@given(case=hierarchical_case(), support=st.sampled_from([0.1, 0.25]))
def test_extended_transactions_contain_ancestors(case, support):
    """If a row satisfies an item, it satisfies all its ancestors."""
    table, o, gamma = case
    universe = generalized_universe(table, o, gamma)
    for item in universe.items:
        for ancestor in gamma.ancestors(item):
            if ancestor not in universe.index:
                continue
            item_mask = universe.masks[universe.index[item]]
            anc_mask = universe.masks[universe.index[ancestor]]
            assert not np.any(item_mask & ~anc_mask)


@settings(max_examples=20, deadline=None)
@given(case=hierarchical_case(), support=st.sampled_from([0.15, 0.3]))
def test_generalization_closure_of_frequent_itemsets(case, support):
    """Replacing any item by its hierarchy parent keeps an itemset
    frequent with at least the same support — so every generalization
    of a reported subgroup is also reported."""
    table, o, gamma = case
    universe = generalized_universe(table, o, gamma)
    mined = {m.ids: m.stats.count for m in mine(universe, support)}
    for ids, count in mined.items():
        for item_id in ids:
            item = universe.items[item_id]
            ancestors = gamma.ancestors(item)
            if not ancestors:
                continue
            parent = ancestors[0]
            if parent not in universe.index:
                continue
            swapped = frozenset(
                universe.index[parent] if j == item_id else j for j in ids
            )
            attrs = [universe.attribute_of[j] for j in swapped]
            if len(set(attrs)) != len(attrs):
                continue
            assert swapped in mined, (
                f"generalization {swapped} of frequent {ids} missing"
            )
            assert mined[swapped] >= count


@settings(max_examples=20, deadline=None)
@given(case=hierarchical_case())
def test_leaf_universe_is_subset_of_generalized(case):
    table, o, gamma = case
    universe = generalized_universe(table, o, gamma)
    leaf_items = set(gamma.leaf_items())
    assert leaf_items <= set(universe.items)


@settings(max_examples=20, deadline=None)
@given(case=hierarchical_case(), support=st.sampled_from([0.2, 0.4]))
def test_divergence_bounded_by_refinements(case, support):
    """A parent's statistic is a support-weighted mix of its children's,
    so max child divergence >= parent divergence (in absolute value)."""
    table, o, gamma = case
    global_mean = float(np.nanmean(o))
    for hierarchy in gamma:
        for parent, kids in hierarchy.children.items():
            child_divs = []
            for kid in kids:
                vals = o[kid.mask(table)]
                defined = vals[~np.isnan(vals)]
                if defined.size:
                    child_divs.append(abs(float(defined.mean()) - global_mean))
            vals = o[parent.mask(table)]
            defined = vals[~np.isnan(vals)]
            if not defined.size or not child_divs:
                continue
            parent_div = abs(float(defined.mean()) - global_mean)
            assert max(child_divs) >= parent_div - 1e-9
