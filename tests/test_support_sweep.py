"""Tests for ResultSet.at_support sweep filtering."""

import pytest

from repro.core.hexplorer import HDivExplorer


def test_filter_equals_direct_exploration(pocket_data):
    """Mining once at the lowest support and filtering upward gives
    exactly the results of re-mining at the higher support."""
    table, errors = pocket_data
    explorer_low = HDivExplorer(min_support=0.05, tree_support=0.2)
    low = explorer_low.explore(table, errors)

    explorer_high = HDivExplorer(min_support=0.15, tree_support=0.2)
    high = explorer_high.explore(table, errors)

    filtered = low.at_support(0.15)
    assert filtered.itemsets() == high.itemsets()
    assert filtered.max_divergence() == pytest.approx(high.max_divergence())


def test_at_support_monotone(pocket_data):
    table, errors = pocket_data
    result = HDivExplorer(min_support=0.05, tree_support=0.2).explore(
        table, errors
    )
    sizes = [len(result.at_support(s)) for s in (0.05, 0.1, 0.2, 0.4)]
    assert sizes == sorted(sizes, reverse=True)


def test_at_support_validates(pocket_data):
    table, errors = pocket_data
    result = HDivExplorer(min_support=0.2, tree_support=0.3).explore(
        table, errors
    )
    with pytest.raises(ValueError):
        result.at_support(0.0)


def test_stability_with_refit_discretization(pocket_data):
    """The stricter refit variant runs and reports lower-or-equal
    stability than the frozen-vocabulary default."""
    from repro.experiments.stability import bootstrap_stability

    table, errors = pocket_data
    frozen = bootstrap_stability(
        table, errors, k=3, n_runs=3, seed=0,
        refit_discretization=False,
    )
    refit = bootstrap_stability(
        table, errors, k=3, n_runs=3, seed=0,
        refit_discretization=True,
    )
    assert refit.mean_jaccard <= frozen.mean_jaccard + 1e-9
