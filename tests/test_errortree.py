"""Tests for the error-tree baseline."""

import numpy as np
import pytest

from repro.baselines import ErrorTree, ErrorTreeResult
from repro.core.outcomes import array_outcome
from repro.tabular import Table


@pytest.fixture
def peak_like(rng):
    n = 4000
    x = rng.uniform(-5, 5, n)
    y = rng.uniform(-5, 5, n)
    p = np.where((x > 0) & (x < 2) & (y > 1) & (y < 3), 0.6, 0.03)
    o = (rng.uniform(size=n) < p).astype(float)
    return Table({"x": x, "y": y}), o


def test_finds_the_pocket(peak_like):
    table, o = peak_like
    results = ErrorTree(min_support=0.05).find(table, o, k=3)
    assert all(isinstance(r, ErrorTreeResult) for r in results)
    best = results[0]
    assert best.divergence > 0.15
    assert best.mean_loss > 0.3


def test_leaves_do_not_overlap(peak_like):
    table, o = peak_like
    results = ErrorTree(min_support=0.1).find(table, o, k=100)
    total = np.zeros(table.n_rows, dtype=int)
    for r in results:
        total += r.itemset.mask(table).astype(int)
    assert total.max() <= 1


def test_ranked_by_abs_divergence(peak_like):
    table, o = peak_like
    results = ErrorTree(min_support=0.1).find(table, o, k=100)
    divs = [abs(r.divergence) for r in results]
    assert divs == sorted(divs, reverse=True)


def test_k_limits(peak_like):
    table, o = peak_like
    assert len(ErrorTree(min_support=0.2).find(table, o, k=2)) <= 2


def test_outcome_object(peak_like):
    table, o = peak_like
    results = ErrorTree(min_support=0.2).find(
        table, array_outcome(o, boolean=True)
    )
    assert results


def test_max_depth_respected(peak_like):
    table, o = peak_like
    results = ErrorTree(min_support=0.05, max_depth=1).find(table, o, k=10)
    assert all(len(r.itemset) <= 1 for r in results)


def test_compares_below_hierarchical(peak_like):
    """The error tree's best leaf does not beat H-DivExplorer at the
    same support — overlapping exploration dominates partitioning."""
    from repro.core.hexplorer import HDivExplorer

    table, o = peak_like
    tree_best = ErrorTree(min_support=0.05).find(table, o, k=1)[0]
    hier = HDivExplorer(min_support=0.05, tree_support=0.1).explore(table, o)
    assert hier.max_divergence() >= abs(tree_best.divergence) - 0.05


@pytest.mark.parametrize("form", ["array", "column"])
def test_entropy_rejects_numeric_outcome(peak_like, rng, form):
    table, _ = peak_like
    income = rng.lognormal(3.0, 1.0, table.n_rows)
    table = table.with_values("income", income.tolist())
    outcome = income if form == "array" else "income"
    with pytest.raises(ValueError, match="entropy"):
        ErrorTree(min_support=0.05, criterion="entropy").find(
            table, outcome, attributes=["x", "y"]
        )
