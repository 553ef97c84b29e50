"""Tests for the stability analysis extension."""

import numpy as np
import pytest

from repro.core.hexplorer import HDivExplorer
from repro.experiments.stability import (
    StabilityReport,
    bootstrap_stability,
    perturbation_stability,
)
from repro.tabular import Table


@pytest.fixture(scope="module")
def strong_pocket():
    """A pocket so pronounced it must survive resampling."""
    rng = np.random.default_rng(17)
    n = 3000
    x = rng.uniform(0, 1, n)
    cat = rng.choice(["a", "b"], n)
    p = np.where((x > 0.6) & (cat == "b"), 0.8, 0.02)
    o = (rng.uniform(size=n) < p).astype(float)
    return Table({"x": x, "cat": cat}), o


def test_bootstrap_stability_high_for_strong_signal(strong_pocket):
    table, o = strong_pocket
    report = bootstrap_stability(
        table, o,
        explorer=HDivExplorer(min_support=0.1, tree_support=0.2),
        k=3, n_runs=5, seed=1,
    )
    assert report.n_runs == 5
    assert report.mean_jaccard > 0.3
    assert max(report.recovery_rate) >= 0.8

    text = str(report)
    assert "mean top-k Jaccard" in text


def test_bootstrap_stability_low_for_noise():
    rng = np.random.default_rng(3)
    n = 1500
    table = Table(
        {"x": rng.uniform(0, 1, n), "cat": rng.choice(["a", "b"], n)}
    )
    o = (rng.uniform(size=n) < 0.5).astype(float)  # pure noise
    report = bootstrap_stability(
        table, o,
        explorer=HDivExplorer(min_support=0.1, tree_support=0.2),
        k=3, n_runs=5, seed=2,
    )
    # Noise findings should be visibly less stable than strong signal.
    assert report.mean_jaccard < 0.9


def test_perturbation_stability_runs(strong_pocket):
    table, o = strong_pocket
    report = perturbation_stability(
        table, o,
        missing_fraction=0.05,
        explorer=HDivExplorer(min_support=0.1, tree_support=0.2),
        k=3, n_runs=3, seed=4,
    )
    assert isinstance(report, StabilityReport)
    assert len(report.recovery_rate) == len(report.reference_top)
    assert report.mean_jaccard > 0.2


def test_recovery_rates_bounded(strong_pocket):
    table, o = strong_pocket
    report = bootstrap_stability(
        table, o,
        explorer=HDivExplorer(min_support=0.15, tree_support=0.25),
        k=2, n_runs=3, seed=5,
    )
    assert all(0.0 <= r <= 1.0 for r in report.recovery_rate)
