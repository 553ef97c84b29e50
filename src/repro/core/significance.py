"""Multiple-testing corrections for explored subgroups.

An exploration evaluates thousands of subgroups, so raw Welch
t-statistics overstate significance. This module converts the
t-statistics of a :class:`ResultSet` into p-values (via the
Welch–Satterthwaite degrees of freedom) and applies standard
family-wise / false-discovery-rate corrections:

- :func:`bonferroni` — conservative FWER control;
- :func:`benjamini_hochberg` — FDR control, appropriate when many
  subgroups are expected to be genuinely divergent.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as scipy_stats

from repro.core.divergence import OutcomeStats, welch_degrees_of_freedom
from repro.core.results import ResultSet, SubgroupResult


def welch_p_value(subgroup: OutcomeStats, dataset: OutcomeStats) -> float:
    """Two-sided p-value of the subgroup's Welch test vs the dataset."""
    from repro.core.divergence import welch_t

    t = welch_t(subgroup, dataset)
    if math.isnan(t):
        return float("nan")
    if math.isinf(t):
        return 0.0
    df = welch_degrees_of_freedom(subgroup, dataset)
    if math.isnan(df):
        return float("nan")
    return float(2.0 * scipy_stats.t.sf(t, df))


def p_values_from_results(results: ResultSet) -> list[float]:
    """Approximate two-sided p-values for every result in the set.

    Uses each result's stored t statistic with the normal tail as the
    large-sample approximation (the subgroup counts are recoverable but
    per-subgroup variances are already folded into t).
    """
    return _p_values(results.t).tolist()


def _p_values(t: np.ndarray) -> np.ndarray:
    """``2·sf(|t|)`` of a t column: NaN stays NaN, ±inf gives exactly 0."""
    return 2.0 * scipy_stats.norm.sf(np.abs(t))


def bonferroni(
    results: ResultSet, alpha: float = 0.05
) -> list[SubgroupResult]:
    """Results significant under Bonferroni FWER control at ``alpha``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    m = len(results)
    if m == 0:
        return []
    # NaN p-values compare false: never selected.
    return results._rows(np.flatnonzero(_p_values(results.t) <= alpha / m))


def benjamini_hochberg(
    results: ResultSet, alpha: float = 0.05
) -> list[SubgroupResult]:
    """Results kept by the Benjamini–Hochberg FDR procedure at ``alpha``.

    NaN p-values (undersized subgroups) are never selected.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    ps = _p_values(results.t)
    indices = np.flatnonzero(~np.isnan(ps))
    if indices.size == 0:
        return []
    order = indices[np.argsort(ps[indices])]
    m = indices.size
    ranks = np.arange(1, m + 1)
    passing = np.flatnonzero(ps[order] <= alpha * ranks / m)
    cutoff_rank = passing[-1] + 1 if passing.size else 0
    return results._rows(np.sort(order[:cutoff_rank]))
