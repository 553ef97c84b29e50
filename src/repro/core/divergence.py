"""Divergence and its statistical significance (Section III-B).

The divergence of a subgroup ``I`` under a statistic ``f`` is
``Δf(I) = f(I) − f(D)``. Statistics are means of outcome functions over
the instances where the outcome is defined. Significance is assessed by
the Welch t-statistic between the subgroup and the whole dataset, as in
DivExplorer.

The central object is :class:`OutcomeStats`: the sufficient statistics
``(n, Σo, Σo²)`` that mining algorithms accumulate in-pass, from which
mean, variance, divergence and t-value are all derived without another
scan over the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OutcomeStats:
    """Sufficient statistics of an outcome over an instance set.

    Attributes
    ----------
    count:
        Number of instances in the set (including ⊥ outcomes).
    n:
        Number of instances with a defined (non-⊥) outcome.
    total:
        Sum of defined outcome values.
    total_sq:
        Sum of squared defined outcome values.
    """

    count: int
    n: int
    total: float
    total_sq: float

    @classmethod
    def empty(cls) -> "OutcomeStats":
        return cls(0, 0, 0.0, 0.0)

    @classmethod
    def from_outcomes(
        cls, outcomes: np.ndarray, mask: np.ndarray | None = None
    ) -> "OutcomeStats":
        """Accumulate stats from an outcome array (NaN = ⊥).

        Parameters
        ----------
        outcomes:
            Per-row outcome values.
        mask:
            Optional boolean row filter; defaults to all rows.
        """
        if mask is not None:
            outcomes = outcomes[mask]
        defined = outcomes[~np.isnan(outcomes)]
        return cls(
            count=int(outcomes.size),
            n=int(defined.size),
            total=float(defined.sum()),
            total_sq=float(np.square(defined).sum()),
        )

    def merge(self, other: "OutcomeStats") -> "OutcomeStats":
        """Stats of the union of two disjoint instance sets."""
        return OutcomeStats(
            self.count + other.count,
            self.n + other.n,
            self.total + other.total,
            self.total_sq + other.total_sq,
        )

    @property
    def mean(self) -> float:
        """Statistic value f(S); NaN if no outcome is defined."""
        if self.n == 0:
            return float("nan")
        return self.total / self.n

    @property
    def variance(self) -> float:
        """Unbiased sample variance of defined outcomes; NaN if n < 2."""
        if self.n < 2:
            return float("nan")
        mean = self.mean
        # Guard tiny negative values from floating-point cancellation.
        var = (self.total_sq - self.n * mean * mean) / (self.n - 1)
        return max(var, 0.0)


def min_support_count(min_support: float, n_rows: int) -> int:
    """The smallest row count ``c >= 1`` with ``c / n_rows >= min_support``.

    This is the support threshold in the units
    :attr:`~repro.core.results.SubgroupResult.support` reports, so a
    subgroup whose reported support is ``>= s`` is never dropped.
    ``ceil(s * n)`` alone is off by one whenever ``s * n`` rounds just
    above an integer (``0.07 * 100 == 7.000000000000001``).
    """
    if n_rows <= 0:
        return 1
    count = max(1, math.ceil(min_support * n_rows))
    while count > 1 and (count - 1) / n_rows >= min_support:
        count -= 1
    return count


def divergence(subgroup: OutcomeStats, dataset: OutcomeStats) -> float:
    """Δf = f(subgroup) − f(dataset); NaN if either side is undefined."""
    return subgroup.mean - dataset.mean


def welch_t(subgroup: OutcomeStats, dataset: OutcomeStats) -> float:
    """Welch t-statistic of the subgroup against the whole dataset.

    Follows DivExplorer: ``t = |Δ| / sqrt(s²_I/n_I + s²_D/n_D)``.
    Returns NaN when either group has fewer than two defined outcomes,
    and +inf when both variances are exactly zero but the means differ.
    """
    if subgroup.n < 2 or dataset.n < 2:
        return float("nan")
    delta = divergence(subgroup, dataset)
    pooled = subgroup.variance / subgroup.n + dataset.variance / dataset.n
    if pooled == 0.0:  # reprolint: disable=RPL006 (exact-zero guard)
        # reprolint: disable-next-line=RPL006 (both variances exactly 0)
        return 0.0 if delta == 0.0 else math.inf
    return abs(delta) / math.sqrt(pooled)


def welch_degrees_of_freedom(
    subgroup: OutcomeStats, dataset: OutcomeStats
) -> float:
    """Welch–Satterthwaite degrees of freedom for the t-statistic."""
    if subgroup.n < 2 or dataset.n < 2:
        return float("nan")
    a = subgroup.variance / subgroup.n
    b = dataset.variance / dataset.n
    if a + b == 0.0:  # reprolint: disable=RPL006 (exact-zero guard)
        return float("nan")
    denom = a * a / (subgroup.n - 1) + b * b / (dataset.n - 1)
    if denom == 0.0:  # reprolint: disable=RPL006 (exact-zero guard)
        return float("nan")
    return (a + b) ** 2 / denom


def entropy(stats: OutcomeStats) -> float:
    """Binary entropy of a boolean outcome's probability over a set.

    ``H = −p log p − (1−p) log(1−p)`` with ``p = k+/(k+ + k−)``; natural
    logarithm. Returns 0 for empty or pure sets.
    """
    if stats.n == 0:
        return 0.0
    p = stats.mean
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)
