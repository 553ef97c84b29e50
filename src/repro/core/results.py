"""Exploration results: ranked divergent subgroups."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.divergence import OutcomeStats, welch_t
from repro.core.items import Itemset
from repro.obs.collector import AnyCollector, resolve_obs


@dataclass(frozen=True)
class SubgroupResult:
    """One explored subgroup with its accumulated statistics.

    Attributes
    ----------
    itemset:
        The pattern defining the subgroup.
    support:
        Fraction of dataset instances satisfying the pattern.
    count:
        Absolute number of instances satisfying the pattern.
    mean:
        Statistic value f(I) on the subgroup.
    divergence:
        Δf(I) = f(I) − f(D).
    t:
        Welch t-statistic of the divergence.
    """

    itemset: Itemset
    support: float
    count: int
    mean: float
    divergence: float
    t: float

    @classmethod
    def from_stats(
        cls,
        itemset: Itemset,
        stats: OutcomeStats,
        global_stats: OutcomeStats,
        n_rows: int,
    ) -> "SubgroupResult":
        return cls(
            itemset=itemset,
            support=stats.count / n_rows if n_rows else 0.0,
            count=stats.count,
            mean=stats.mean,
            divergence=stats.mean - global_stats.mean,
            t=welch_t(stats, global_stats),
        )

    @property
    def length(self) -> int:
        return len(self.itemset)

    @staticmethod
    def columns_from_stats(
        count: np.ndarray,
        n: np.ndarray,
        total: np.ndarray,
        total_sq: np.ndarray,
        global_stats: OutcomeStats,
        n_rows: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(support, mean, divergence, t)`` of many subgroups at once.

        :meth:`from_stats` over columns of :class:`OutcomeStats` fields,
        with the same IEEE operations in the same order (including
        ``OutcomeStats.variance`` and :func:`welch_t`), so every value
        is bit-identical to the scalar reference, NaNs included.
        """
        nan = float("nan")
        with np.errstate(divide="ignore", invalid="ignore"):
            support = count / n_rows if n_rows else np.zeros(len(count))
            mean = np.where(n == 0, nan, total / n)
            divergence = mean - global_stats.mean
            if global_stats.n < 2:
                return support, mean, divergence, np.full(len(count), nan)
            variance = (total_sq - n * mean * mean) / (n - 1)
            variance = np.where(0.0 > variance, 0.0, variance)
            pooled = variance / n + global_stats.variance / global_stats.n
            t = np.where(
                pooled == 0.0,
                np.where(divergence == 0.0, 0.0, math.inf),
                np.abs(divergence) / np.sqrt(pooled),
            )
        return support, mean, divergence, np.where(n < 2, nan, t)

    def __str__(self) -> str:
        return (
            f"{self.itemset!s}  sup={self.support:.3f}  "
            f"Δ={self.divergence:+.3f}  t={self.t:.1f}"
        )


class ResultSet:
    """A collection of :class:`SubgroupResult` with ranking helpers.

    Parameters
    ----------
    results:
        The explored subgroups.
    global_stats:
        Whole-dataset outcome statistics (f(D) is ``global_stats.mean``).
    elapsed_seconds:
        Wall-clock exploration time, for the performance figures.
    obs:
        The observability collector of the producing exploration (the
        disabled singleton when observability was off). Lets
        :meth:`summary` surface phase timings and mining counters.
    """

    def __init__(
        self,
        results: Iterable[SubgroupResult],
        global_stats: OutcomeStats,
        elapsed_seconds: float = 0.0,
        obs: AnyCollector | None = None,
    ) -> None:
        self.results = list(results)
        self.global_stats = global_stats
        self.elapsed_seconds = elapsed_seconds
        self.obs = resolve_obs(obs)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SubgroupResult]:
        return iter(self.results)

    def __getitem__(self, i: int) -> SubgroupResult:
        return self.results[i]

    @property
    def global_mean(self) -> float:
        """The whole-dataset statistic f(D)."""
        return self.global_stats.mean

    def find(self, itemset: Itemset) -> SubgroupResult | None:
        """Return the result for ``itemset``, or None if not explored."""
        for r in self.results:
            if r.itemset == itemset:
                return r
        return None

    def itemsets(self) -> set[Itemset]:
        return {r.itemset for r in self.results}

    # -- ranking ---------------------------------------------------------

    def top_k(
        self,
        k: int = 10,
        by: str = "abs_divergence",
        min_t: float = 0.0,
        min_length: int = 0,
    ) -> list[SubgroupResult]:
        """The ``k`` best subgroups under a ranking criterion.

        Parameters
        ----------
        k:
            How many results to return.
        by:
            ``"abs_divergence"`` (default), ``"divergence"`` (highest
            positive), ``"neg_divergence"`` (lowest), or ``"support"``.
        min_t:
            Discard subgroups with Welch t below this (NaN always kept
            out when ``min_t > 0``).
        min_length:
            Discard subgroups with fewer items than this (the empty
            itemset has length 0 and zero divergence).
        """
        key = _rank_key(by)
        pool = [
            r
            for r in self.results
            if r.length >= min_length
            and (min_t <= 0.0 or (not math.isnan(r.t) and r.t >= min_t))
            and not math.isnan(r.divergence)
        ]
        return sorted(pool, key=key, reverse=True)[:k]

    def max_divergence(self, signed: bool = False, min_t: float = 0.0) -> float:
        """Maximum |Δ| over results (or max signed Δ if ``signed``).

        Returns 0.0 when there are no (finite-divergence) results, which
        is the divergence of the empty pattern.
        """
        by = "divergence" if signed else "abs_divergence"
        best = self.top_k(1, by=by, min_t=min_t)
        if not best:
            return 0.0
        return best[0].divergence if signed else abs(best[0].divergence)

    def filtered(self, predicate: Callable[[SubgroupResult], bool]) -> "ResultSet":
        """A new result set keeping results where ``predicate`` holds."""
        return ResultSet(
            [r for r in self.results if predicate(r)],
            self.global_stats,
            self.elapsed_seconds,
            obs=self.obs,
        )

    def at_support(self, min_support: float) -> "ResultSet":
        """Restrict to subgroups with support ≥ ``min_support``.

        Frequent itemsets are nested across thresholds, so exploring
        once at the smallest support of a sweep and filtering upward
        with this method reproduces each larger-threshold exploration
        exactly (minus its timing).
        """
        if not 0.0 < min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        return self.filtered(lambda r: r.support >= min_support)

    def merged(self, other: "ResultSet") -> "ResultSet":
        """Union of two result sets, deduplicated by itemset.

        Used by polarity pruning to combine the positive- and
        negative-polarity explorations. Elapsed times add up.
        """
        seen = {r.itemset: r for r in self.results}
        for r in other.results:
            seen.setdefault(r.itemset, r)
        return ResultSet(
            seen.values(),
            self.global_stats,
            self.elapsed_seconds + other.elapsed_seconds,
            obs=self.obs if self.obs.enabled else other.obs,
        )

    # -- formatting --------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """Headline numbers of the exploration, as a plain dict.

        The canonical scalar surface for reports, the CLI and the
        experiment harness: number of explored subgroups, the dataset
        statistic f(D), the maximum |Δ| found, and the wall-clock
        exploration time. When the exploration ran with an enabled
        observability collector, an ``obs`` section is appended with
        per-phase elapsed times, the candidate counts and the
        pruning counters (see :func:`repro.obs.obs_summary`).
        """
        out: dict[str, object] = {
            "n_subgroups": len(self.results),
            "global_mean": self.global_mean,
            "max_abs_divergence": self.max_divergence(),
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.obs.enabled:
            from repro.obs.report import obs_summary

            out["obs"] = obs_summary(self.obs)
        return out

    def to_rows(
        self,
        k: int = 10,
        by: str = "abs_divergence",
        min_t: float = 0.0,
        min_length: int = 0,
    ) -> list[dict[str, object]]:
        """Top-k results as plain dicts, for table rendering.

        Filtering arguments are forwarded to :meth:`top_k`. Each row
        carries the rendered itemset plus its rounded support, count,
        mean, divergence, Welch t and length.
        """
        return [
            {
                "itemset": str(r.itemset),
                "support": round(r.support, 4),
                "count": r.count,
                "mean": round(r.mean, 4),
                "divergence": round(r.divergence, 4),
                "t": round(r.t, 1) if not math.isnan(r.t) else float("nan"),
                "length": r.length,
            }
            for r in self.top_k(k, by=by, min_t=min_t, min_length=min_length)
        ]

    def __repr__(self) -> str:
        return (
            f"ResultSet(n={len(self.results)}, f(D)={self.global_mean:.4f}, "
            f"elapsed={self.elapsed_seconds:.2f}s)"
        )


def _rank_key(by: str) -> Callable[[SubgroupResult], float]:
    if by == "abs_divergence":
        return lambda r: abs(r.divergence)
    if by == "divergence":
        return lambda r: r.divergence
    if by == "neg_divergence":
        return lambda r: -r.divergence
    if by == "support":
        return lambda r: r.support
    raise ValueError(f"unknown ranking criterion {by!r}")
