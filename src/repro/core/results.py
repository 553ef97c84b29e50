"""Exploration results: ranked divergent subgroups."""

from __future__ import annotations

import copy
import gc
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, overload

import numpy as np

from repro.core.divergence import OutcomeStats, welch_t
from repro.core.items import Item, Itemset
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
    """Explored subgroups, stored as columns, with ranking helpers.

    Row ``r`` is one subgroup: ``ids[r]`` holds its item ids into
    ``vocabulary`` in ascending order, padded with ``-1`` to the widest
    itemset, and ``count[r]``, ``support[r]``, ``mean[r]``,
    ``divergence[r]`` and ``t[r]`` are its :class:`SubgroupResult`
    fields. All columns are read-only arrays. Iterating, indexing and
    :meth:`top_k` build the :class:`SubgroupResult` of a row each time
    it is read and keep none of them, so two reads of one row give
    equal but distinct objects (unequal if a field is NaN).

    Parameters
    ----------
    results:
        The explored subgroups, converted into columns in this order.
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
        rows = list(results)
        index: dict[Item, int] = {}
        id_rows = [
            sorted(index.setdefault(item, len(index)) for item in r.itemset)
            for r in rows
        ]
        ids = np.full(
            (len(rows), max(map(len, id_rows), default=0)), -1, dtype=np.int64
        )
        for padded, row in zip(ids, id_rows):
            padded[: len(row)] = row
        self._store(
            tuple(index), ids,
            [[getattr(r, name) for r in rows] for name in _COLUMNS],
            global_stats, elapsed_seconds, obs,
        )

    @classmethod
    def _from_columns(
        cls,
        vocabulary: Sequence[Item],
        ids: np.ndarray,
        columns: Sequence[np.ndarray],
        global_stats: OutcomeStats,
        elapsed_seconds: float,
        obs: AnyCollector | None,
    ) -> "ResultSet":
        """Construct over ready columns, sharing the arrays.

        Internal fast path for the explorers: ``ids`` must index
        ``vocabulary`` with ascending ids, one item per attribute, and
        ``columns`` holds ``count``, ``support``, ``mean``,
        ``divergence`` and ``t`` in that order.
        """
        self = object.__new__(cls)
        self._store(
            tuple(vocabulary), ids, columns, global_stats, elapsed_seconds, obs
        )
        return self

    def _store(
        self,
        vocabulary: tuple[Item, ...],
        ids: np.ndarray,
        columns: Sequence[Sequence[float]],
        global_stats: OutcomeStats,
        elapsed_seconds: float,
        obs: AnyCollector | None,
    ) -> None:
        count, support, mean, divergence, t = columns
        self.vocabulary = vocabulary
        self.ids = _read_only(ids, np.int64)
        self.count = _read_only(count, np.int64)
        self.support = _read_only(support, np.float64)
        self.mean = _read_only(mean, np.float64)
        self.divergence = _read_only(divergence, np.float64)
        self.t = _read_only(t, np.float64)
        self.global_stats = global_stats
        self.elapsed_seconds = elapsed_seconds
        self.obs = resolve_obs(obs)
        # The one-item sets rows are built from (see _rows): filled on
        # the first read, and shared by every set derived from this one.
        self._singles: list[frozenset] = []

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _COLUMNS]

    def _replace(self, **attributes: object) -> "ResultSet":
        """A copy with some attributes replaced, sharing all the others."""
        other = copy.copy(self)
        other.__dict__.update(attributes)
        return other

    def _select(self, rows: np.ndarray) -> "ResultSet":
        """The rows picked by a boolean mask or an index array.

        Rows are gathered with ``take``. The id matrix keeps only the
        columns its widest picked itemset fills, so it is padded as a
        fresh exploration of those rows would pad it.
        """
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        ids = self.ids.take(rows, axis=0)
        width = ids.shape[1]
        while width and ids[:, width - 1].max(initial=-1) < 0:
            width -= 1
        return self._replace(
            ids=_read_only(ids[:, :width], np.int64),
            **{
                name: _read_only(column.take(rows), column.dtype)
                for name, column in zip(_COLUMNS, self._columns())
            },
        )

    def _rows(self, rows: slice | np.ndarray) -> list[SubgroupResult]:
        """Build the :class:`SubgroupResult` of each picked row."""
        # Unions of one-item sets reuse the items' stored hashes; the -1
        # padding picks the trailing empty set.
        singles = self._singles
        if not singles:
            # One extend, so a concurrent reader sees all of it or none;
            # a racing second fill appends an equal copy, which indexes
            # the same way (-1 still picks the empty set).
            built = [frozenset((item,)) for item in self.vocabulary]
            singles += built + [frozenset()]
        single = singles.__getitem__
        empty = frozenset()
        # The rows' objects form no cycles, so the cyclic collector's
        # scans of them are pure overhead (~40 % of a bulk build).
        collecting = gc.isenabled()
        gc.disable()
        try:
            # Rows hold one item per attribute; skip re-validation.
            return [
                SubgroupResult(
                    Itemset._from_distinct(empty.union(*map(single, row))),
                    support, count, mean, divergence, t,
                )
                for row, count, support, mean, divergence, t in zip(
                    self.ids[rows].tolist(),
                    *(column[rows].tolist() for column in self._columns()),
                )
            ]
        finally:
            if collecting:
                gc.enable()

    def _lengths(self) -> np.ndarray:
        return np.count_nonzero(self.ids >= 0, axis=1)

    def __len__(self) -> int:
        return len(self.count)

    def __iter__(self) -> Iterator[SubgroupResult]:
        for start in range(0, len(self), _CHUNK_ROWS):
            yield from self._rows(slice(start, start + _CHUNK_ROWS))

    @overload
    def __getitem__(self, i: int) -> SubgroupResult: ...

    @overload
    def __getitem__(self, i: slice) -> list[SubgroupResult]: ...

    def __getitem__(
        self, i: int | slice
    ) -> SubgroupResult | list[SubgroupResult]:
        if isinstance(i, slice):
            return self._rows(i)
        row = operator.index(i)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("ResultSet index out of range")
        return self._rows(slice(row, row + 1))[0]

    @property
    def global_mean(self) -> float:
        """The whole-dataset statistic f(D)."""
        return self.global_stats.mean

    def find(self, itemset: Itemset) -> SubgroupResult | None:
        """Return the result for ``itemset``, or None if not explored.

        A row matches when it has as many items as ``itemset`` and each
        of its ids names one of them (the padding always qualifies).
        """
        member = np.array([it in itemset for it in self.vocabulary] + [True])
        hits = np.flatnonzero(
            member[self.ids].all(axis=1) & (self._lengths() == len(itemset))
        )
        return self[int(hits[0])] if len(hits) else None

    def itemsets(self) -> set[Itemset]:
        return {r.itemset for r in self}

    # -- ranking ---------------------------------------------------------

    def top_k(
        self,
        k: int = 10,
        by: str = "abs_divergence",
        min_t: float = 0.0,
        min_length: int = 0,
    ) -> list[SubgroupResult]:
        """The ``k`` best subgroups under a ranking criterion.

        Rows with a NaN divergence never rank. The rest pass the
        ``min_length`` and ``min_t`` filters and are ordered by
        descending key; ties keep row order, and only the returned rows
        are built. When fewer than all of them are asked for, a
        selection finds the ``k``-th key and only the rows at or above
        it are sorted (one stable sort), which gives the same rows in
        the same order as sorting them all.

        Parameters
        ----------
        k:
            How many results to return (non-negative).
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
        key = self._rank_key(by)
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        keep = ~np.isnan(self.divergence)
        if min_length > 0:
            keep &= self._lengths() >= min_length
        if not min_t <= 0.0:  # a NaN min_t keeps no row
            keep &= self.t >= min_t
        rows = np.flatnonzero(keep)
        neg = -key[rows]
        if k < len(rows):
            if k == 0:
                return []
            kth = np.partition(neg, k - 1)[k - 1]
            # A NaN key (only a support can be one) sorts last, so a
            # NaN k-th key leaves every row in the running.
            if not np.isnan(kth):
                ahead = np.flatnonzero(neg <= kth)
                rows, neg = rows[ahead], neg[ahead]
        order = np.argsort(neg, kind="stable")
        return self._rows(rows[order[:k]])

    def _rank_key(self, by: str) -> np.ndarray:
        if by == "abs_divergence":
            return np.abs(self.divergence)
        if by == "divergence":
            return self.divergence
        if by == "neg_divergence":
            return -self.divergence
        if by == "support":
            return self.support
        raise ValueError(f"unknown ranking criterion {by!r}")

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
        keep = [bool(predicate(r)) for r in self]
        return self._select(np.array(keep, dtype=bool))

    def at_support(self, min_support: float) -> "ResultSet":
        """Restrict to subgroups with support ≥ ``min_support``.

        Frequent itemsets are nested across thresholds, so exploring
        once at the smallest support of a sweep and filtering upward
        with this method reproduces each larger-threshold exploration
        exactly (minus its timing).
        """
        if not 0.0 < min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        return self._select(self.support >= min_support)

    def merged(self, other: "ResultSet") -> "ResultSet":
        """Union of two result sets, deduplicated by itemset.

        The rows of ``self``, then those of ``other`` whose itemset
        ``self`` lacks; elapsed times add up. (Polarity pruning needs
        no merge: it runs inside the one search.)
        """
        seen = {r.itemset: r for r in self}
        for r in other:
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
            "n_subgroups": len(self),
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
            f"ResultSet(n={len(self)}, f(D)={self.global_mean:.4f}, "
            f"elapsed={self.elapsed_seconds:.2f}s)"
        )


#: The per-row columns of a :class:`ResultSet`, besides its id matrix.
_COLUMNS = ("count", "support", "mean", "divergence", "t")

#: Rows built per GC pause while iterating a :class:`ResultSet`: the
#: objects of one chunk are all that iteration itself keeps alive.
_CHUNK_ROWS = 4096


def _read_only(values: Sequence[float] | np.ndarray, dtype: type) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array
