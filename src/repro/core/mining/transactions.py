"""Encoding a dataset and item universe for mining."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.divergence import OutcomeStats
from repro.core.items import Item, Itemset
from repro.core.outcomes import Outcome
from repro.obs.collector import AnyCollector, resolve_obs
from repro.tabular import Table


class EncodedUniverse:
    """A dataset encoded against a fixed list of items.

    Holds, for each item, its boolean row mask, plus the per-row outcome
    array; everything the mining engine needs, computed once.

    Parameters
    ----------
    items:
        The item universe ``I`` (order defines item ids).
    masks:
        Boolean matrix of shape ``(len(items), n_rows)``;
        ``masks[i, r]`` iff row ``r`` satisfies item ``i``.
    outcomes:
        Per-row outcome values; NaN is ⊥.
    """

    def __init__(
        self,
        items: Sequence[Item],
        masks: np.ndarray,
        outcomes: np.ndarray,
    ):
        self.items: list[Item] = list(items)
        if masks.shape[0] != len(self.items):
            raise ValueError("one mask row per item required")
        self.masks = np.ascontiguousarray(masks, dtype=bool)
        self.outcomes = np.asarray(outcomes, dtype=np.float64)
        if self.outcomes.shape != (masks.shape[1],):
            raise ValueError("outcome length must equal the mask row length")
        self.n_rows = int(masks.shape[1])
        self.attribute_of: list[str] = [it.attribute for it in self.items]
        self.index: dict[Item, int] = {it: i for i, it in enumerate(self.items)}
        # Precomputed helpers for O(n) stats of arbitrary masks.
        self._valid = ~np.isnan(self.outcomes)
        self._o = np.where(self._valid, self.outcomes, 0.0)
        self._o2 = self._o * self._o

    @classmethod
    def from_table(
        cls,
        table: Table,
        items: Iterable[Item],
        outcome: Outcome | np.ndarray,
    ) -> "EncodedUniverse":
        """Evaluate item masks and the outcome against ``table``."""
        items = list(items)
        masks = np.empty((len(items), table.n_rows), dtype=bool)
        for i, item in enumerate(items):
            masks[i] = item.mask(table)
        if isinstance(outcome, Outcome):
            outcomes = outcome.values(table)
        else:
            outcomes = np.asarray(outcome, dtype=np.float64)
        return cls(items, masks, outcomes)

    def n_items(self) -> int:
        return len(self.items)

    def stats_of_mask(self, mask: np.ndarray) -> OutcomeStats:
        """Outcome sufficient statistics of the rows selected by ``mask``."""
        return OutcomeStats(
            count=int(np.count_nonzero(mask)),
            n=int(np.count_nonzero(mask & self._valid)),
            total=float(self._o @ mask),
            total_sq=float(self._o2 @ mask),
        )

    def global_stats(self) -> OutcomeStats:
        """Whole-dataset statistics (f(D) and its variance)."""
        return OutcomeStats(
            count=self.n_rows,
            n=int(self._valid.sum()),
            total=float(self._o.sum()),
            total_sq=float(self._o2.sum()),
        )

    def item_stats(self) -> list[OutcomeStats]:
        """Per-item statistics, one mask at a time (the reference for
        the batched :meth:`BitsetEngine.item_stats`)."""
        return [self.stats_of_mask(self.masks[i]) for i in range(self.n_items())]

    def restricted(self, item_ids: Iterable[int]) -> "EncodedUniverse":
        """A sub-universe containing only the given items.

        Used by polarity pruning to mine the positive- and negative-
        polarity item subsets separately.
        """
        ids = sorted(set(item_ids))
        sub = EncodedUniverse.__new__(EncodedUniverse)
        sub.items = [self.items[i] for i in ids]
        sub.masks = self.masks[ids]
        sub.outcomes = self.outcomes
        sub.n_rows = self.n_rows
        sub.attribute_of = [self.attribute_of[i] for i in ids]
        sub.index = {it: i for i, it in enumerate(sub.items)}
        sub._valid = self._valid
        sub._o = self._o
        sub._o2 = self._o2
        return sub

    def __repr__(self) -> str:
        return f"EncodedUniverse(items={self.n_items()}, rows={self.n_rows})"


@dataclass(frozen=True)
class MinedItemset:
    """A frequent itemset found by the mining engine.

    ``ids`` are indices into the universe's item list; ``stats`` are the
    accumulated outcome statistics of the supporting rows.
    """

    ids: frozenset[int]
    stats: OutcomeStats

    def to_itemset(self, universe: EncodedUniverse) -> Itemset:
        # The engine guarantees one item per attribute; skip re-validation.
        return Itemset._from_distinct(
            frozenset(universe.items[i] for i in self.ids)
        )


class MinedColumns:
    """The frequent itemsets of one mining run, as read-only columns.

    Row ``r`` is one itemset: ``ids[r]`` holds its item ids in ascending
    order, padded with ``-1`` to the widest itemset, and ``count[r]``,
    ``n[r]``, ``total[r]``, ``total_sq[r]`` are its
    :class:`OutcomeStats` fields. Rows are in canonical order:
    lexicographic on the id tuples, a prefix before its extensions,
    which is the depth-first order of the search. Iterating yields
    :class:`MinedItemset` objects.
    """

    __slots__ = ("ids", "count", "n", "total", "total_sq")

    def __init__(
        self,
        ids: np.ndarray,
        count: np.ndarray,
        n: np.ndarray,
        total: np.ndarray,
        total_sq: np.ndarray,
    ):
        self.ids = np.asarray(ids, dtype=np.int64)
        if self.ids.ndim != 2 or len(self.ids) != len(count):
            raise ValueError("ids must be a matrix with one row per itemset")
        self.count = np.asarray(count, dtype=np.int64)
        self.n = np.asarray(n, dtype=np.int64)
        self.total = np.asarray(total, dtype=np.float64)
        self.total_sq = np.asarray(total_sq, dtype=np.float64)
        for column in (self.ids, self.count, self.n, self.total, self.total_sq):
            column.flags.writeable = False

    @classmethod
    def empty(cls) -> "MinedColumns":
        return cls(np.empty((0, 0), dtype=np.int64), [], [], [], [])

    @classmethod
    def concat(cls, parts: Sequence["MinedColumns"]) -> "MinedColumns":
        """The rows of ``parts`` one after another (ids padded to one width)."""
        if not parts:
            return cls.empty()
        width = max(p.ids.shape[1] for p in parts)
        return cls(
            np.concatenate([_pad_ids(p.ids, width) for p in parts]),
            *(
                np.concatenate([getattr(p, name) for p in parts])
                for name in ("count", "n", "total", "total_sq")
            ),
        )

    def select(self, rows: np.ndarray) -> "MinedColumns":
        """The rows picked by a boolean mask or an index array."""
        return MinedColumns(
            self.ids[rows], self.count[rows], self.n[rows],
            self.total[rows], self.total_sq[rows],
        )

    def canonical(self) -> "MinedColumns":
        """These rows in canonical order, repeated itemsets dropped."""
        if not len(self):
            return self
        order = np.lexsort(self.ids.T[::-1])
        ids = self.ids[order]
        first = np.ones(len(ids), dtype=bool)
        first[1:] = (ids[1:] != ids[:-1]).any(axis=1)
        return self.select(order[first])

    def lengths(self) -> np.ndarray:
        """Number of items of each itemset."""
        return np.count_nonzero(self.ids >= 0, axis=1)

    def __len__(self) -> int:
        return len(self.count)

    def __iter__(self) -> Iterator[MinedItemset]:
        columns = zip(
            self.ids.tolist(), self.count.tolist(), self.n.tolist(),
            self.total.tolist(), self.total_sq.tolist(),
        )
        for row, count, n, total, total_sq in columns:
            yield MinedItemset(
                frozenset(i for i in row if i >= 0),
                OutcomeStats(count, n, total, total_sq),
            )

    def __eq__(self, other: object) -> bool:
        """Same itemsets and statistics in the same order, against
        another container or a list of :class:`MinedItemset`."""
        if not isinstance(other, (MinedColumns, list)):
            return NotImplemented
        return list(self) == list(other)

    def __reduce__(self):
        return (
            MinedColumns,
            (self.ids, self.count, self.n, self.total, self.total_sq),
        )

    def __repr__(self) -> str:
        return f"MinedColumns(itemsets={len(self)}, width={self.ids.shape[1]})"


def _pad_ids(ids: np.ndarray, width: int) -> np.ndarray:
    """An id matrix widened to ``width`` columns with ``-1``."""
    if ids.shape[1] == width:
        return ids
    padded = np.full((len(ids), width), -1, dtype=np.int64)
    padded[:, : ids.shape[1]] = ids
    return padded


#: The mining engines :func:`mine` runs: the packed-bitset search only.
BACKENDS = ("bitset",)

#: Retired backend names, still accepted by :func:`resolve_backend`
#: (with a DeprecationWarning) until the ``backend`` parameter goes.
RETIRED_BACKENDS = ("fpgrowth", "apriori", "eclat")


def resolve_backend(backend: str) -> str:
    """Normalise a ``backend`` name to the one engine, ``"bitset"``.

    The retired names warn and map to ``"bitset"``, which returns the
    same itemsets and statistics they did; any other name raises
    :class:`ValueError`.
    """
    if backend in BACKENDS:
        return backend
    if backend in RETIRED_BACKENDS:
        warnings.warn(
            f"mining backend {backend!r} is deprecated: the packed-bitset "
            f"engine is the only miner; drop the backend argument",
            DeprecationWarning,
            stacklevel=3,
        )
        return "bitset"
    raise ValueError(f"unknown mining backend {backend!r}")


def resolve_n_jobs(n_jobs: int) -> int:
    """Normalise an ``n_jobs`` request to 1: mining is serial.

    1 passes silently; any other value warns and maps to 1, which
    returns the same itemsets, statistics and order the process
    fan-out did.
    """
    if n_jobs == 1:
        return 1
    warnings.warn(
        f"n_jobs={n_jobs!r} is deprecated: mining always runs serially; "
        f"drop the n_jobs argument",
        DeprecationWarning,
        stacklevel=3,
    )
    return 1


def mine(
    universe: EncodedUniverse,
    min_support: float,
    backend: str = "bitset",
    max_length: int | None = None,
    n_jobs: int = 1,
    engine=None,
    obs: AnyCollector | None = None,
) -> MinedColumns:
    """Mine all frequent itemsets with the packed-bitset engine.

    Parameters
    ----------
    universe:
        Encoded dataset and item universe.
    min_support:
        The support threshold ``s`` (fraction of rows): an itemset is
        frequent iff ``count / n_rows >= s``.
    backend:
        Deprecated; ``"bitset"`` is the only engine (see
        :func:`resolve_backend`).
    max_length:
        Optional cap on itemset cardinality.
    n_jobs:
        Deprecated; mining is serial (see :func:`resolve_n_jobs`).
    engine:
        Optional :class:`repro.core.mining.bitset.BitsetEngine` over
        ``universe`` to reuse instead of packing the covers again.
    obs:
        Optional :class:`repro.obs.ObsCollector`. When enabled, mining
        runs inside a ``bitset`` span, the engine records its per-step
        ``mining.*`` counters, and the ``mining.frequent_itemsets`` /
        ``mining.frequent.level_N`` totals are counted here from the
        mined rows.
    """
    from repro.core.mining.bitset import BitsetEngine

    resolve_backend(backend)
    resolve_n_jobs(n_jobs)
    obs = resolve_obs(obs)
    if engine is None:
        engine = BitsetEngine(universe)
    prev_engine_obs = engine.obs
    if obs.enabled:
        engine.obs = obs
    span = obs.span("bitset", min_support=min_support)
    try:
        with span:
            mined = engine.mine(min_support, max_length)
    finally:
        engine.obs = prev_engine_obs
    if obs.enabled:
        obs.count("mining.frequent_itemsets", len(mined))
        for k, frequent in enumerate(np.bincount(mined.lengths()).tolist()):
            if frequent:
                obs.count(f"mining.frequent.level_{k}", frequent)
        span.set(itemsets=len(mined), packed_words=engine.n_words)
    return mined
