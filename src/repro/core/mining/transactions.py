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

    The rows form a prefix tree: row ``r`` is the itemset of row
    ``parent[r]`` (``-1`` for a one-item row) plus the item
    ``item[r]``, and ``count[r]``, ``n[r]``, ``total[r]``,
    ``total_sq[r]`` are its :class:`OutcomeStats` fields. Rows are in
    canonical order: lexicographic on the id tuples, a prefix before
    its extensions, which is the depth-first order of the search, so
    ``parent[r] < r``. The id matrix ``ids`` (each row's item ids in
    ascending order, padded with ``-1`` to the widest itemset) is built
    from the tree on its first read and kept. Iterating yields
    :class:`MinedItemset` objects.
    """

    __slots__ = ("parent", "item", "count", "n", "total", "total_sq", "_ids")

    def __init__(
        self,
        parent: np.ndarray,
        item: np.ndarray,
        count: np.ndarray,
        n: np.ndarray,
        total: np.ndarray,
        total_sq: np.ndarray,
    ):
        parent = np.asarray(parent, dtype=np.int64)
        if not parent.shape == np.shape(item) == np.shape(count):
            raise ValueError("parent and item need one entry per itemset")
        # Checked before the object holds the tree (a rejected object's
        # repr must not walk it): every walk up the tree ends because
        # each parent row comes earlier.
        if not ((parent >= -1) & (parent < np.arange(len(parent)))).all():
            raise ValueError("each row's parent must be an earlier row or -1")
        self.parent = parent
        self.item = np.asarray(item, dtype=np.int64)
        self.count = np.asarray(count, dtype=np.int64)
        self.n = np.asarray(n, dtype=np.int64)
        self.total = np.asarray(total, dtype=np.float64)
        self.total_sq = np.asarray(total_sq, dtype=np.float64)
        for column in (
            self.parent, self.item, self.count, self.n, self.total, self.total_sq
        ):
            column.flags.writeable = False
        self._ids: np.ndarray | None = None

    @classmethod
    def empty(cls) -> "MinedColumns":
        return cls([], [], [], [], [], [])

    @property
    def ids(self) -> np.ndarray:
        """The ``-1``-padded id matrix, built on first read."""
        if self._ids is None:
            ids = PrefixTree(self.parent, self.item).ids(np.arange(len(self)))
            ids.flags.writeable = False
            self._ids = ids
        return self._ids

    def lengths(self) -> np.ndarray:
        """Number of items of each itemset."""
        return PrefixTree(self.parent, self.item).lengths(np.arange(len(self)))

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
            (
                self.parent, self.item, self.count, self.n, self.total,
                self.total_sq,
            ),
        )

    def __repr__(self) -> str:
        width = int(self.lengths().max(initial=0))
        return f"MinedColumns(itemsets={len(self)}, width={width})"


class PrefixTree:
    """Itemsets as a read-only prefix tree.

    Node ``j`` is the itemset of node ``parent[j]`` plus the item
    ``item[j]``, where ``-1 <= parent[j] < j``; node ``-1`` is the
    empty itemset. The stored arrays
    end in a root slot that node ``-1`` indexes: its item is ``-1``
    and its parent is itself, so a walk up the tree needs no test for
    the root. Every query reads only the given nodes' paths to the
    root, one gather per level.
    """

    __slots__ = ("parent", "item")

    def __init__(self, parent: Sequence[int], item: Sequence[int]):
        self.parent = np.append(np.asarray(parent, dtype=np.int64), -1)
        self.item = np.append(np.asarray(item, dtype=np.int64), -1)
        self.parent.flags.writeable = self.item.flags.writeable = False

    def paths(self, nodes: np.ndarray) -> np.ndarray:
        """The nodes' itemsets, right-aligned: row ``r`` holds the items
        on the path from the root to ``nodes[r]`` in path order
        (ascending, for a mined tree), after as many ``-1`` as make it
        as long as the longest."""
        columns = []
        up = nodes
        while up.max(initial=-1) >= 0:
            columns.append(self.item[up])
            up = self.parent[up]
        if not columns:
            return np.full((len(nodes), 0), -1, dtype=np.int64)
        return np.stack(columns[::-1], axis=1)

    def ids(self, nodes: np.ndarray) -> np.ndarray:
        """:meth:`paths` left-aligned: each row's items first, then
        ``-1`` padding, as wide as the longest itemset."""
        paths = self.paths(nodes)
        filled = paths >= 0
        lengths = np.count_nonzero(filled, axis=1)
        ids = np.full(paths.shape, -1, dtype=np.int64)
        # Row by row, the items keep their order in both layouts.
        ids[np.arange(paths.shape[1]) < lengths[:, None]] = paths[filled]
        return ids

    def lengths(self, nodes: np.ndarray) -> np.ndarray:
        """The number of items of each node's itemset."""
        lengths = np.zeros(len(nodes), dtype=np.int64)
        up = nodes
        while up.max(initial=-1) >= 0:
            lengths += up >= 0
            up = self.parent[up]
        return lengths


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
    *,
    polarity: bool = False,
    polarize_attributes: Iterable[str] | None = None,
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
        runs inside a ``bitset`` span, the engine records its per-level
        ``mining.*`` counters (``mining.frequent.level_N`` from each
        level's survivors), and ``mining.frequent_itemsets`` is counted
        here from the mined rows.
    polarity:
        Polarity pruning (§V-C): keep only the itemsets that do not
        mix items of positive and negative polarity
        (:func:`repro.core.mining.bitset.item_polarities`), pruned inside
        the one search.
    polarize_attributes:
        With ``polarity``, the attributes whose items get a polarity
        (default: those of interval items). A name that matches no item
        of ``universe`` raises :class:`ValueError`, and so does passing
        it without ``polarity``.
    """
    from repro.core.mining.bitset import BitsetEngine, item_polarities

    resolve_backend(backend)
    resolve_n_jobs(n_jobs)
    if polarize_attributes is not None and not polarity:
        raise ValueError("polarize_attributes needs polarity=True")
    obs = resolve_obs(obs)
    if engine is None:
        engine = BitsetEngine(universe)
    polarities = None
    if polarity:
        polarities = np.array(
            item_polarities(universe, polarize_attributes, engine),
            dtype=np.int64,
        )
        if obs.enabled:
            obs.count("polarity.positive_items", int((polarities > 0).sum()))
            obs.count("polarity.negative_items", int((polarities < 0).sum()))
            obs.count("polarity.neutral_items", int((polarities == 0).sum()))
            # Always 0: the one search mines each itemset once. Kept
            # while perfbench/run.py derives polarity.dup_ratio from it.
            obs.count("polarity.duplicates_merged", 0)
    prev_engine_obs = engine.obs
    if obs.enabled:
        engine.obs = obs
    try:
        with obs.span("bitset", min_support=min_support) as span:
            mined = engine.mine(min_support, max_length, polarities)
            if obs.enabled:
                obs.count("mining.frequent_itemsets", len(mined))
                # Set before the close, so the span_close event has them.
                span.set(itemsets=len(mined), packed_words=engine.n_words)
    finally:
        engine.obs = prev_engine_obs
    return mined
