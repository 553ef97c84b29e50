"""Packed-bitset mining engine — the one miner.

The hot path of mining is *cover algebra*: intersect the row covers of
items, count the surviving rows, and aggregate the outcome over them.
:class:`BitsetEngine` packs each item's boolean row mask into a
``numpy.uint64`` bit array (64 rows per word) so that

- itemset intersection is a vectorized ``np.bitwise_and``,
- support counting is a popcount kernel over the packed words, its
  per-word counts summed per row as exact float32 (see
  :func:`popcount_rows`),
- outcome aggregation is either a popcount against the packed
  outcome bitmap (boolean outcomes — the common error-rate case) or a
  masked dot product against the raw outcome vector (numeric
  outcomes),

and the search is *level-batched*: the whole lattice is mined one
level at a time across all frequent items, every candidate of a level
going through one fused intersect–popcount–filter–aggregate step
(sliced at :data:`STEP_BYTES`; row gathers by ``np.take``, survivors
kept by index), and the next level's candidates come from array
arithmetic. Each level keeps its nodes' links to their
parents; from them the rows are scattered once into canonical
(depth-first) order. The output is one
:class:`~repro.core.mining.transactions.MinedColumns`: a prefix tree
(each row's parent row and last item) plus statistic columns.

Statistics are bit-identical to :meth:`EncodedUniverse.stats_of_mask`:
counts are exact integers from popcounts, and numeric totals reuse the
universe's own ``_o @ mask`` dot product on the unpacked cover. The
engine keeps every item's statistics once they are computed for
polarity pruning (:meth:`BitsetEngine.item_stats`).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.core.divergence import OutcomeStats, min_support_count
from repro.core.items import IntervalItem
from repro.core.mining.transactions import EncodedUniverse, MinedColumns
from repro.obs.collector import AnyCollector, resolve_obs

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
_LUT16: np.ndarray | None = None

#: Widest row :func:`popcount_rows` sums in float32: its count is at
#: most ``64 * 2**18 = 2**24``, the largest range of integers float32
#: holds exactly.
_FLOAT32_MAX_WORDS = 1 << 18

#: Byte budget of one fused mining step: the candidate covers it
#: intersects at once. A wider level runs in several steps of
#: ``STEP_BYTES // (8 * n_words)`` candidates, so the temporaries stay
#: bounded on tall tables.
STEP_BYTES = 1 << 20


def _popcount_lut() -> np.ndarray:
    """16-bit popcount lookup table (fallback for numpy < 2.0)."""
    global _LUT16
    if _LUT16 is None:
        _LUT16 = np.array(
            [bin(v).count("1") for v in range(1 << 16)], dtype=np.uint8
        )
    return _LUT16


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Set-bit count along the last axis of a packed uint64 array.

    Returns int64 counts of shape ``words.shape[:-1]``. The per-word (or,
    without ``np.bitwise_count``, per-16-bit) counts of a row are summed
    as float32 by a matrix-vector product with a ones vector, which is
    faster than numpy's int64 reduction (six times on two-word rows).
    The sum is exact: every addend is a non-negative integer, so every
    partial sum, in any order and on any number of BLAS threads, is an
    integer no larger than the row's total ``64 · W``, and float32
    holds every integer up to ``2**24``. Rows of more than
    :data:`_FLOAT32_MAX_WORDS` words, and one-word rows (where the
    product is slower), are summed in int64.
    """
    if _HAVE_BITWISE_COUNT:
        counts = np.bitwise_count(words)
    else:
        counts = _popcount_lut()[words.view(np.uint16)]
    n_words = words.shape[-1]
    if not 1 < n_words <= _FLOAT32_MAX_WORDS:
        return counts.sum(axis=-1, dtype=np.int64)
    ones = np.ones(counts.shape[-1], dtype=np.float32)
    return (counts.astype(np.float32) @ ones).astype(np.int64)


def pack_mask(masks: np.ndarray) -> np.ndarray:
    """Pack boolean masks (rows along the last axis) into uint64 words.

    Accepts ``(n,)`` or ``(k, n)`` boolean arrays; bit ``r`` of the
    packed words corresponds to row ``r`` (little-endian bit order).
    The word count is padded to a multiple of 8 bytes so the uint8
    view re-interprets cleanly as uint64.
    """
    squeeze = masks.ndim == 1
    if squeeze:
        masks = masks[None, :]
    packed = np.packbits(masks, axis=1, bitorder="little")
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros((masks.shape[0], pad), dtype=np.uint8)], axis=1
        )
    words = np.ascontiguousarray(packed).view(np.uint64)
    return words[0] if squeeze else words


def unpack_cover(cover: np.ndarray, n_rows: int) -> np.ndarray:
    """Unpack packed cover words back into a boolean row mask.

    Accepts ``(w,)`` or ``(k, w)`` word arrays and returns boolean
    arrays of shape ``(n_rows,)`` / ``(k, n_rows)``.
    """
    squeeze = cover.ndim == 1
    if squeeze:
        cover = cover[None, :]
    bits = np.unpackbits(
        cover.view(np.uint8), axis=1, bitorder="little", count=n_rows
    )
    bools = bits.view(np.bool_)
    return bools[0] if squeeze else bools


class BitsetEngine:
    """Bit-packed cover algebra over an :class:`EncodedUniverse`.

    Parameters
    ----------
    universe:
        The encoded dataset whose item masks to pack.
    obs:
        Optional :class:`repro.obs.ObsCollector`; per-step candidate
        and pruning counters are recorded when enabled.

    Attributes
    ----------
    item_words:
        ``(n_items, n_words)`` packed item covers.
    boolean:
        True when every defined outcome value is 0 or 1, enabling the
        pure-popcount aggregation path.
    """

    def __init__(
        self,
        universe: EncodedUniverse,
        obs: AnyCollector | None = None,
    ):
        self.universe = universe
        self.obs = resolve_obs(obs)
        self.n_rows = universe.n_rows
        self.item_words = pack_mask(universe.masks)
        self.n_words = self.item_words.shape[1]
        valid = universe._valid
        self.all_valid = bool(valid.all())
        self.valid_words = None if self.all_valid else pack_mask(valid)
        defined = universe.outcomes[valid]
        self.boolean = bool(np.isin(defined, (0.0, 1.0)).all())
        self.outcome_words = (
            # reprolint: disable-next-line=RPL006 (outcomes are exactly 0.0 or 1.0)
            pack_mask(universe._o != 0.0) if self.boolean else None
        )
        self._attr_codes = self._encode_attributes(universe.attribute_of)
        self._item_columns: tuple[np.ndarray, ...] | None = None

    @staticmethod
    def _encode_attributes(attributes: Sequence[str]) -> np.ndarray:
        codes: dict[str, int] = {}
        return np.array(
            [codes.setdefault(a, len(codes)) for a in attributes],
            dtype=np.int64,
        )

    # -- cover algebra ----------------------------------------------------

    def cover(self, ids: Iterable[int]) -> np.ndarray:
        """The packed cover of an itemset (all rows for the empty one)."""
        cover = np.full(self.n_words, ~np.uint64(0), dtype=np.uint64)
        tail = self.n_rows % 64
        if tail and self.n_words:
            cover[-1] = np.uint64((1 << tail) - 1)
        for i in ids:
            cover = cover & self.item_words[i]
        return cover

    def support(self, ids: Iterable[int]) -> int:
        """Number of rows covered by the itemset."""
        return int(popcount_rows(self.cover(ids)))

    def item_counts(self) -> np.ndarray:
        """Per-item support counts, one popcount pass."""
        return popcount_rows(self.item_words)

    def item_stats(self) -> list[OutcomeStats]:
        """Per-item statistics in one batched pass over the packed
        covers, bit-identical to :meth:`EncodedUniverse.item_stats`.

        The engine keeps the ``(count, n, Σo, Σo²)`` columns of that
        pass: later calls, and level 1 of :meth:`mine`, read them
        instead of aggregating the item covers again.
        """
        if self._item_columns is None:
            counts = self.item_counts()
            self._item_columns = (
                counts, *self._stat_components(self.item_words, counts)
            )
        return [
            OutcomeStats(*fields)
            for fields in zip(*(column.tolist() for column in self._item_columns))
        ]

    def stats(self, ids: Iterable[int]) -> OutcomeStats:
        """Outcome statistics of an itemset's cover."""
        cover = self.cover(ids)
        count = int(popcount_rows(cover))
        n, total, total_sq = self._stat_components(cover[None, :], [count])
        return OutcomeStats(count, int(n[0]), float(total[0]), float(total_sq[0]))

    def _stat_components(
        self, covers: np.ndarray, counts: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, Σo, Σo²) for a batch of packed covers, exactly.

        Boolean outcomes aggregate by popcount against the packed
        outcome bitmap (exact integers). Numeric outcomes unpack each
        cover and reuse the universe's own masked dot products, so the
        floating-point summation matches ``stats_of_mask`` bit for bit.
        """
        if self.all_valid:
            ns = np.asarray(counts, dtype=np.int64)
        else:
            ns = popcount_rows(covers & self.valid_words)
        if self.boolean:
            totals = popcount_rows(covers & self.outcome_words).astype(np.float64)
            return ns, totals, totals.copy()
        u = self.universe
        totals = np.empty(len(covers), dtype=np.float64)
        totals_sq = np.empty(len(covers), dtype=np.float64)
        for j, cover in enumerate(covers):
            # One cover at a time, cast once for both products: the
            # same BLAS inputs as ``_o @ mask`` on the boolean mask.
            rows = unpack_cover(cover, self.n_rows).astype(np.float64)
            totals[j] = u._o @ rows
            totals_sq[j] = u._o2 @ rows
        return ns, totals, totals_sq

    # -- mining -----------------------------------------------------------

    def _min_count(self, min_support: float) -> int:
        if not 0.0 < min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        return min_support_count(min_support, self.n_rows)

    def mine(
        self,
        min_support: float,
        max_length: int | None = None,
        polarities: np.ndarray | None = None,
    ) -> MinedColumns:
        """Mine all frequent itemsets, one lattice level at a time.

        Level 1 holds every frequent item; level ``k`` the frequent
        ``k``-itemsets with their covers. The next level's candidates
        pair every node with every later sibling (same parent) of a
        different attribute, exactly the extensions a depth-first
        search tries; the frequent items form level 1's one sibling
        run. All of a level's candidates go through :meth:`_fused_step`
        together. Each level keeps its nodes' links to their parents,
        from which :func:`_preorder` puts the rows in canonical order.

        ``polarities`` (one sign in {-1, 0, +1} per item) restricts the
        search to sign-consistent itemsets, which never hold items of
        both signs. Like the one-item-per-attribute rule, this needs
        one check per pair: both itemsets a candidate joins are
        sign-consistent, so only their two last items can disagree, and
        a pair of opposite signs is dropped before its cover is built.
        """
        min_count = self._min_count(min_support)
        n_items = self.universe.n_items()
        if not n_items or (max_length is not None and max_length < 1):
            return MinedColumns.empty()
        self.obs.progress("mine", advance=0, expect=n_items)
        counts = self.item_counts()
        items = np.flatnonzero(counts >= min_count)
        self._count_step(1, n_items, len(items))
        self.obs.progress("mine", advance=n_items)
        if not items.size:
            return MinedColumns.empty()
        covers, counts = self.item_words[items], counts[items]
        if self._item_columns is None:
            stats = self._stat_components(covers, counts)
        else:
            # Each cover's statistics are computed on their own, so the
            # slice of item_stats()'s columns has the same bits.
            stats = tuple(column[items] for column in self._item_columns[1:])
        links = np.zeros(len(items), dtype=np.int64)
        levels = [(links, items, counts, *stats)]
        while max_length is None or len(levels) < max_length:
            parents, extensions = self._next_candidates(links, items)
            if polarities is not None and extensions.size:
                opposite = polarities[items[parents]] * polarities[extensions] < 0
                self._count_polarity(len(levels) + 1, int(opposite.sum()))
                parents, extensions = parents[~opposite], extensions[~opposite]
            items = extensions
            if not items.size:
                break
            self.obs.progress("mine", advance=0, expect=len(items))
            parts = self._fused_step(covers, parents, items, min_count)
            # Free the parents' covers before the slices are joined:
            # at the widest level they, the slices and the joined copy
            # would otherwise all be live at once.
            covers = None
            kept, covers, counts, *stats = (
                np.concatenate(column) for column in zip(*parts)
            )
            parts = None
            self._count_step(len(levels) + 1, len(items), len(kept))
            self.obs.progress("mine", advance=len(items))
            if not kept.size:
                break
            links, items = parents[kept], items[kept]
            levels.append((links, items, counts, *stats))
        return _preorder(levels)

    def _fused_step(
        self,
        covers: np.ndarray,
        parents: np.ndarray,
        items: np.ndarray,
        min_count: int,
    ) -> list[tuple[np.ndarray, ...]]:
        """Evaluate one level's candidates: node ``parents[c]`` of the
        previous level (cover ``covers[parents[c]]``) plus ``items[c]``.

        Intersection, popcount, support filter and statistics run on
        at most :data:`STEP_BYTES` of candidate covers at a time, with a
        deadline checkpoint after each slice. A slice makes three passes
        over its covers: gather the parents' covers (``np.take``, which
        copies whole rows faster than fancy indexing) and AND the items'
        words into them in place; popcount (:func:`popcount_rows`); and
        gather the survivors by index, not by a 2-D boolean mask.
        Returns one tuple per slice: the surviving candidates'
        positions, covers, counts, ``n``, ``Σo`` and ``Σo²``. The caller
        joins the slices once it no longer holds the parents' covers.
        """
        step = max(1, STEP_BYTES // (8 * max(1, self.n_words)))
        parts = []
        for start in range(0, len(items), step):
            stop = start + step
            cand = np.take(covers, parents[start:stop], axis=0)
            np.bitwise_and(
                cand, np.take(self.item_words, items[start:stop], axis=0),
                out=cand,
            )
            counts = popcount_rows(cand)
            kept = np.flatnonzero(counts >= min_count)
            cand, counts = np.take(cand, kept, axis=0), counts[kept]
            parts.append(
                (kept + start, cand, counts, *self._stat_components(cand, counts))
            )
            self.obs.checkpoint("mine")
        return parts

    def _next_candidates(
        self, parents: np.ndarray, items: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The next level's ``(node, item)`` pairs for a level whose node
        ``j`` extends ``parents[j]`` with ``items[j]``: each node with
        every later sibling of a different attribute, node-major.

        Siblings are adjacent (``parents`` is sorted), so node ``j``
        pairs with the nodes after it up to the end of its sibling run.
        """
        m = len(items)
        run_ends = np.append(np.flatnonzero(np.diff(parents)) + 1, m)
        run_end = np.repeat(run_ends, np.diff(run_ends, prepend=0))
        later = run_end - np.arange(m) - 1  # siblings after each node
        node = np.repeat(np.arange(m), later)
        # Node j's p-th pair (p = 0, 1, ...) is with node j + 1 + p.
        pair = np.arange(len(node)) - np.repeat(np.cumsum(later) - later, later)
        sibling = items[node + 1 + pair]
        distinct = self._attr_codes[items[node]] != self._attr_codes[sibling]
        return node[distinct], sibling[distinct]

    def _count_step(self, level: int, candidates: int, kept: int) -> None:
        """Count one level's candidates, in total and for its length."""
        if self.obs.enabled:
            pruned = candidates - kept
            self.obs.count("mining.candidates", candidates)
            self.obs.count("mining.support_pruned", pruned)
            self.obs.count("mining.rows_scanned", candidates * self.n_rows)
            self.obs.count(f"mining.candidates.level_{level}", candidates)
            self.obs.count(f"mining.support_pruned.level_{level}", pruned)

    def _count_polarity(self, level: int, pruned: int) -> None:
        """Count one level's pairs that the sign filter drops."""
        if self.obs.enabled:
            self.obs.count("mining.polarity_pruned", pruned)
            self.obs.count(f"mining.polarity_pruned.level_{level}", pruned)

    def __repr__(self) -> str:
        kind = "boolean" if self.boolean else "numeric"
        return (
            f"BitsetEngine(items={self.universe.n_items()}, "
            f"rows={self.n_rows}, words={self.n_words}, outcome={kind})"
        )


def item_polarities(
    universe: EncodedUniverse,
    polarize_attributes: Iterable[str] | None = None,
    engine: BitsetEngine | None = None,
) -> list[int]:
    """Assign each universe item a polarity in {-1, 0, +1}.

    The polarity is the sign of the item's own divergence. Items whose
    attribute is not polarized, and items with zero or undefined
    divergence, are neutral (0). ``mine(..., polarity=True)`` passes
    these signs to :meth:`BitsetEngine.mine` (polarity pruning, §V-C).

    Parameters
    ----------
    universe:
        Encoded dataset.
    polarize_attributes:
        Attributes whose items get a polarity. Defaults to the
        attributes represented by interval items — i.e. the
        discretization-tree output, as in the paper. A name that
        matches no item of ``universe`` raises :class:`ValueError`.
    engine:
        Optional :class:`BitsetEngine` over ``universe``; the item
        statistics come from its packed covers in one pass.
    """
    if polarize_attributes is None:
        polarize_attributes = {
            it.attribute for it in universe.items if isinstance(it, IntervalItem)
        }
    else:
        polarize_attributes = set(polarize_attributes)
        unknown = sorted(polarize_attributes - set(universe.attribute_of))
        if unknown:
            raise ValueError(
                f"polarize_attributes {unknown} match no item of the universe"
            )
    if engine is None:
        engine = BitsetEngine(universe)
    global_mean = universe.global_stats().mean
    polarities: list[int] = []
    for item, stats in zip(universe.items, engine.item_stats()):
        if item.attribute not in polarize_attributes:
            polarities.append(0)
            continue
        delta = stats.mean - global_mean
        # reprolint: disable-next-line=RPL006 (exact zero = unpolarized)
        if math.isnan(delta) or delta == 0.0:
            polarities.append(0)
        else:
            polarities.append(1 if delta > 0 else -1)
    return polarities


def _preorder(levels: list[tuple]) -> MinedColumns:
    """The mined levels' rows in canonical (depth-first) order.

    ``levels[k]`` holds the frequent ``(k + 1)``-itemsets as
    ``(links, items, count, n, total, total_sq)``: node ``j`` extends
    node ``links[j]`` of the level above with ``items[j]``. Siblings
    are adjacent and ascend by item, so a node's row follows its
    parent's row and the whole subtrees of its earlier siblings. Each
    level is scattered to those positions in one step, with its
    parents' rows as the prefix tree's links: subtree sizes come
    bottom-up from the links, positions top-down.
    """
    sizes = [np.ones(len(levels[-1][0]), dtype=np.int64)]
    for k in range(len(levels) - 1, 0, -1):
        below = np.bincount(
            levels[k][0], weights=sizes[0], minlength=len(levels[k - 1][0])
        )
        sizes.insert(0, 1 + below.astype(np.int64))
    n_itemsets = int(sizes[0].sum())
    columns = [
        np.empty(n_itemsets, dtype=dtype)
        for dtype in (
            np.int64, np.int64, np.int64, np.int64, np.float64, np.float64
        )
    ]
    for k, (links, *values) in enumerate(levels):
        # Rows taken by the subtrees of the earlier nodes of this level.
        before = np.cumsum(sizes[k]) - sizes[k]
        if k == 0:
            rows, parents = before, -1
        else:
            # A sibling run starts after the children of earlier parents.
            children = sizes[k - 1] - 1
            run_start = np.cumsum(children) - children
            rows = (parent_rows - run_start + 1)[links] + before
            parents = parent_rows[links]
        columns[0][rows] = parents
        for column, value in zip(columns[1:], values):
            column[rows] = value
        parent_rows = rows
    return MinedColumns(*columns)
