"""Packed-bitset mining engine — the one miner.

The hot path of mining is *cover algebra*: intersect the row covers of
items, count the surviving rows, and aggregate the outcome over them.
:class:`BitsetEngine` packs each item's boolean row mask into a
``numpy.uint64`` bit array (64 rows per word) so that

- itemset intersection is a vectorized ``np.bitwise_and``,
- support counting is a popcount kernel over the packed words,
- outcome aggregation is either a popcount against the packed
  outcome bitmap (boolean outcomes — the common error-rate case) or a
  masked dot product against the raw outcome vector (numeric
  outcomes),

and the search is *level-batched*: each frequent root's subtree is
mined one lattice level at a time, every candidate of a level going
through one fused intersect–popcount–filter–aggregate step, and the
next level's candidates come from array arithmetic. The output is one
:class:`~repro.core.mining.transactions.MinedColumns` (an id matrix
plus statistic columns) in canonical order.

Statistics are bit-identical to :meth:`EncodedUniverse.stats_of_mask`:
counts are exact integers from popcounts, and numeric totals reuse the
universe's own ``_o @ mask`` dot product on the unpacked cover.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.divergence import OutcomeStats, min_support_count
from repro.core.mining.transactions import EncodedUniverse, MinedColumns
from repro.obs.collector import AnyCollector, resolve_obs

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
_LUT16: np.ndarray | None = None

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
    """Set-bit count along the last axis of a packed uint64 array."""
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    lut = _popcount_lut()
    return lut[words.view(np.uint16)].sum(axis=-1, dtype=np.int64)


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
            pack_mask(universe._o != 0.0) if self.boolean else None
        )
        self._attr_codes = self._encode_attributes(universe.attribute_of)

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

    def restricted(self, item_ids: Iterable[int]) -> "BitsetEngine":
        """An engine over a sub-universe, sharing the packed rows.

        Used by polarity pruning: the positive- and negative-polarity
        explorations slice the already-packed item words instead of
        re-packing their masks. The sub-universe is ``sub.universe``.
        """
        ids = sorted(set(item_ids))
        sub = BitsetEngine.__new__(BitsetEngine)
        sub.obs = self.obs
        sub.universe = self.universe.restricted(ids)
        sub.n_rows = self.n_rows
        sub.item_words = self.item_words[ids]
        sub.n_words = self.n_words
        sub.all_valid = self.all_valid
        sub.valid_words = self.valid_words
        sub.boolean = self.boolean
        sub.outcome_words = self.outcome_words
        sub._attr_codes = self._attr_codes[ids]
        return sub

    # -- mining -----------------------------------------------------------

    def shards(self, min_support: float) -> list[tuple[int, np.ndarray]]:
        """The frequent roots, each with its tail, in id order.

        A root is a frequent item; its tail holds the frequent items
        after it of a different attribute, the level-2 candidates of its
        subtree. Roots are the unit of :meth:`mine` progress and
        deadline checkpoints, and the shards of the parallel fan-out.
        """
        min_count = self._min_count(min_support)
        roots = np.flatnonzero(self.item_counts() >= min_count)
        codes = self._attr_codes[roots]
        return [
            (root, roots[pos + 1 :][codes[pos + 1 :] != codes[pos]])
            for pos, root in enumerate(roots.tolist())
        ]

    def _min_count(self, min_support: float) -> int:
        if not 0.0 < min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        return min_support_count(min_support, self.n_rows)

    def mine(
        self, min_support: float, max_length: int | None = None
    ) -> MinedColumns:
        """Mine all frequent itemsets, one frequent root at a time.

        Rows come in canonical order, which is the concatenation of
        :meth:`mine_subtree` over :meth:`shards`.
        """
        n_items = self.universe.n_items()
        shards = self.shards(min_support)
        if not n_items or (max_length is not None and max_length < 1):
            return MinedColumns.empty()
        self._count_step(n_items, len(shards))
        # Work accounting in frequent roots: the unit the parallel
        # fan-out counts shards in, so progress totals match across n_jobs.
        self.obs.progress("mine", advance=0, expect=len(shards))
        parts = []
        for root, tail in shards:
            parts.append(self.mine_subtree(root, tail, min_support, max_length))
            self.obs.progress("mine", root=root)
            self.obs.checkpoint("mine")
        return MinedColumns.concat(parts)

    def mine_subtree(
        self,
        root: int,
        tail: Sequence[int],
        min_support: float,
        max_length: int | None = None,
    ) -> MinedColumns:
        """Mine the subtree of one root, level by level, root included.

        ``tail`` is the root's level-2 candidates (see :meth:`shards`).
        Level ``k`` holds the subtree's frequent ``k``-itemsets with
        their covers. Its candidates pair each node with every later
        sibling (same parent) of a different attribute, exactly the
        extensions a depth-first search tries, and go through
        :meth:`_fused_step` together. The rows are returned in
        canonical order.
        """
        min_count = self._min_count(min_support)
        covers = self.item_words[root : root + 1]
        counts = popcount_rows(covers)
        if counts[0] < min_count:
            return MinedColumns.empty()
        ids = np.array([[root]], dtype=np.int64)
        levels = [MinedColumns(ids, counts, *self._stat_components(covers, counts))]
        parents = np.zeros(len(tail), dtype=np.int64)
        items = np.asarray(tail, dtype=np.int64)
        while items.size and (max_length is None or ids.shape[1] < max_length):
            kept, covers, counts, stats = self._fused_step(
                covers, parents, items, min_count
            )
            if not kept.size:
                break
            ids = np.column_stack((ids[parents[kept]], items[kept]))
            levels.append(MinedColumns(ids, counts, *stats))
            parents, items = self._next_candidates(parents[kept], items[kept])
        return MinedColumns.concat(levels).canonical()

    def _fused_step(
        self,
        covers: np.ndarray,
        parents: np.ndarray,
        items: np.ndarray,
        min_count: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """Evaluate one level's candidates: node ``parents[c]`` of the
        previous level (cover ``covers[parents[c]]``) plus ``items[c]``.

        Intersection, popcount, support filter and statistics run on
        at most :data:`STEP_BYTES` of candidate covers at a time.
        Returns the surviving candidates' positions, covers, counts and
        ``(n, Σo, Σo²)``.
        """
        step = max(1, STEP_BYTES // (8 * max(1, self.n_words)))
        parts = []
        for start in range(0, len(items), step):
            stop = start + step
            cand = covers[parents[start:stop]] & self.item_words[items[start:stop]]
            counts = popcount_rows(cand)
            keep = counts >= min_count
            cand, counts = cand[keep], counts[keep]
            parts.append(
                (np.flatnonzero(keep) + start, cand, counts,
                 *self._stat_components(cand, counts))
            )
        kept, covers, counts, *stats = (np.concatenate(col) for col in zip(*parts))
        self._count_step(len(items), len(kept))
        return kept, covers, counts, tuple(stats)

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

    def _count_step(self, candidates: int, kept: int) -> None:
        if self.obs.enabled:
            self.obs.count("mining.candidates", candidates)
            self.obs.count("mining.support_pruned", candidates - kept)
            self.obs.count("mining.rows_scanned", candidates * self.n_rows)

    def __repr__(self) -> str:
        kind = "boolean" if self.boolean else "numeric"
        return (
            f"BitsetEngine(items={self.universe.n_items()}, "
            f"rows={self.n_rows}, words={self.n_words}, outcome={kind})"
        )

