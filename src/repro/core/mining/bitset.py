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

and candidate evaluation is *batched*: all sibling extensions of a
prefix are intersected and counted in one fused numpy call, and each
survivor's cover is handed down the depth-first recursion, so no cover
is ever rebuilt.

Statistics are bit-identical to :meth:`EncodedUniverse.stats_of_mask`:
counts are exact integers from popcounts, and numeric totals reuse the
universe's own ``_o @ mask`` dot product on the unpacked cover.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.divergence import OutcomeStats, min_support_count
from repro.core.mining.transactions import EncodedUniverse, MinedItemset
from repro.obs.collector import AnyCollector, resolve_obs

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
_LUT16: np.ndarray | None = None


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
        Optional :class:`repro.obs.ObsCollector`; per-DFS-step candidate
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
        outcome bitmap (exact integers). Numeric outcomes unpack the
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
        bools = unpack_cover(covers, self.n_rows)
        totals = np.empty(len(covers), dtype=np.float64)
        totals_sq = np.empty(len(covers), dtype=np.float64)
        for j in range(len(covers)):
            totals[j] = float(u._o @ bools[j])
            totals_sq[j] = float(u._o2 @ bools[j])
        return ns, totals, totals_sq

    def restricted(self, item_ids: Iterable[int]) -> "BitsetEngine":
        """An engine over a sub-universe, sharing the packed rows.

        Used by polarity pruning: the positive- and negative-polarity
        explorations slice the already-packed item words instead of
        re-packing their masks.
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

    def frequent_roots(
        self, min_support: float
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Level-1 scan: (frequent item ids, their covers, counts)."""
        min_count = self._min_count(min_support)
        counts = self.item_counts()
        keep = np.nonzero(counts >= min_count)[0]
        return keep.tolist(), self.item_words[keep], counts[keep]

    def _min_count(self, min_support: float) -> int:
        if not 0.0 < min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        return min_support_count(min_support, self.n_rows)

    def mine(
        self, min_support: float, max_length: int | None = None
    ) -> list[MinedItemset]:
        """Mine all frequent itemsets depth-first over packed covers.

        Emits itemsets in DFS order (candidate items in universe
        order), so the output is deterministic and identical to the
        concatenation of :meth:`mine_subtree` over the frequent roots.
        """
        min_count = self._min_count(min_support)
        raw: list[tuple[tuple[int, ...], int, int, float, float]] = []
        candidates = np.arange(self.universe.n_items())
        if len(candidates) and (max_length is None or max_length > 0):
            self._extend((), None, candidates, min_count, max_length, raw)
        return raw_to_mined(raw)

    def mine_subtree(
        self,
        root: int,
        tail: Sequence[int],
        min_support: float,
        max_length: int | None = None,
    ) -> list[tuple[tuple[int, ...], int, int, float, float]]:
        """Mine the DFS subtree of one first-level item, in raw form.

        ``tail`` is the root's candidate extensions (frequent items
        after it, different attribute). Returns raw tuples
        ``(itemset ids, count, n, Σo, Σo²)`` — cheap to pickle across
        the parallel fan-out; :func:`raw_to_mined` materializes them.
        """
        min_count = self._min_count(min_support)
        cover = self.item_words[root]
        count = int(popcount_rows(cover))
        if count < min_count:
            return []
        ns, totals, totals_sq = self._stat_components(cover[None, :], [count])
        results: list[tuple[tuple[int, ...], int, int, float, float]] = [
            ((root,), count, int(ns[0]), float(totals[0]), float(totals_sq[0]))
        ]
        if (max_length is None or max_length > 1) and len(tail):
            self._extend(
                (root,), cover, np.asarray(tail, dtype=np.int64),
                min_count, max_length, results,
            )
        return results

    def _extend(
        self,
        prefix: tuple[int, ...],
        prefix_cover: np.ndarray | None,
        candidates: np.ndarray,
        min_count: int,
        max_length: int | None,
        results: list,
    ) -> None:
        """One batched DFS step: evaluate all extensions of ``prefix``.

        All candidate covers are intersected and popcounted in fused
        vector calls; survivors get their statistics from one batched
        aggregation, then each is recursed into with the remaining
        later siblings of a different attribute.
        """
        covers = self.item_words[candidates]
        if prefix_cover is not None:
            covers = covers & prefix_cover
        counts = popcount_rows(covers)
        keep = counts >= min_count
        kept_ids = candidates[keep]
        if self.obs.enabled:
            self.obs.count("mining.candidates", len(candidates))
            self.obs.count("mining.support_pruned", len(candidates) - int(kept_ids.size))
            self.obs.count("mining.rows_scanned", len(candidates) * self.n_rows)
        if not kept_ids.size:
            return
        kept_covers = covers[keep]
        kept_counts = counts[keep]
        ns, totals, totals_sq = self._stat_components(kept_covers, kept_counts)
        can_extend = max_length is None or len(prefix) + 1 < max_length
        kept_codes = self._attr_codes[kept_ids]
        id_list = kept_ids.tolist()
        top_level = not prefix
        if top_level:
            # Work accounting in frequent level-1 roots — the same unit
            # the parallel fan-out counts shards in, so progress totals
            # are identical across n_jobs.
            self.obs.progress("mine", advance=0, expect=len(id_list))
        for pos, i in enumerate(id_list):
            itemset = prefix + (i,)
            results.append(
                (
                    itemset,
                    int(kept_counts[pos]),
                    int(ns[pos]),
                    float(totals[pos]),
                    float(totals_sq[pos]),
                )
            )
            if can_extend:
                rest = kept_ids[pos + 1 :]
                if rest.size:
                    nxt = rest[kept_codes[pos + 1 :] != kept_codes[pos]]
                    if nxt.size:
                        self._extend(
                            itemset, kept_covers[pos], nxt,
                            min_count, max_length, results,
                        )
            if top_level:
                self.obs.progress("mine", root=i)
                self.obs.checkpoint("mine")

    def __repr__(self) -> str:
        kind = "boolean" if self.boolean else "numeric"
        return (
            f"BitsetEngine(items={self.universe.n_items()}, "
            f"rows={self.n_rows}, words={self.n_words}, outcome={kind})"
        )


def raw_to_mined(
    raw: Iterable[tuple[tuple[int, ...], int, int, float, float]]
) -> list[MinedItemset]:
    """Materialize raw ``(ids, count, n, Σo, Σo²)`` tuples."""
    return [
        MinedItemset(frozenset(ids), OutcomeStats(c, n, t, t2))
        for ids, c, n, t, t2 in raw
    ]
