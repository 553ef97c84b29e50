"""Polarity pruning (Section V-C).

When hunting for high-|Δ| itemsets, items that individually push the
statistic up are only combined with other "positive" items, and
symmetrically for "negative" items. With items split roughly in half
per attribute this prunes the lattice by ~2^(n-1) while, empirically,
preserving the maximum divergence found.

Neutral items (zero divergence, or items of attributes exempted from
polarization — the paper polarizes the tree-generated items) take part
in both explorations.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.items import IntervalItem
from repro.core.mining.bitset import BitsetEngine
from repro.core.mining.transactions import (
    EncodedUniverse,
    MinedColumns,
    mine,
    resolve_backend,
)
from repro.obs.collector import AnyCollector, resolve_obs


def item_polarities(
    universe: EncodedUniverse,
    polarize_attributes: Iterable[str] | None = None,
) -> list[int]:
    """Assign each universe item a polarity in {-1, 0, +1}.

    The polarity is the sign of the item's own divergence. Items whose
    attribute is not polarized, and items with zero or undefined
    divergence, are neutral (0).

    Parameters
    ----------
    universe:
        Encoded dataset.
    polarize_attributes:
        Attributes whose items get a polarity. Defaults to the
        attributes represented by interval items — i.e. the
        discretization-tree output, as in the paper.
    """
    if polarize_attributes is None:
        polarize_attributes = {
            it.attribute for it in universe.items if isinstance(it, IntervalItem)
        }
    else:
        polarize_attributes = set(polarize_attributes)
    global_mean = universe.global_stats().mean
    polarities: list[int] = []
    for item, stats in zip(universe.items, universe.item_stats()):
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


def mine_with_polarity(
    universe: EncodedUniverse,
    min_support: float,
    backend: str = "bitset",
    max_length: int | None = None,
    polarize_attributes: Iterable[str] | None = None,
    n_jobs: int = 1,
    engine=None,
    obs: AnyCollector | None = None,
) -> MinedColumns:
    """Mine the positive and negative polarity subspaces and merge.

    Each run uses the polarized items of one sign plus all neutral
    items; results are deduplicated (itemsets of only neutral items
    appear in both runs) and come back in canonical order. ``n_jobs``
    is forwarded to :func:`repro.core.mining.transactions.mine`; both
    subspace runs slice one engine's packed covers (``engine``, or one
    built here) instead of re-packing. ``backend`` is deprecated, as in
    ``mine``.

    With ``obs`` enabled, each subspace mines inside a
    ``polarity.positive`` / ``polarity.negative`` span and the registry
    records the item split (``polarity.positive_items`` etc.) and how
    many all-neutral itemsets the merge deduplicated.
    """
    resolve_backend(backend)
    obs = resolve_obs(obs)
    polarities = item_polarities(universe, polarize_attributes)
    positive_ids = [i for i, p in enumerate(polarities) if p >= 0]
    negative_ids = [i for i, p in enumerate(polarities) if p <= 0]
    if obs.enabled:
        obs.count("polarity.positive_items", sum(1 for p in polarities if p > 0))
        obs.count("polarity.negative_items", sum(1 for p in polarities if p < 0))
        obs.count("polarity.neutral_items", sum(1 for p in polarities if p == 0))

    if engine is None:
        engine = BitsetEngine(universe, obs=obs)

    merged = MinedColumns.empty()
    for sign, ids in (("positive", positive_ids), ("negative", negative_ids)):
        if not ids:
            continue
        with obs.span(f"polarity.{sign}", items=len(ids)) as sub_span:
            sub_engine = engine.restricted(ids)
            found = mine(
                sub_engine.universe, min_support, max_length=max_length,
                n_jobs=n_jobs, engine=sub_engine, obs=obs,
            )
            # Sub-universe id j is ids[j]; the trailing -1 keeps the
            # id matrix's -1 padding. ids ascend, so order is kept.
            original = np.append(np.asarray(ids, dtype=np.int64), -1)
            both = MinedColumns.concat([
                merged,
                MinedColumns(
                    original[found.ids], found.count, found.n,
                    found.total, found.total_sq,
                ),
            ])
            merged = both.canonical()
            if obs.enabled:
                duplicates = len(both) - len(merged)
                obs.count("polarity.duplicates_merged", duplicates)
                sub_span.set(duplicates_merged=duplicates)
    return merged
