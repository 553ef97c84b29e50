"""Polarity pruning (Section V-C) under its former entry point.

When hunting for high-|Δ| itemsets, items that individually push the
statistic up are only combined with other "positive" items, and
symmetrically for "negative" items. With items split roughly in half
per attribute this prunes the lattice by ~2^(n-1) while, empirically,
preserving the maximum divergence found.

Neutral items (zero divergence, or items of attributes exempted from
polarization — the paper polarizes the tree-generated items) combine
with either sign. The pruning runs inside the one search
(``mine(..., polarity=True)``, with the signs from
:func:`repro.core.mining.bitset.item_polarities`): a candidate that
joins two items of opposite signs is dropped before it is evaluated,
so each sign-consistent itemset is mined once. This module keeps only
:func:`mine_with_polarity`, that call under its old signature.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.mining.transactions import (
    EncodedUniverse,
    MinedColumns,
    mine,
    resolve_backend,
    resolve_n_jobs,
)
from repro.obs.collector import AnyCollector


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
    """``mine(..., polarity=True)`` under its former positional
    signature; ``backend`` and ``n_jobs`` are deprecated, as in
    ``mine``."""
    return mine(
        universe, min_support, resolve_backend(backend), max_length,
        resolve_n_jobs(n_jobs), engine, obs,
        polarity=True, polarize_attributes=polarize_attributes,
    )
