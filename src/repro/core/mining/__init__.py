"""Frequent-pattern mining with in-pass divergence accumulation.

One engine, the level-batched packed-bitset search
(:class:`BitsetEngine`), mines all frequent itemsets over an encoded
item universe while accumulating the outcome sufficient statistics of
every itemset, so divergence and significance come out of the mining
pass for free (Algorithm 1 of the paper). :func:`mine` returns them as
one :class:`MinedColumns` (an id matrix plus statistic columns, in
canonical order); with ``n_jobs != 1`` it shards first-level prefixes
across worker processes (:mod:`repro.core.mining.parallel`).

The *generalized* universe (:func:`generalized_universe`) augments the
item set with every hierarchy-internal item; transactions are extended
with ancestors (the Srikant–Agrawal "Cumulate" encoding), and the
one-item-per-attribute rule keeps ancestor/descendant pairs from ever
sharing an itemset.
"""

from repro.core.mining.bitset import BitsetEngine
from repro.core.mining.generalized import base_universe, generalized_universe
from repro.core.mining.parallel import mine_parallel
from repro.core.mining.transactions import (
    BACKENDS,
    EncodedUniverse,
    MinedColumns,
    MinedItemset,
    mine,
)

__all__ = [
    "BACKENDS",
    "BitsetEngine",
    "EncodedUniverse",
    "MinedColumns",
    "MinedItemset",
    "base_universe",
    "generalized_universe",
    "mine",
    "mine_parallel",
]
