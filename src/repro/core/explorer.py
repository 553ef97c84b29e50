"""DivExplorer: non-hierarchical (base) divergence exploration (§III-C).

Given a set of flat items and a support threshold ``s``, computes the
divergence of every frequent itemset, accumulating the outcome
statistics inside the frequent-pattern mining pass.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro.core.config import ExploreConfig, resolve_config
from repro.core.items import Item
from repro.core.mining.generalized import base_universe
from repro.core.mining.transactions import (
    EncodedUniverse,
    MinedColumns,
    PrefixTree,
    mine,
)
from repro.core.outcomes import Outcome, coerce_outcome
from repro.core.results import ResultSet, SubgroupResult
from repro.obs.collector import AnyCollector
from repro.tabular import Table


def results_from_mined(
    universe: EncodedUniverse,
    mined: MinedColumns,
    elapsed_seconds: float,
    obs: AnyCollector | None = None,
) -> ResultSet:
    """Wrap mined id-itemsets into a ranked :class:`ResultSet`.

    The results keep the mined rows' canonical order (lexicographic id
    tuples), which is independent of the engine's execution path and
    stable under support filtering: a warm `ExploreSession` replay and
    a cold run produce bit-identical sets, in the same order. Support,
    mean, divergence and Welch t are computed as columns
    (:meth:`SubgroupResult.columns_from_stats`); the result set shares
    them and the mined prefix tree (row ``r`` is its node ``r``), and
    builds no subgroup object here.
    """
    global_stats = universe.global_stats()
    columns = SubgroupResult.columns_from_stats(
        mined.count, mined.n, mined.total, mined.total_sq,
        global_stats, universe.n_rows,
    )
    return ResultSet._from_columns(
        universe.items, PrefixTree(mined.parent, mined.item),
        np.arange(len(mined)), (mined.count, *columns), global_stats,
        elapsed_seconds, obs,
    )


class DivExplorer:
    """Base (non-hierarchical) subgroup explorer.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.ExploreConfig` carrying the
        shared exploration knobs. Its field names as keyword arguments
        (``min_support=``, ``max_length=``, ``polarity=``) override it.
    include_missing_items:
        Add ``A = ⊥`` items for attributes with missing values (not
        part of the shared config).
    """

    def __init__(
        self,
        config: ExploreConfig | None = None,
        *,
        include_missing_items: bool = False,
        **kwargs,
    ):
        cfg = resolve_config(config, kwargs, owner="DivExplorer")
        self.config = cfg
        self.min_support = cfg.min_support
        self.max_length = cfg.max_length
        self.polarity = cfg.polarity
        self.obs = cfg.obs
        self.include_missing_items = include_missing_items

    def explore(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        continuous_items: dict[str, Iterable[Item]] | None = None,
        categorical_attributes: Iterable[str] | None = None,
        extra_items: Iterable[Item] = (),
    ) -> ResultSet:
        """Explore all frequent itemsets of a flat item universe.

        Parameters
        ----------
        table:
            The dataset.
        outcome:
            Any form :func:`~repro.core.outcomes.coerce_outcome`
            accepts: an :class:`Outcome`, a column name, a
            ``(y_true, y_pred)`` pair of column names or arrays, or a
            precomputed per-row array.
        continuous_items:
            Discretization items per continuous attribute (tree leaves,
            quantile bins, manual bins, ...). Continuous attributes
            not mentioned are ignored.
        categorical_attributes:
            Categorical attributes to include with one item per value;
            defaults to all categorical columns.
        extra_items:
            Additional items appended verbatim.
        """
        universe = base_universe(
            table,
            coerce_outcome(outcome),
            continuous_items or {},
            categorical_attributes,
            extra_items,
            include_missing_items=self.include_missing_items,
            obs=self.obs,
        )
        return self.explore_universe(universe)

    def explore_universe(self, universe: EncodedUniverse) -> ResultSet:
        """Explore a pre-encoded universe.

        The wall time of mining and of building the result columns
        lands on ``ResultSet.elapsed_seconds`` whether or not
        observability is on; with an enabled collector both run inside
        a ``mine`` span (with the engine's ``bitset`` span nested under
        it) and the collector travels on the returned
        :class:`ResultSet`.
        """
        obs = self.obs
        start = time.perf_counter()
        with obs.span("mine", polarity=self.polarity):
            mined = mine(
                universe, self.min_support, max_length=self.max_length,
                obs=obs, polarity=self.polarity,
            )
            result = results_from_mined(universe, mined, 0.0, obs=obs)
        result.elapsed_seconds = time.perf_counter() - start
        return result
