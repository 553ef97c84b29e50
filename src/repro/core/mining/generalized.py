"""Builders for base (flat) and generalized (hierarchical) universes.

In the generalized universe the item list includes *every* hierarchy
item (roots excluded), so each instance's transaction automatically
contains its leaf item plus all ancestors — the extended-transaction
encoding of generalized frequent pattern mining. The
one-item-per-attribute rule enforced by the engine keeps
ancestor/descendant pairs out of itemsets.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.hierarchy import HierarchySet
from repro.core.items import CategoricalItem, Item, MissingItem
from repro.core.mining.transactions import EncodedUniverse
from repro.core.outcomes import Outcome
from repro.obs.collector import AnyCollector, resolve_obs
from repro.tabular import Table


def categorical_items(table: Table, attribute: str) -> list[CategoricalItem]:
    """The flat items ``A = a`` for every category of the attribute."""
    col = table.categorical(attribute)
    return [CategoricalItem(attribute, v) for v in col.categories]


def missing_items(
    table: Table, attributes: Iterable[str] | None = None
) -> list[MissingItem]:
    """``A = ⊥`` items for every attribute that has missing values."""
    if attributes is None:
        attributes = table.column_names
    return [
        MissingItem(a) for a in attributes if table[a].missing_mask().any()
    ]


def base_universe(
    table: Table,
    outcome: Outcome | np.ndarray,
    continuous_items: dict[str, Iterable[Item]],
    categorical_attributes: Iterable[str] | None = None,
    extra_items: Iterable[Item] = (),
    include_missing_items: bool = False,
    obs: AnyCollector | None = None,
) -> EncodedUniverse:
    """Build the flat item universe used by non-hierarchical methods.

    Parameters
    ----------
    table:
        The dataset.
    outcome:
        Outcome function or precomputed array.
    continuous_items:
        For each continuous attribute to include, its (disjoint)
        discretization items — e.g. tree leaves or quantile bins.
    categorical_attributes:
        Categorical attributes to include with one item per value;
        defaults to all categorical columns.
    extra_items:
        Any additional items to append verbatim.
    include_missing_items:
        Add an ``A = ⊥`` item for every included attribute with
        missing values, so missingness itself can form subgroups.
    obs:
        Optional collector; the mask evaluation runs in an ``encode``
        span and the universe shape is recorded as gauges.
    """
    obs = resolve_obs(obs)
    items: list[Item] = []
    covered: list[str] = []
    for attribute, attr_items in continuous_items.items():
        items.extend(attr_items)
        covered.append(attribute)
    if categorical_attributes is None:
        categorical_attributes = table.categorical_names
    for attribute in categorical_attributes:
        items.extend(categorical_items(table, attribute))
        covered.append(attribute)
    if include_missing_items:
        items.extend(missing_items(table, covered))
    items.extend(extra_items)
    with obs.span("encode", kind="base") as span:
        universe = EncodedUniverse.from_table(table, items, outcome)
    _record_universe(obs, span, universe)
    return universe


def generalized_universe(
    table: Table,
    outcome: Outcome | np.ndarray,
    hierarchies: HierarchySet,
    categorical_attributes: Iterable[str] | None = None,
    extra_items: Iterable[Item] = (),
    include_missing_items: bool = False,
    obs: AnyCollector | None = None,
) -> EncodedUniverse:
    """Build the generalized item universe over hierarchies.

    Every item of every hierarchy (roots excluded) joins the universe.
    Categorical attributes without a hierarchy contribute their flat
    value items, exactly as in the base universe. With
    ``include_missing_items``, an ``A = ⊥`` item is added for every
    covered attribute that has missing values. With ``obs`` enabled,
    the mask evaluation runs in an ``encode`` span and the universe
    shape (items, hierarchy items, rows) is recorded as gauges.
    """
    obs = resolve_obs(obs)
    items: list[Item] = list(hierarchies.all_items(include_roots=False))
    n_hierarchy_items = len(items)
    if categorical_attributes is None:
        categorical_attributes = [
            a for a in table.categorical_names if a not in hierarchies
        ]
    else:
        categorical_attributes = [
            a for a in categorical_attributes if a not in hierarchies
        ]
    for attribute in categorical_attributes:
        items.extend(categorical_items(table, attribute))
    if include_missing_items:
        covered = list(hierarchies.attributes) + list(categorical_attributes)
        items.extend(missing_items(table, covered))
    items.extend(extra_items)
    with obs.span("encode", kind="generalized") as span:
        universe = EncodedUniverse.from_table(table, items, outcome)
    if obs.enabled:
        obs.gauge("universe.hierarchy_items", n_hierarchy_items)
    _record_universe(obs, span, universe)
    return universe


def _record_universe(obs: AnyCollector, span, universe: EncodedUniverse) -> None:
    if not obs.enabled:
        return
    obs.gauge("universe.items", universe.n_items())
    obs.gauge("universe.rows", universe.n_rows)
    span.set(items=universe.n_items(), rows=universe.n_rows)
