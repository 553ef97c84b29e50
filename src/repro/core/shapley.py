"""Shapley-value attribution of divergence to individual items.

DivExplorer (the base system this paper extends) explains a divergent
itemset by the Shapley values of its items: the average marginal
contribution of each item to the subgroup's divergence over all
orderings of the items. The values sum exactly to the itemset's
divergence, so they answer "which constraint drives the anomaly?".

For an itemset ``I`` and item ``α ∈ I``::

    φ(α) = Σ_{S ⊆ I∖{α}}  |S|! (|I|−|S|−1)! / |I|!  ·  (Δ(S∪{α}) − Δ(S))

where ``Δ(S)`` is the divergence of the sub-itemset ``S``. Itemsets are
short (rarely above 5 items), so exact enumeration is cheap.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.core.items import Item, Itemset
from repro.core.outcomes import Outcome
from repro.tabular import Table


def itemset_divergences(
    table: Table, outcomes: np.ndarray, itemset: Itemset
) -> dict[frozenset[Item], float]:
    """Divergence of every sub-itemset of ``itemset``.

    The empty set has divergence 0 by definition. Sub-itemsets with no
    defined outcome get NaN.
    """
    global_mean = float(np.nanmean(outcomes))
    items = sorted(itemset.items, key=str)
    masks = {item: item.mask(table) for item in items}
    out: dict[frozenset[Item], float] = {frozenset(): 0.0}
    for k in range(1, len(items) + 1):
        for combo in combinations(items, k):
            mask = np.ones(table.n_rows, dtype=bool)
            for item in combo:
                mask &= masks[item]
            selected = outcomes[mask]
            defined = selected[~np.isnan(selected)]
            if defined.size == 0:
                out[frozenset(combo)] = float("nan")
            else:
                out[frozenset(combo)] = float(defined.mean()) - global_mean
    return out


def shapley_values(
    table: Table,
    outcome: Outcome | np.ndarray,
    itemset: Itemset,
) -> dict[Item, float]:
    """Exact Shapley attribution of the itemset's divergence to items.

    Parameters
    ----------
    table:
        The dataset.
    outcome:
        Outcome function or precomputed per-row array (NaN = ⊥).
    itemset:
        The subgroup to explain; must be non-empty.

    Returns
    -------
    ``{item: φ(item)}`` summing to the itemset's divergence. Marginal
    contributions through undefined (NaN-divergence) coalitions are
    treated as zero.
    """
    if len(itemset) == 0:
        raise ValueError("cannot attribute the empty itemset")
    if isinstance(outcome, Outcome):
        outcomes = outcome.values(table)
    else:
        outcomes = np.asarray(outcome, dtype=np.float64)
    divs = itemset_divergences(table, outcomes, itemset)
    items = sorted(itemset.items, key=str)
    n = len(items)
    phi: dict[Item, float] = {}
    for item in items:
        others = [it for it in items if it != item]
        total = 0.0
        for k in range(len(others) + 1):
            weight = (
                math.factorial(k) * math.factorial(n - k - 1)
                / math.factorial(n)
            )
            for coalition in combinations(others, k):
                before = divs[frozenset(coalition)]
                after = divs[frozenset(coalition) | {item}]
                if math.isnan(before) or math.isnan(after):
                    continue
                total += weight * (after - before)
        phi[item] = total
    return phi


def rank_items_by_contribution(
    table: Table,
    outcome: Outcome | np.ndarray,
    itemset: Itemset,
) -> list[tuple[Item, float]]:
    """Items of the subgroup sorted by |Shapley contribution|, desc."""
    phi = shapley_values(table, outcome, itemset)
    return sorted(phi.items(), key=lambda kv: -abs(kv[1]))


def global_shapley_values(results) -> dict[Item, float]:
    """Global Shapley value of each item across the explored lattice.

    Following DivExplorer's global measure: the average marginal
    contribution ``Δ(I) − Δ(I∖{α})`` of item α over all explored
    itemsets ``I ∋ α`` whose reduced itemset ``I∖{α}`` was also
    explored (support anti-monotonicity guarantees it is, whenever the
    exploration was not truncated). Items that consistently push the
    statistic away from the dataset mean get large global values.

    Parameters
    ----------
    results:
        A :class:`repro.core.results.ResultSet` (or iterable of
        :class:`SubgroupResult`).
    """
    by_itemset = {r.itemset: r.divergence for r in results}
    sums: dict[Item, float] = {}
    counts: dict[Item, int] = {}
    for itemset, delta in by_itemset.items():
        if math.isnan(delta):
            continue
        for item in itemset:
            if len(itemset) == 1:
                reduced_delta = 0.0  # Δ of the empty itemset
            else:
                reduced = Itemset(it for it in itemset if it != item)
                reduced_delta = by_itemset.get(reduced, float("nan"))
                if math.isnan(reduced_delta):
                    continue
            sums[item] = sums.get(item, 0.0) + (delta - reduced_delta)
            counts[item] = counts.get(item, 0) + 1
    return {item: sums[item] / counts[item] for item in sums}


def corrective_items(results, itemset: Itemset) -> list[tuple[Item, float]]:
    """Items that most *reduce* |divergence| when added to ``itemset``.

    DivExplorer's "corrective items": explored supersets of ``itemset``
    with one extra item, ranked by how much the extra item shrinks the
    absolute divergence. Returns ``(item, |Δ(I)| − |Δ(I∪{α})|)`` pairs,
    biggest correction first; only positive corrections are reported.
    """
    by_itemset = {r.itemset: r.divergence for r in results}
    base_delta = by_itemset.get(itemset)
    if base_delta is None:
        raise KeyError(f"itemset {itemset} was not explored")
    out: list[tuple[Item, float]] = []
    base_attrs = itemset.attributes
    for other, delta in by_itemset.items():
        if len(other) != len(itemset) + 1 or math.isnan(delta):
            continue
        if not itemset.items <= other.items:
            continue
        (extra,) = other.items - itemset.items
        if extra.attribute in base_attrs:
            continue
        correction = abs(base_delta) - abs(delta)
        if correction > 0:
            out.append((extra, correction))
    out.sort(key=lambda kv: -kv[1])
    return out

