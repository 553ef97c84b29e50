"""Combined-tree discretization (the alternative of Section V-A).

The paper discusses — and argues against — building a *single* tree
over all continuous attributes jointly instead of one tree per
attribute. This module implements that alternative so the trade-off can
be measured (see ``benchmarks/bench_ablation_combined_tree.py``):

- a combined tree captures attribute interactions, but
- granularity per attribute is uncontrolled (an attribute may never be
  split once nodes reach minimum support),
- it yields no per-attribute item hierarchy — its leaves are
  *conjunctions* of interval constraints, i.e. non-overlapping
  multi-attribute subgroups, not items.

The leaves can still be consumed as a flat partition of the dataset for
leaf-based analysis, which is what the tree-based prior work ([4], the
Error Analysis dashboard) does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.discretize.criteria import (
    GainCriterion,
    _best_cut,
    _candidate_cuts,
    _outcome_values,
    _stable_order,
    get_criterion,
)
from repro.core.divergence import OutcomeStats, min_support_count
from repro.core.items import IntervalItem, Itemset
from repro.core.outcomes import Outcome
from repro.tabular import Table


@dataclass
class CombinedNode:
    """A node of the combined tree: a conjunction of interval bounds."""

    bounds: dict[str, tuple[float, float]]  # attr -> (low, high], open low
    stats: OutcomeStats
    split_attribute: str | None = None
    split_value: float | None = None
    children: tuple["CombinedNode", ...] = field(default=())

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def itemset(self) -> Itemset:
        """The node's subgroup as an itemset of interval items."""
        items = [
            IntervalItem(attr, low, high)
            for attr, (low, high) in sorted(self.bounds.items())
            if not (math.isinf(low) and math.isinf(high))
        ]
        return Itemset(items)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class CombinedTreeDiscretizer:
    """Grows one tree over all continuous attributes jointly.

    Parameters mirror :class:`TreeDiscretizer`; at each node every
    attribute's candidate thresholds compete and the jointly best split
    is taken. As there, ``max_candidates`` must be at least 1, and the
    ``"entropy"`` criterion rejects an outcome that is not boolean.
    """

    def __init__(
        self,
        min_support: float = 0.1,
        criterion: str = "divergence",
        max_candidates: int = 32,
        max_depth: int | None = None,
    ):
        if not 0.0 < min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        if max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        self.min_support = min_support
        self.criterion_name = criterion
        self.criterion: GainCriterion = get_criterion(criterion)
        self.max_candidates = max_candidates
        self.max_depth = max_depth

    def fit(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        attributes: list[str] | None = None,
    ) -> CombinedNode:
        """Grow the combined tree and return its root."""
        if attributes is None:
            attributes = table.continuous_names
        if not attributes:
            raise ValueError("need at least one continuous attribute")
        outcomes = _outcome_values(table, outcome, self.criterion_name)
        values = {a: table.continuous(a).values for a in attributes}
        n_total = table.n_rows
        min_count = min_support_count(self.min_support, n_total)
        # Rows with any NaN attribute are excluded, as in per-attribute
        # trees (they satisfy no interval item).
        keep = np.ones(n_total, dtype=bool)
        for a in attributes:
            keep &= ~np.isnan(values[a])
        rows = np.nonzero(keep)[0]
        bounds = {a: (-math.inf, math.inf) for a in attributes}
        return self._grow(
            rows, bounds, values, outcomes, min_count, n_total, depth=0
        )

    def leaf_subgroups(self, root: CombinedNode) -> list[Itemset]:
        """The non-overlapping leaf subgroups, as itemsets."""
        return [node.itemset() for node in root.walk() if node.is_leaf]

    def _grow(
        self, rows, bounds, values, outcomes, min_count, n_total, depth
    ) -> CombinedNode:
        stats = OutcomeStats.from_outcomes(outcomes[rows])
        node = CombinedNode(bounds=dict(bounds), stats=stats)
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        best_gain = -math.inf
        best: tuple[str, float, np.ndarray] | None = None
        for attr, v in values.items():
            split = self._best_split_for(
                rows, v, outcomes, min_count, n_total, stats
            )
            if split is not None and split[0] > best_gain:
                best_gain, threshold, left_mask = split
                best = (attr, threshold, left_mask)
        if best is None:
            return node
        attr, threshold, left_local = best
        left_rows = rows[left_local]
        right_rows = rows[~left_local]
        low, high = bounds[attr]
        node.split_attribute = attr
        node.split_value = threshold
        left_bounds = dict(bounds)
        left_bounds[attr] = (low, threshold)
        right_bounds = dict(bounds)
        right_bounds[attr] = (threshold, high)
        node.children = (
            self._grow(
                left_rows, left_bounds, values, outcomes, min_count,
                n_total, depth + 1,
            ),
            self._grow(
                right_rows, right_bounds, values, outcomes, min_count,
                n_total, depth + 1,
            ),
        )
        return node

    def _best_split_for(
        self, rows, v, outcomes, min_count, n_total, parent_stats
    ) -> tuple[float, float, np.ndarray] | None:
        """Best (gain, threshold, local-left-mask) on one attribute."""
        x = v[rows]
        order = _stable_order(x)
        xs = x[order]
        cuts = _candidate_cuts(
            xs, min_count, rows.size - min_count, self.max_candidates
        )
        if cuts.size == 0:
            return None
        o = outcomes[rows][order]
        defined = ~np.isnan(o)
        cum_n = np.concatenate([[0], np.cumsum(defined)])
        cum_o = np.concatenate([[0.0], np.cumsum(np.where(defined, o, 0.0))])
        best = _best_cut(
            self.criterion, parent_stats, cuts, cum_n, cum_o, 0, rows.size,
            n_total,
        )
        if best is None:
            return None
        cut, gain = best
        left_local = np.zeros(rows.size, dtype=bool)
        left_local[order[:cut]] = True
        return gain, float(xs[cut - 1]), left_local
