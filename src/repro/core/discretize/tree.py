"""Hierarchical attribute discretization via per-attribute trees (§V-A).

For each continuous attribute an individual binary tree is grown. The
root covers the whole range; a node is split at the threshold that
maximizes the gain criterion among thresholds leaving at least
``min_support · #D`` instances on each side. Every tree node is an
interval item, so the whole tree is an item hierarchy (Definition 4.1);
the leaves alone form a flat discretization usable by non-hierarchical
methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.discretize.criteria import (
    GainCriterion,
    _best_cut,
    _candidate_cuts,
    _outcome_values,
    _stable_order,
    get_criterion,
    mdl_accepts,
)
from repro.core.divergence import OutcomeStats, min_support_count
from repro.core.hierarchy import HierarchySet, ItemHierarchy
from repro.core.items import IntervalItem
from repro.core.outcomes import Outcome
from repro.obs.collector import AnyCollector, resolve_obs
from repro.tabular import Table

#: Prefix sums over an attribute's sorted rows: defined-outcome count,
#: outcome total and squared total.
_PrefixSums = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class DiscretizationNode:
    """One node of a discretization tree.

    Attributes
    ----------
    item:
        The interval item this node represents.
    stats:
        Outcome statistics of the instances in the interval.
    split_value:
        Threshold used to split this node (None for leaves).
    children:
        The (≤ a, > a) child nodes; empty for leaves.
    """

    item: IntervalItem
    stats: OutcomeStats
    split_value: float | None = None
    children: tuple["DiscretizationNode", ...] = field(default=())

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        """Yield this node and all descendants, depth-first preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


class AttributeTree:
    """The discretization tree of one attribute.

    Produced by :class:`TreeDiscretizer.fit`. Provides the item
    hierarchy (all nodes) and the flat leaf discretization.
    """

    def __init__(self, attribute: str, root: DiscretizationNode, n_total: int):
        self.attribute = attribute
        self.root = root
        self.n_total = n_total

    def nodes(self) -> list[DiscretizationNode]:
        return list(self.root.walk())

    def items(self, include_root: bool = False) -> list[IntervalItem]:
        """Items of all tree nodes (hierarchical item universe)."""
        items = [node.item for node in self.root.walk()]
        return items if include_root else items[1:]

    def leaf_items(self) -> list[IntervalItem]:
        """Leaf intervals: a non-overlapping flat discretization."""
        return [node.item for node in self.root.walk() if node.is_leaf]

    def to_hierarchy(self) -> ItemHierarchy:
        """Convert to an :class:`ItemHierarchy` (Definition 4.1)."""
        children = {
            node.item: tuple(c.item for c in node.children)
            for node in self.root.walk()
            if node.children
        }
        return ItemHierarchy(self.attribute, self.root.item, children)

    def depth(self) -> int:
        """Maximum node depth (root = 0)."""

        def node_depth(node: DiscretizationNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(node_depth(c) for c in node.children)

        return node_depth(self.root)

    def render(self) -> str:
        """ASCII rendering with support and statistic, as in Figure 1."""
        lines: list[str] = []

        def walk(node: DiscretizationNode, depth: int) -> None:
            sup = node.stats.count / self.n_total
            lines.append(
                "  " * depth
                + f"{node.item!s}  sup={sup:.2f}  f={node.stats.mean:.3f}"
            )
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"AttributeTree({self.attribute!r}, nodes={len(self.nodes())}, "
            f"leaves={len(self.leaf_items())})"
        )


class TreeDiscretizer:
    """Grows divergence-aware discretization trees (Section V-A).

    Parameters
    ----------
    min_support:
        The tree support threshold ``st``: every node must contain at
        least this fraction of the *whole dataset*'s instances.
    criterion:
        ``"divergence"`` (default; applicable to any outcome) or
        ``"entropy"`` (boolean outcomes only: fitting raises
        ``ValueError`` for an :class:`~repro.core.outcomes.Outcome` not
        flagged boolean, or an array with a defined value other than
        0 or 1).
    max_candidates:
        Cap (≥ 1) on the number of candidate thresholds evaluated per
        node; when a node has more distinct values, candidates are
        taken at evenly spaced positions. Keeps fitting near-linear.
        All of a node's candidates are scored in one numpy pass, with
        the same result, bit for bit, as scoring them one by one with
        the scalar criterion.
    max_depth:
        Optional depth cap (None = grow until support stops splits,
        as in the paper).
    min_gain:
        Minimum gain required to accept a split. The paper's stopping
        rule is support-only, i.e. ``min_gain = 0`` with zero-gain
        splits accepted; keep the default for faithful behaviour.
    mdl_stop:
        Apply the Fayyad–Irani MDLP test as an additional stopping rule
        (requires the ``"entropy"`` criterion). Off by default — the
        paper stops on support only.
    obs:
        Optional :class:`repro.obs.ObsCollector`; each fitted
        attribute runs in a ``fit`` span and the thresholds tried and
        splits accepted are counted, per attribute and in total.
    """

    def __init__(
        self,
        min_support: float = 0.1,
        criterion: str = "divergence",
        max_candidates: int = 64,
        max_depth: int | None = None,
        min_gain: float = 0.0,
        mdl_stop: bool = False,
        obs: AnyCollector | None = None,
    ):
        if not 0.0 < min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        if max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        if mdl_stop and criterion != "entropy":
            raise ValueError("mdl_stop requires the entropy criterion")
        self.min_support = min_support
        self.criterion_name = criterion
        self.criterion: GainCriterion = get_criterion(criterion)
        self.max_candidates = max_candidates
        self.max_depth = max_depth
        self.min_gain = min_gain
        self.mdl_stop = mdl_stop
        self.obs = resolve_obs(obs)

    # -- public API ---------------------------------------------------------

    def fit(
        self, table: Table, attribute: str, outcome: Outcome | np.ndarray
    ) -> AttributeTree:
        """Grow the discretization tree for one continuous attribute.

        Parameters
        ----------
        table:
            The dataset; its total row count defines the support scale.
        attribute:
            Name of a continuous column.
        outcome:
            The outcome function (or a precomputed per-row outcome
            array with NaN = ⊥) driving the splits.
        """
        values = table.continuous(attribute).values
        outcomes = _outcome_values(table, outcome, self.criterion_name)
        n_total = table.n_rows
        finite = ~np.isnan(values)
        order = _stable_order(values[finite])
        v = values[finite][order]
        o = outcomes[finite][order]

        # Prefix sums over the sorted order for O(1) range statistics.
        defined = ~np.isnan(o)
        o_filled = np.where(defined, o, 0.0)
        prefix = (
            np.concatenate([[0], np.cumsum(defined)]),
            np.concatenate([[0.0], np.cumsum(o_filled)]),
            np.concatenate([[0.0], np.cumsum(o_filled * o_filled)]),
        )
        min_count = min_support_count(self.min_support, n_total)
        root_item = IntervalItem(attribute)
        with self.obs.span("fit", attribute=attribute) as span:
            root = self._grow(
                v, prefix, 0, v.size, root_item, min_count, n_total, depth=0
            )
            tree = AttributeTree(attribute, root, n_total)
            if self.obs.enabled:
                span.set(
                    nodes=len(tree.nodes()), leaves=len(tree.leaf_items())
                )
        self.obs.progress("discretize", advance=1, attribute=attribute)
        self.obs.checkpoint("discretize")
        return tree

    def fit_all(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        attributes: list[str] | None = None,
    ) -> dict[str, AttributeTree]:
        """Fit an individual tree per continuous attribute.

        Returns ``{attribute: AttributeTree}``. Attributes default to
        every continuous column of the table.
        """
        if attributes is None:
            attributes = table.continuous_names
        outcomes = _outcome_values(table, outcome, self.criterion_name)
        self.obs.progress("discretize", advance=0, expect=len(attributes))
        return {a: self.fit(table, a, outcomes) for a in attributes}

    def hierarchy_set(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        attributes: list[str] | None = None,
    ) -> HierarchySet:
        """Fit trees and wrap them as a :class:`HierarchySet` (Γ)."""
        trees = self.fit_all(table, outcome, attributes)
        return HierarchySet(t.to_hierarchy() for t in trees.values())

    # -- internals -----------------------------------------------------------

    def _grow(
        self,
        v: np.ndarray,
        prefix: _PrefixSums,
        i0: int,
        i1: int,
        item: IntervalItem,
        min_count: int,
        n_total: int,
        depth: int,
    ) -> DiscretizationNode:
        stats = _range_stats(prefix, i0, i1)
        node = DiscretizationNode(item=item, stats=stats)
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        split = self._best_split(
            v, prefix, i0, i1, stats, min_count, n_total, item.attribute
        )
        if split is None:
            return node
        split_idx, split_value = split
        if self.mdl_stop and not mdl_accepts(
            stats,
            _range_stats(prefix, i0, split_idx),
            _range_stats(prefix, split_idx, i1),
        ):
            return node
        left_item = IntervalItem(
            item.attribute, item.low, split_value, item.closed_low, True
        )
        right_item = IntervalItem(
            item.attribute, split_value, item.high, False, item.closed_high
        )
        if self.obs.enabled:
            self.obs.count("discretize.splits_accepted")
            self.obs.count(f"discretize.splits_accepted.{item.attribute}")
        node.split_value = split_value
        node.children = (
            self._grow(
                v, prefix, i0, split_idx, left_item, min_count, n_total,
                depth + 1,
            ),
            self._grow(
                v, prefix, split_idx, i1, right_item, min_count, n_total,
                depth + 1,
            ),
        )
        return node

    def _best_split(
        self,
        v: np.ndarray,
        prefix: _PrefixSums,
        i0: int,
        i1: int,
        stats: OutcomeStats,
        min_count: int,
        n_total: int,
        attribute: str,
    ) -> tuple[int, float] | None:
        """Find the gain-maximizing admissible threshold in [i0, i1).

        Returns ``(split_idx, split_value)`` where rows ``[i0, split_idx)``
        go left (value ≤ split_value) and ``[split_idx, i1)`` go right,
        or None when no admissible split reaches ``min_gain``. ``stats``
        are the node's own.
        """
        cuts = _candidate_cuts(
            v, i0 + min_count, i1 - min_count, self.max_candidates
        )
        if cuts.size == 0:
            return None
        if self.obs.enabled:
            self.obs.count("discretize.splits_tried", int(cuts.size))
            self.obs.count(
                f"discretize.splits_tried.{attribute}", int(cuts.size)
            )
        cum_n, cum_o, _ = prefix
        best = _best_cut(
            self.criterion, stats, cuts, cum_n, cum_o, i0, i1, n_total
        )
        if best is None or best[1] < self.min_gain:
            return None
        return best[0], float(v[best[0] - 1])


def _range_stats(prefix: _PrefixSums, i0: int, i1: int) -> OutcomeStats:
    """Stats of rows ``[i0, i1)`` of the sorted order, from prefix sums."""
    cum_n, cum_o, cum_o2 = prefix
    return OutcomeStats(
        count=i1 - i0,
        n=int(cum_n[i1] - cum_n[i0]),
        total=float(cum_o[i1] - cum_o[i0]),
        total_sq=float(cum_o2[i1] - cum_o2[i0]),
    )
