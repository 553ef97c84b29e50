"""H-DivExplorer: hierarchical divergence exploration (Section V).

The two-step pipeline of the paper:

1. *Hierarchical discretization* — every continuous attribute without a
   user-supplied hierarchy gets a divergence-aware discretization tree
   (support threshold ``st``), whose nodes form an item hierarchy.
2. *Generalized subgroup extraction* — generalized frequent-pattern
   mining over all hierarchies (tree-derived and predefined categorical
   ones), with divergence accumulated in-pass and, optionally, polarity
   pruning.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro.core.config import ExploreConfig, resolve_config
from repro.core.discretize.tree import TreeDiscretizer
from repro.core.hierarchy import HierarchySet, ItemHierarchy
from repro.core.mining.generalized import generalized_universe
from repro.core.mining.transactions import mine
from repro.core.outcomes import Outcome, coerce_outcome
from repro.core.polarity import mine_with_polarity
from repro.core.explorer import results_from_mined
from repro.core.results import ResultSet
from repro.obs.bundle import bundle_scope
from repro.tabular import Table


class HDivExplorer:
    """Hierarchical subgroup explorer (the paper's main contribution).

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.ExploreConfig` carrying the
        shared exploration knobs (``min_support``, ``tree_support``,
        ``criterion``, ``polarity``, ``max_length``,
        ``n_jobs``), or a bare number read as ``min_support`` (the
        historical positional form). Individual keyword arguments
        override it; renamed legacy spellings (``support=``, ``st=``,
        ``max_level=``) still work with a :class:`DeprecationWarning`.
    max_candidates:
        Candidate-threshold cap per tree node (see
        :class:`TreeDiscretizer`).
    max_depth:
        Optional cap on tree depth.
    include_missing_items:
        Add ``A = ⊥`` items for attributes with missing values.

    Attributes
    ----------
    last_hierarchies_:
        The :class:`HierarchySet` Γ used by the last ``explore`` call.
    last_discretization_seconds_:
        Wall-clock time of the last discretization step — always set by
        ``explore``, and 0.0-ish when every attribute came with a
        predefined hierarchy (the exploration time is on the returned
        :class:`ResultSet`).
    """

    def __init__(
        self,
        config: ExploreConfig | float | None = None,
        *,
        max_candidates: int = 64,
        max_depth: int | None = None,
        include_missing_items: bool = False,
        **kwargs,
    ):
        cfg = resolve_config(config, kwargs, owner="HDivExplorer")
        if kwargs:
            raise TypeError(
                f"HDivExplorer got unexpected keyword arguments "
                f"{sorted(kwargs)}"
            )
        self.config = cfg
        self.min_support = cfg.min_support
        self.tree_support = cfg.tree_support
        self.criterion = cfg.criterion
        self.polarity = cfg.polarity
        self.max_length = cfg.max_length
        self.n_jobs = cfg.n_jobs
        self.obs = cfg.obs
        self.max_candidates = max_candidates
        self.max_depth = max_depth
        self.include_missing_items = include_missing_items
        self.last_hierarchies_: HierarchySet | None = None
        self.last_discretization_seconds_: float = 0.0

    # -- pipeline steps ----------------------------------------------------

    def discretize(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        attributes: Iterable[str] | None = None,
    ) -> HierarchySet:
        """Step 1: fit discretization trees for continuous attributes."""
        outcome = coerce_outcome(outcome)
        discretizer = TreeDiscretizer(
            min_support=self.tree_support,
            criterion=self.criterion,
            max_candidates=self.max_candidates,
            max_depth=self.max_depth,
            obs=self.obs,
        )
        attrs = list(attributes) if attributes is not None else None
        return discretizer.hierarchy_set(table, outcome, attrs)

    def explore(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        hierarchies: Iterable[ItemHierarchy] | HierarchySet = (),
        continuous_attributes: Iterable[str] | None = None,
        categorical_attributes: Iterable[str] | None = None,
    ) -> ResultSet:
        """Run the full pipeline and return ranked divergent subgroups.

        Parameters
        ----------
        table:
            The dataset.
        outcome:
            Any form :func:`~repro.core.outcomes.coerce_outcome`
            accepts: an :class:`Outcome`, a column name, a
            ``(y_true, y_pred)`` pair of column names or arrays, or a
            precomputed per-row array.
        hierarchies:
            Predefined hierarchies (e.g. categorical taxonomies, or
            pre-built trees). Attributes covered here are not
            re-discretized.
        continuous_attributes:
            Continuous attributes to discretize; defaults to every
            continuous column not covered by ``hierarchies``.
        categorical_attributes:
            Categorical attributes included as flat value items when
            they have no hierarchy; defaults to all of them.
        """
        outcome = coerce_outcome(outcome)
        gamma = HierarchySet()
        provided = (
            hierarchies if isinstance(hierarchies, HierarchySet)
            else HierarchySet(hierarchies)
        )
        for h in provided:
            gamma.add(h)

        if continuous_attributes is None:
            continuous_attributes = [
                a for a in table.continuous_names if a not in gamma
            ]
        else:
            continuous_attributes = [
                a for a in continuous_attributes if a not in gamma
            ]
        obs = self.obs
        # A configured deadline_s starts counting here; the collector
        # checkpoints (per attribute fitted, per shard mined) raise
        # RunCancelled once it expires. The bundle scope is inert
        # unless config.bundle_dir is set, in which case the whole run
        # — including a crash or cancellation inside it — is captured
        # into a forensics bundle.
        obs.arm_deadline(self.config.deadline_s)
        with bundle_scope(self.config, obs, dataset=table, name="hexplore"):
            # The explicit perf_counter pairs stay (the NullCollector's
            # spans record nothing): last_discretization_seconds_ and
            # ResultSet.elapsed_seconds must be populated either way.
            start = time.perf_counter()
            with obs.span(
                "discretize", attributes=len(continuous_attributes)
            ):
                if continuous_attributes:
                    trees = self.discretize(
                        table, outcome, continuous_attributes
                    )
                    for h in trees:
                        gamma.add(h)
            self.last_discretization_seconds_ = time.perf_counter() - start
            self.last_hierarchies_ = gamma

            universe = generalized_universe(
                table, outcome, gamma, categorical_attributes,
                include_missing_items=self.include_missing_items,
                obs=obs,
            )
            obs.checkpoint("encode")
            start = time.perf_counter()
            with obs.span("mine", polarity=self.polarity):
                if self.polarity:
                    mined = mine_with_polarity(
                        universe, self.min_support,
                        max_length=self.max_length, n_jobs=self.n_jobs,
                        obs=obs,
                    )
                else:
                    mined = mine(
                        universe, self.min_support,
                        max_length=self.max_length, n_jobs=self.n_jobs,
                        obs=obs,
                    )
            elapsed = time.perf_counter() - start
            return results_from_mined(universe, mined, elapsed, obs=obs)
