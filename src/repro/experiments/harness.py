"""Shared experiment plumbing.

The sweeps of Section VI repeatedly (a) load a dataset, (b) evaluate
its outcome, (c) discretize, and (d) explore at several support
thresholds. :class:`ExperimentContext` caches (a)–(b) per dataset so a
sweep pays generation cost once; the ``run_*`` helpers implement the
three exploration settings the paper compares (manual / tree-base /
tree-generalized).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ExploreConfig
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.items import Item
from repro.core.results import ResultSet
from repro.core.session import ExploreSession
from repro.datasets import compas_manual_items, load_dataset
from repro.datasets.base import Dataset
from repro.obs.collector import AnyCollector
from repro.tabular import Table

#: Row counts used by the benchmark harness. The paper runs full-size
#: datasets on a 128 GB Core i9; these scaled sizes keep every bench
#: laptop-friendly while preserving the anomaly structure (generators
#: plant region-based anomalies whose support is size-invariant).
BENCH_SIZES: dict[str, int | None] = {
    "adult": 12_000,
    "bank": 12_000,
    "compas": None,          # paper size (6,172) is already small
    "folktables": 30_000,
    "german": None,          # 1,000
    "intentions": 6_000,     # 11 continuous attrs -> largest lattices
    "synthetic-peak": None,  # 10,000
    "wine": 5_000,           # 11 continuous attrs -> largest lattices
}


@dataclass
class ExperimentContext:
    """A dataset prepared for exploration: features + outcome values."""

    dataset: Dataset
    features: Table
    outcomes: np.ndarray
    _tree_cache: dict = field(default_factory=dict, repr=False)
    _session: ExploreSession | None = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.dataset.name

    def global_mean(self) -> float:
        return float(np.nanmean(self.outcomes))

    def session(self) -> ExploreSession:
        """The context's warm :class:`ExploreSession` (built lazily).

        One session per context, carrying the dataset's predefined
        hierarchies; sweep experiments run on it so discretization,
        encoding and mined results are shared across points.
        """
        if self._session is None:
            self._session = ExploreSession(
                self.features,
                self.outcomes,
                hierarchies=self.dataset.hierarchies,
            )
        return self._session

    def leaf_items(
        self, tree_support: float, criterion: str
    ) -> dict[str, list[Item]]:
        """Tree-discretization leaf items per continuous attribute.

        Cached per (tree_support, criterion) — sweeps over the
        exploration support reuse the same trees, as in the paper.
        The trees themselves come from the context's session cache.
        """
        key = (tree_support, criterion)
        if key not in self._tree_cache:
            session = self.session()
            self._tree_cache[key] = {
                a: session.tree(a, tree_support, criterion).leaf_items()
                for a in self.features.continuous_names
            }
        return self._tree_cache[key]


def load_context(name: str, scaled: bool = True, **kwargs) -> ExperimentContext:
    """Load a dataset and evaluate its outcome once.

    ``scaled=True`` applies :data:`BENCH_SIZES`; pass ``scaled=False``
    (or an explicit ``n_rows``) for paper-size runs.
    """
    if scaled and "n_rows" not in kwargs:
        size = BENCH_SIZES.get(name)
        if size is not None:
            kwargs["n_rows"] = size
    dataset = load_dataset(name, **kwargs)
    features = dataset.features()
    outcomes = dataset.outcome().values(dataset.table)
    return ExperimentContext(dataset, features, outcomes)


def run_base(
    ctx: ExperimentContext,
    support: float,
    tree_support: float = 0.1,
    criterion: str = "divergence",
    max_length: int | None = None,
    obs: AnyCollector | None = None,
) -> ResultSet:
    """Base exploration over tree-discretization *leaf* items."""
    config = ExploreConfig(
        min_support=support, tree_support=tree_support, criterion=criterion,
        max_length=max_length, obs=obs,
    )
    explorer = DivExplorer(config)
    return explorer.explore(
        ctx.features,
        ctx.outcomes,
        continuous_items=ctx.leaf_items(tree_support, criterion),
    )


def run_hierarchical(
    ctx: ExperimentContext,
    support: float,
    tree_support: float = 0.1,
    criterion: str = "divergence",
    polarity: bool = False,
    max_length: int | None = None,
    obs: AnyCollector | None = None,
) -> ResultSet:
    """Generalized (hierarchical) exploration, the H-DivExplorer path.

    Predefined categorical hierarchies of the dataset (folktables OCCP
    and POBP) are passed through automatically.
    """
    config = ExploreConfig(
        min_support=support, tree_support=tree_support, criterion=criterion,
        polarity=polarity, max_length=max_length, obs=obs,
    )
    explorer = HDivExplorer(config)
    return explorer.explore(
        ctx.features,
        ctx.outcomes,
        hierarchies=ctx.dataset.hierarchies,
    )


def run_manual(
    ctx: ExperimentContext,
    support: float,
    max_length: int | None = None,
    obs: AnyCollector | None = None,
) -> ResultSet:
    """Base exploration over the manual discretization (compas only)."""
    if ctx.name != "compas":
        raise ValueError("a manual discretization exists only for compas")
    explorer = DivExplorer(ExploreConfig(
        min_support=support, max_length=max_length, obs=obs,
    ))
    return explorer.explore(
        ctx.features, ctx.outcomes, continuous_items=compas_manual_items()
    )


def run_quantile_base(
    ctx: ExperimentContext,
    support: float,
    n_bins: int,
    obs: AnyCollector | None = None,
) -> ResultSet:
    """Base exploration over quantile bins (Figure 7 baseline)."""
    from repro.core.discretize import quantile_items

    items = {
        a: quantile_items(ctx.features, a, n_bins)
        for a in ctx.features.continuous_names
    }
    explorer = DivExplorer(ExploreConfig(
        min_support=support, obs=obs,
    ))
    return explorer.explore(ctx.features, ctx.outcomes, continuous_items=items)
