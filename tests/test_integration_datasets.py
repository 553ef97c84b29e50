"""End-to-end smoke tests: every dataset through both explorers.

Uses small generator sizes and high supports so the whole module stays
fast while still exercising dataset → outcome → discretization →
mining → ranking for each dataset family.
"""

import numpy as np
import pytest

from repro.core.discretize import TreeDiscretizer
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.datasets import load_dataset

SMALL = {
    "adult": 2_000,
    "bank": 2_000,
    "compas": 2_000,
    "folktables": 3_000,
    "german": 1_000,
    "intentions": 2_000,
    "synthetic-peak": 3_000,
    "wine": 2_000,
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_hierarchical_pipeline(name):
    ds = load_dataset(name, n_rows=SMALL[name])
    outcomes = ds.outcome().values(ds.table)
    explorer = HDivExplorer(min_support=0.15, tree_support=0.25)
    result = explorer.explore(
        ds.features(), outcomes, hierarchies=ds.hierarchies
    )
    assert len(result) > 0
    assert all(0.15 <= r.support <= 1.0 for r in result)
    assert np.isfinite(result.global_mean)
    # Discretized hierarchies satisfy Definition 4.1 on the data.
    explorer.last_hierarchies_.validate(ds.features())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_base_vs_hierarchical_consistency(name):
    ds = load_dataset(name, n_rows=SMALL[name])
    outcomes = ds.outcome().values(ds.table)
    features = ds.features()
    trees = TreeDiscretizer(0.25).fit_all(features, outcomes)
    base = DivExplorer(min_support=0.15).explore(
        features,
        outcomes,
        continuous_items={a: t.leaf_items() for a, t in trees.items()},
    )
    hier = HDivExplorer(min_support=0.15, tree_support=0.25).explore(
        features, outcomes
    )
    assert hier.max_divergence() >= base.max_divergence() - 1e-12


def test_folktables_hierarchy_items_reachable():
    """Generalized items from predefined taxonomies appear in results."""
    ds = load_dataset("folktables", n_rows=4_000)
    outcomes = ds.outcome().values(ds.table)
    result = HDivExplorer(min_support=0.1, tree_support=0.25).explore(
        ds.features(), outcomes, hierarchies=ds.hierarchies
    )
    occp_labels = {
        item.label
        for r in result
        for item in r.itemset
        if item.attribute == "OCCP"
    }
    supercategories = {"MGR", "MED", "ENG", "EDU", "SAL", "OFF", "SVC", "TRN"}
    assert occp_labels & supercategories, (
        "taxonomy supercategories should be frequent items"
    )
