"""Quickstart: find anomalous subgroups in a model's errors.

Builds a small tabular dataset with a hidden error pocket, runs both
the base DivExplorer and the hierarchical H-DivExplorer, and shows why
the hierarchy matters: the anomaly spans a region that base
discretization can only reach by going below the support threshold.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import DivExplorer, ExploreConfig, HDivExplorer, Table
from repro.core.discretize import TreeDiscretizer
from repro.core.outcomes import array_outcome


def make_data(n: int = 8_000, seed: int = 3) -> tuple[Table, np.ndarray]:
    """A dataset whose model errs inside a 2-D numeric pocket."""
    rng = np.random.default_rng(seed)
    age = rng.uniform(18, 80, n)
    income = rng.lognormal(10.3, 0.5, n)
    segment = rng.choice(["consumer", "smb", "enterprise"], n, p=[0.6, 0.3, 0.1])
    # The model is wrong 40% of the time for young, low-income
    # consumers; 4% elsewhere.
    pocket = (age < 30) & (income < 25_000) & (segment == "consumer")
    errors = (rng.uniform(size=n) < np.where(pocket, 0.40, 0.04)).astype(float)
    table = Table({"age": age, "income": income, "segment": segment})
    return table, errors


def main() -> None:
    table, errors = make_data()
    outcome = array_outcome(errors, name="error", boolean=True)
    print(f"dataset: {table}")
    print(f"overall error rate: {errors.mean():.3f}\n")

    # One frozen config drives every explorer; replace() derives
    # variants (e.g. max_length=2 to cap itemset length).
    config = ExploreConfig(min_support=0.05, tree_support=0.1)

    # Hierarchical exploration: trees discretize age and income into
    # item hierarchies, mining combines items at any granularity.
    explorer = HDivExplorer(config)
    result = explorer.explore(table, outcome)
    print("H-DivExplorer top subgroups (support >= 0.05):")
    for r in result.top_k(5):
        print(f"  {r}")

    print("\nitem hierarchy discovered for 'age':")
    print(explorer.last_hierarchies_["age"].render())

    # Base exploration over the same trees' leaf items for contrast.
    discretizer = TreeDiscretizer(min_support=0.1)
    trees = discretizer.fit_all(table, outcome.values(table))
    leaves = {name: tree.leaf_items() for name, tree in trees.items()}
    base = DivExplorer(config).explore(
        table, outcome, continuous_items=leaves
    )
    print("\nbase DivExplorer (leaf items only) top subgroups:")
    for r in base.top_k(3):
        print(f"  {r}")

    print(
        f"\nmax |divergence|: hierarchical={result.max_divergence():.3f} "
        f"vs base={base.max_divergence():.3f}"
    )


if __name__ == "__main__":
    main()
