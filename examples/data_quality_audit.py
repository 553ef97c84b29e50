"""Data-quality audit: missingness subgroups, model regressions,
and finding stability.

Three production questions answered on one dirty dataset:

1. Is the model unusually wrong where data is *missing*?
   (`include_missing_items` adds A=⊥ items to the universe.)
2. Where did the new model *regress* against the old one?
   (the error-difference outcome turns A/B comparison into subgroup
   discovery.)
3. Which findings are stable under resampling, and which are
   artefacts? (bootstrap stability with a frozen item vocabulary.)

Run:  python examples/data_quality_audit.py
"""

import numpy as np

from repro import DivExplorer, HDivExplorer, Table
from repro.core.outcomes import error_difference
from repro.datasets.perturb import inject_missing
from repro.experiments.stability import bootstrap_stability


def make_data(n: int = 8_000, seed: int = 9):
    rng = np.random.default_rng(seed)
    amount = rng.lognormal(5.0, 1.0, n)
    tenure = rng.uniform(0, 120, n)
    channel = rng.choice(["web", "app", "branch"], n, p=[0.5, 0.35, 0.15])
    y = (
        (amount > 200) & (tenure < 24)
        | (rng.uniform(size=n) < 0.05)
    ).astype(int)

    # Old model: uniform 6% error. New model: better overall (4%) but
    # regresses badly on branch customers with short tenure.
    flip_old = rng.uniform(size=n) < 0.06
    pred_old = np.where(flip_old, 1 - y, y)
    regression_pocket = (channel == "branch") & (tenure < 24)
    flip_new = rng.uniform(size=n) < np.where(regression_pocket, 0.35, 0.02)
    pred_new = np.where(flip_new, 1 - y, y)

    table = Table(
        {
            "amount": amount,
            "tenure": tenure,
            "channel": channel,
            "label": [str(v) for v in y],
            "pred_old": [str(v) for v in pred_old],
            "pred_new": [str(v) for v in pred_new],
        }
    )
    # Dirty pipeline: tenure goes missing for app users, and the new
    # model errs more when it is missing.
    missing = (channel == "app") & (rng.uniform(size=n) < 0.4)
    tenure_dirty = table.continuous("tenure").values.copy()
    tenure_dirty[missing] = np.nan
    table = table.with_values("tenure", tenure_dirty)
    extra_flip = missing & (rng.uniform(size=n) < 0.3)
    pred_new = np.where(extra_flip, 1 - y, pred_new)
    table = table.with_values("pred_new", [str(v) for v in pred_new])
    return table


def main() -> None:
    table = make_data()
    features = table.project(["amount", "tenure", "channel"])
    new_err = (
        np.asarray(table["pred_new"].to_list())
        != np.asarray(table["label"].to_list())
    ).astype(float)
    print(f"rows: {table.n_rows}; new-model error rate {new_err.mean():.3f}")
    print(
        "missing tenure cells: "
        f"{int(table['tenure'].missing_mask().sum())}"
    )

    # 1. Missingness-aware exploration.
    explorer = HDivExplorer(
        min_support=0.05, tree_support=0.1, include_missing_items=True
    )
    result = explorer.explore(features, new_err)
    print("\n[1] where is the new model most wrong? (A=⊥ items enabled)")
    for r in result.top_k(3):
        print(f"  {r}")

    # 2. Regression subgroups: error(new) − error(old).
    diff = error_difference("label", "pred_new", "pred_old").values(table)
    reg = DivExplorer(min_support=0.05).explore(features, diff)
    print("\n[2] where does the new model regress against the old one?")
    for r in reg.top_k(3, by="divergence"):
        print(f"  {r}")

    # 3. Stability of the findings.
    report = bootstrap_stability(
        features, new_err,
        explorer=HDivExplorer(min_support=0.05, tree_support=0.1,
                              include_missing_items=True),
        k=3, n_runs=6, seed=1,
    )
    print("\n[3] do the top findings survive resampling?")
    print(report)


if __name__ == "__main__":
    main()
