"""Generators for every table and figure of the paper's evaluation.

Each ``table*``/``figure*`` function returns ``(headers, rows)`` ready
for :func:`repro.experiments.tables.render_table`; a few also return
rendered trees or interval summaries. The benchmarks wrap these; tests
assert their qualitative shape (who wins, monotonicity, stability).
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from repro.baselines import SliceFinder, SliceLine
from repro.core.items import IntervalItem, Itemset
from repro.datasets import load_dataset
from repro.experiments.harness import (
    ExperimentContext,
    load_context,
    run_base,
    run_hierarchical,
    run_manual,
    run_quantile_base,
)
from repro.obs.collector import AnyCollector, resolve_obs

#: Datasets of the Figure 2 / 3b / 4 sweeps (paper order).
FIGURE2_DATASETS = (
    "adult", "bank", "compas", "german", "intentions", "synthetic-peak",
    "wine",
)
DEFAULT_SUPPORTS = (0.05, 0.1, 0.15, 0.2)
TABLE3_SUPPORTS = (0.05, 0.025, 0.01)


# ---------------------------------------------------------------------------
# Table I — impact of #prior discretization on compas FPR subgroups.
# ---------------------------------------------------------------------------

def table1(ctx: ExperimentContext | None = None):
    """FPR / ΔFPR / support of the motivating example subgroups."""
    ctx = ctx or load_context("compas")
    table, outcomes = ctx.features, ctx.outcomes
    global_fpr = float(np.nanmean(outcomes))
    subgroups = [
        ("Entire dataset", Itemset()),
        ("#prior>3", Itemset([IntervalItem("#prior", low=3)])),
        ("#prior>8", Itemset([IntervalItem("#prior", low=8)])),
        ("age<27", Itemset([IntervalItem("age", high=26)])),
        (
            "age<27, #prior>3",
            Itemset(
                [IntervalItem("age", high=26), IntervalItem("#prior", low=3)]
            ),
        ),
    ]
    rows = []
    for label, itemset in subgroups:
        mask = itemset.mask(table)
        fpr = float(np.nanmean(outcomes[mask])) if mask.any() else float("nan")
        rows.append(
            (
                label,
                round(fpr, 3),
                round(fpr - global_fpr, 3),
                round(float(mask.mean()), 2),
            )
        )
    return ("Data subgroup", "FPR", "dFPR", "Support"), rows


# ---------------------------------------------------------------------------
# Figure 1 — the #prior item hierarchy on compas FPR.
# ---------------------------------------------------------------------------

def figure1(ctx: ExperimentContext | None = None, tree_support: float = 0.1) -> str:
    """ASCII rendering of the #prior discretization tree."""
    ctx = ctx or load_context("compas")
    tree = ctx.session().tree("#prior", tree_support, "divergence")
    return tree.render()


# ---------------------------------------------------------------------------
# Table II — dataset characteristics.
# ---------------------------------------------------------------------------

def table2():
    """|D|, |A|, numeric/categorical attribute counts per dataset.

    Generators default to their paper sizes (folktables is scaled; see
    DESIGN.md), so the row counts reproduce Table II directly.
    """
    rows = []
    for name in (
        "adult", "bank", "compas", "folktables", "german", "intentions",
        "synthetic-peak", "wine",
    ):
        ds = load_dataset(name)
        rows.append(
            (
                name,
                ds.table.n_rows,
                len(ds.feature_names),
                len(ds.continuous_features),
                len(ds.categorical_features),
            )
        )
    return ("dataset", "|D|", "|A|", "|A|num", "|A|cat"), rows


# ---------------------------------------------------------------------------
# Table III — compas top divergent itemsets per exploration approach.
# ---------------------------------------------------------------------------

def table3(
    supports: Sequence[float] = TABLE3_SUPPORTS,
    tree_support: float = 0.1,
    ctx: ExperimentContext | None = None,
):
    """Manual vs tree-base vs tree-generalized top FPR itemsets."""
    ctx = ctx or load_context("compas")
    rows = []
    for s in supports:
        settings = [
            ("Manual discretization", run_manual(ctx, s)),
            ("Tree discretization, base", run_base(ctx, s, tree_support)),
            (
                "Tree discretization, generalized",
                run_hierarchical(ctx, s, tree_support),
            ),
        ]
        for label, result in settings:
            top = result.to_rows(1, by="divergence")
            if not top:
                rows.append((s, label, "(none)", None, None, None))
                continue
            r = top[0]
            rows.append(
                (
                    s, label, r["itemset"], round(r["support"], 2),
                    round(r["divergence"], 3), r["t"],
                )
            )
    return ("s", "Exploration approach", "Itemset", "Sup", "dFPR", "t"), rows


# ---------------------------------------------------------------------------
# Table IV — folktables top income-divergent itemsets.
# ---------------------------------------------------------------------------

def table4(
    supports: Sequence[float] = TABLE3_SUPPORTS,
    tree_support: float = 0.1,
    ctx: ExperimentContext | None = None,
):
    """Base vs generalized top income itemsets on folktables."""
    ctx = ctx or load_context("folktables")
    rows = []
    for s in supports:
        for label, result in (
            ("base", run_base(ctx, s, tree_support)),
            ("generalized", run_hierarchical(ctx, s, tree_support)),
        ):
            top = result.to_rows(1, by="divergence")
            if not top:
                rows.append((s, label, "(none)", None, None, None))
                continue
            r = top[0]
            rows.append(
                (
                    s, label, r["itemset"], round(r["support"], 2),
                    round(r["divergence"] / 1000.0, 1), r["t"],
                )
            )
    return ("s", "Itemset type", "Itemset", "Sup", "dIncome(k)", "t"), rows


# ---------------------------------------------------------------------------
# Figure 2 — max divergence and execution time, base vs hierarchical.
# ---------------------------------------------------------------------------

def figure2(
    datasets: Sequence[str] = FIGURE2_DATASETS,
    supports: Sequence[float] = DEFAULT_SUPPORTS,
    tree_support: float = 0.1,
    contexts: dict[str, ExperimentContext] | None = None,
    obs: AnyCollector | None = None,
):
    """Per dataset and support: max |Δ| and time for base vs hier.

    With an enabled ``obs`` collector every (dataset, support) cell
    runs inside a ``figure2.<dataset>`` span, with the explorer's own
    ``discretize``/``mine`` spans nested beneath it.
    """
    obs = resolve_obs(obs)
    rows = []
    for name in datasets:
        ctx = (contexts or {}).get(name) or load_context(name)
        for s in supports:
            with obs.span(f"figure2.{name}", support=s):
                base = run_base(ctx, s, tree_support, obs=obs).summary()
                hier = run_hierarchical(
                    ctx, s, tree_support, obs=obs
                ).summary()
            rows.append(
                (
                    name, s,
                    round(base["max_abs_divergence"], 3),
                    round(hier["max_abs_divergence"], 3),
                    round(base["elapsed_seconds"], 3),
                    round(hier["elapsed_seconds"], 3),
                )
            )
    return (
        "dataset", "s", "max|d| base", "max|d| hier", "time base(s)",
        "time hier(s)",
    ), rows


# ---------------------------------------------------------------------------
# Figure 3a — folktables base vs hierarchical (income divergence).
# ---------------------------------------------------------------------------

def figure3a(
    supports: Sequence[float] = DEFAULT_SUPPORTS,
    tree_support: float = 0.1,
    ctx: ExperimentContext | None = None,
):
    ctx = ctx or load_context("folktables")
    rows = []
    for s in supports:
        base = run_base(ctx, s, tree_support)
        hier = run_hierarchical(ctx, s, tree_support)
        rows.append(
            (
                s,
                round(base.max_divergence() / 1000.0, 1),
                round(hier.max_divergence() / 1000.0, 1),
            )
        )
    return ("s", "max|d| base (k)", "max|d| hier (k)"), rows


# ---------------------------------------------------------------------------
# Figure 3b — divergence vs entropy gain criteria.
# ---------------------------------------------------------------------------

def figure3b(
    datasets: Sequence[str] = FIGURE2_DATASETS,
    supports: Sequence[float] = DEFAULT_SUPPORTS,
    tree_support: float = 0.1,
    contexts: dict[str, ExperimentContext] | None = None,
):
    """Hierarchical max |Δ| under the two split criteria."""
    rows = []
    for name in datasets:
        ctx = (contexts or {}).get(name) or load_context(name)
        for s in supports:
            div = run_hierarchical(ctx, s, tree_support, criterion="divergence")
            ent = run_hierarchical(ctx, s, tree_support, criterion="entropy")
            rows.append(
                (
                    name, s,
                    round(div.max_divergence(), 3),
                    round(ent.max_divergence(), 3),
                )
            )
    return ("dataset", "s", "max|d| divergence", "max|d| entropy"), rows


# ---------------------------------------------------------------------------
# Figure 4 — polarity pruning: quality (a) and execution time (b).
# ---------------------------------------------------------------------------

def figure4(
    datasets: Sequence[str] = FIGURE2_DATASETS,
    supports: Sequence[float] = DEFAULT_SUPPORTS,
    tree_support: float = 0.1,
    contexts: dict[str, ExperimentContext] | None = None,
):
    """Complete vs polarity-pruned hierarchical search."""
    rows = []
    for name in datasets:
        ctx = (contexts or {}).get(name) or load_context(name)
        for s in supports:
            full = run_hierarchical(ctx, s, tree_support, polarity=False).summary()
            pruned = run_hierarchical(ctx, s, tree_support, polarity=True).summary()
            speedup = (
                full["elapsed_seconds"] / pruned["elapsed_seconds"]
                if pruned["elapsed_seconds"] > 0
                else float("nan")
            )
            rows.append(
                (
                    name, s,
                    round(full["max_abs_divergence"], 3),
                    round(pruned["max_abs_divergence"], 3),
                    round(full["elapsed_seconds"], 3),
                    round(pruned["elapsed_seconds"], 3),
                    round(speedup, 1),
                )
            )
    return (
        "dataset", "s", "max|d| full", "max|d| pruned", "time full(s)",
        "time pruned(s)", "speedup",
    ), rows


# ---------------------------------------------------------------------------
# Figure 5 — synthetic-peak best-itemset ranges, base vs generalized.
# ---------------------------------------------------------------------------

def figure5(
    supports: Sequence[float] = (0.05, 0.025),
    tree_support: float = 0.1,
    ctx: ExperimentContext | None = None,
):
    """Attribute ranges of the most divergent itemset per setting."""
    ctx = ctx or load_context("synthetic-peak")
    rows = []
    for s in supports:
        for label, result in (
            ("base", run_base(ctx, s, tree_support)),
            ("generalized", run_hierarchical(ctx, s, tree_support)),
        ):
            top = result.top_k(1, by="divergence")
            if not top:
                rows.append((s, label, "(none)", None, None, None, None))
                continue
            r = top[0]
            ranges = {"a": "*", "b": "*", "c": "*"}
            for item in r.itemset:
                ranges[item.attribute] = str(item).replace(
                    item.attribute, "", 1
                )
            rows.append(
                (
                    s, label, ranges["a"], ranges["b"], ranges["c"],
                    round(r.divergence, 3), r.length,
                )
            )
    return ("s", "setting", "a", "b", "c", "dError", "#attrs"), rows


# ---------------------------------------------------------------------------
# Figure 6 — Slice Finder on synthetic-peak.
# ---------------------------------------------------------------------------

def figure6(
    thresholds: Sequence[float] = (0.4, 1.0),
    tree_support: float = 0.1,
    ctx: ExperimentContext | None = None,
):
    """Top Slice Finder slice per effect-size threshold."""
    ctx = ctx or load_context("synthetic-peak")
    leaf_items = [
        it
        for items in ctx.leaf_items(tree_support, "divergence").values()
        for it in items
    ]
    rows = []
    for threshold in thresholds:
        finder = SliceFinder(effect_size_threshold=threshold, k=5)
        found = finder.find(ctx.features, ctx.outcomes, leaf_items)
        if not found:
            rows.append((threshold, "(none)", None, None, None))
            continue
        best = max(found, key=lambda r: r.effect_size)
        rows.append(
            (
                threshold, str(best.itemset), round(best.effect_size, 2),
                round(best.support, 4), best.size,
            )
        )
    return ("threshold", "slice", "effect size", "support", "size"), rows


# ---------------------------------------------------------------------------
# Figure 7 — quantile discretization vs hierarchical trees.
# ---------------------------------------------------------------------------

def figure7(
    supports: Sequence[float] = (0.01, 0.025, 0.05, 0.075),
    bins: Sequence[int] = tuple(range(2, 11)),
    tree_support: float = 0.1,
    ctx: ExperimentContext | None = None,
):
    """Best-over-bins quantile baseline vs tree hierarchical search."""
    ctx = ctx or load_context("synthetic-peak")
    rows = []
    for s in supports:
        best_quantile = 0.0
        for b in bins:
            result = run_quantile_base(ctx, s, b)
            best_quantile = max(best_quantile, result.max_divergence())
        hier = run_hierarchical(ctx, s, tree_support)
        rows.append(
            (s, round(best_quantile, 3), round(hier.max_divergence(), 3))
        )
    return ("s", "max|d| quantile (best bins)", "max|d| tree hier"), rows


# ---------------------------------------------------------------------------
# Figure 8 — sensitivity to the tree support st.
# ---------------------------------------------------------------------------

def figure8(
    datasets: Sequence[str] = ("synthetic-peak", "compas"),
    st_values: Sequence[float] = (0.01, 0.025, 0.05, 0.1, 0.15, 0.2),
    support: float = 0.025,
    contexts: dict[str, ExperimentContext] | None = None,
):
    """Base vs generalized max |Δ| as the tree support st varies."""
    rows = []
    for name in datasets:
        ctx = (contexts or {}).get(name) or load_context(name)
        for st in st_values:
            base = run_base(ctx, support, st)
            hier = run_hierarchical(ctx, support, st)
            rows.append(
                (
                    name, st,
                    round(base.max_divergence(), 3),
                    round(hier.max_divergence(), 3),
                )
            )
    return ("dataset", "st", "max|d| base", "max|d| hier"), rows


# ---------------------------------------------------------------------------
# §VI-F — discretization vs exploration time.
# ---------------------------------------------------------------------------

def performance_discretization(
    datasets: Sequence[str] = ("wine", "intentions"),
    tree_support: float = 0.1,
    support: float = 0.05,
    contexts: dict[str, ExperimentContext] | None = None,
):
    """Show discretization time is negligible next to exploration.

    Each dataset gets one untimed warm-up explore; both columns are
    then the best of 3 explores.
    """
    from repro.core.hexplorer import HDivExplorer

    rows = []
    for name in datasets:
        ctx = (contexts or {}).get(name) or load_context(name)
        explorer = HDivExplorer(min_support=support, tree_support=tree_support)
        explorer.explore(ctx.features, ctx.outcomes)
        disc = explore = math.inf
        for _ in range(3):
            result = explorer.explore(ctx.features, ctx.outcomes)
            disc = min(disc, explorer.last_discretization_seconds_)
            explore = min(explore, result.summary()["elapsed_seconds"])
        rows.append((name, round(disc, 3), round(explore, 3)))
    return ("dataset", "discretization(s)", "exploration(s)"), rows


# ---------------------------------------------------------------------------
# §VI-G — SliceLine comparison.
# ---------------------------------------------------------------------------

def sliceline_comparison(
    supports: Sequence[float] = (0.05, 0.025),
    alphas: Sequence[float] = (0.8, 0.9, 0.95, 0.99),
    tree_support: float = 0.1,
    ctx: ExperimentContext | None = None,
):
    """SliceLine's best slice (over α) vs base and hier DivExplorer."""
    ctx = ctx or load_context("synthetic-peak")
    leaf_items = [
        it
        for items in ctx.leaf_items(tree_support, "divergence").values()
        for it in items
    ]
    global_err = float(np.nanmean(ctx.outcomes))
    rows = []
    for s in supports:
        best_err = -math.inf
        best_slice = "(none)"
        for alpha in alphas:
            finder = SliceLine(alpha=alpha, k=1, min_support=s)
            found = finder.find(ctx.features, ctx.outcomes, leaf_items)
            if found and found[0].avg_error > best_err:
                best_err = found[0].avg_error
                best_slice = str(found[0].itemset)
        base = run_base(ctx, s, tree_support)
        hier = run_hierarchical(ctx, s, tree_support)
        rows.append(
            (
                s, best_slice, round(best_err - global_err, 3),
                round(base.max_divergence(), 3),
                round(hier.max_divergence(), 3),
            )
        )
    return (
        "s", "SliceLine best slice", "dError SliceLine", "max|d| base",
        "max|d| hier",
    ), rows
