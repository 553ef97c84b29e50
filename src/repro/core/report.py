"""Human-readable reports of an exploration.

Bundles the pieces an analyst wants after running an explorer: the
dataset-level statistic, the most divergent subgroups in both
directions (redundancy-pruned, significance-filtered), the globally
most influential items, and the discovered item hierarchies.
"""

from __future__ import annotations

import math

from repro.core.hierarchy import HierarchySet
from repro.core.lattice import redundancy_prune
from repro.core.results import ResultSet, SubgroupResult
from repro.core.shapley import global_shapley_values
from repro.core.significance import benjamini_hochberg


def _format_result(r: SubgroupResult, scale: float) -> str:
    t = "nan" if math.isnan(r.t) else f"{r.t:.1f}"
    return (
        f"  {r.itemset!s}\n"
        f"      support={r.support:.3f} (n={r.count})  "
        f"f={r.mean / scale:.4g}  Δ={r.divergence / scale:+.4g}  t={t}"
    )


def exploration_report(
    result: ResultSet,
    title: str = "Divergence exploration report",
    k: int = 5,
    min_t: float = 2.0,
    fdr_alpha: float = 0.05,
    redundancy_epsilon: float | None = None,
    hierarchies: HierarchySet | None = None,
    scale: float = 1.0,
    verbose: bool = False,
) -> str:
    """Render a text report of an exploration's findings.

    Parameters
    ----------
    result:
        The explorer's output.
    title:
        Report heading.
    k:
        Subgroups listed per direction.
    min_t:
        Welch-t filter for the listed subgroups.
    fdr_alpha:
        Level for the Benjamini–Hochberg significance count.
    redundancy_epsilon:
        If set, redundancy-prune the listed subgroups with this |Δ|
        slack (see :func:`repro.core.lattice.redundancy_prune`).
    hierarchies:
        If given, each hierarchy is rendered at the end of the report.
    scale:
        Divide displayed statistic values by this (e.g. 1000 to print
        incomes in thousands).
    verbose:
        Append the observability section — per-phase wall times,
        candidate and pruning counters — when the
        exploration ran with an enabled collector.
    """
    if k < 1:
        raise ValueError("k must be positive")
    headline = result.summary()
    lines = [title, "=" * len(title), ""]
    lines.append(
        f"dataset statistic f(D) = {headline['global_mean'] / scale:.4g}"
        + (f"  (scale: 1/{scale:g})" if scale != 1.0 else "")
    )
    lines.append(
        f"explored subgroups: {headline['n_subgroups']}  "
        f"(exploration time {headline['elapsed_seconds']:.2f}s)"
    )
    significant = benjamini_hochberg(result, alpha=fdr_alpha)
    lines.append(
        f"significant at FDR {fdr_alpha:g}: {len(significant)} subgroups"
    )

    for direction, by in (("positive", "divergence"), ("negative", "neg_divergence")):
        top = result.top_k(4 * k, by=by, min_t=min_t, min_length=1)
        top = [
            r for r in top
            if (r.divergence > 0) == (direction == "positive")
        ]
        if redundancy_epsilon is not None:
            top = redundancy_prune(top, redundancy_epsilon)
        lines.append("")
        lines.append(f"top {direction}-divergence subgroups (t ≥ {min_t:g}):")
        if not top:
            lines.append("  (none)")
        for r in top[:k]:
            lines.append(_format_result(r, scale))

    phi = global_shapley_values(result)
    if phi:
        lines.append("")
        lines.append("globally most influential items (mean marginal Δ):")
        ranked = sorted(phi.items(), key=lambda kv: -abs(kv[1]))[:k]
        for item, value in ranked:
            lines.append(f"  {item!s:40s} {value / scale:+.4g}")

    if hierarchies is not None and len(hierarchies):
        lines.append("")
        lines.append("item hierarchies:")
        for hierarchy in hierarchies:
            lines.append("")
            lines.append(hierarchy.render())

    if verbose:
        lines.append("")
        lines.extend(_obs_lines(result))
    return "\n".join(lines)


def _obs_lines(result: ResultSet) -> list[str]:
    """The verbose observability section of the report."""
    if not result.obs.enabled:
        return ["observability: (disabled — run with an ObsCollector)"]
    from repro.obs.report import obs_summary

    s = obs_summary(result.obs)
    lines = ["observability:"]
    if s["phases"]:
        lines.append("  phase wall times:")
        for phase, seconds in s["phases"].items():
            lines.append(f"    {phase:<32s} {seconds * 1e3:10.2f} ms")
    lines.append(f"  candidates evaluated: {s['candidates']}")
    lines.append(f"  frequent itemsets:    {s['frequent_itemsets']}")
    if s["pruning"]:
        lines.append("  pruning:")
        for name, value in s["pruning"].items():
            lines.append(f"    {name:<32s} {value}")
    return lines
