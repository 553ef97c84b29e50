"""Ablation benches for the design choices called out in DESIGN.md.

- candidate-threshold cap in tree discretization;
- including hierarchy roots in the mined universe (pure overhead).
"""

import numpy as np
from conftest import run_once

from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.mining.generalized import generalized_universe
from repro.core.mining.transactions import mine
from repro.experiments import render_table


def test_split_candidate_cap(benchmark, emit, peak_ctx):
    """More candidate thresholds barely move the found divergence."""
    ctx = peak_ctx

    def run():
        rows = []
        for cap in (4, 16, 64, 256):
            explorer = HDivExplorer(
                min_support=0.05, tree_support=0.1, max_candidates=cap
            )
            res = explorer.explore(ctx.features, ctx.outcomes)
            rows.append((cap, round(res.max_divergence(), 3)))
        return rows

    rows = run_once(benchmark, run)
    emit(
        "ablation_candidates",
        render_table(
            ("max_candidates", "max|d|"), rows,
            "Ablation: candidate-threshold cap (synthetic-peak)",
        ),
    )
    divergences = [d for _cap, d in rows]
    # A tiny cap can be crude, but from 16 up the result is stable.
    assert max(divergences[1:]) - min(divergences[1:]) <= 0.25 * max(
        divergences[1:]
    )


def test_root_items_are_overhead(benchmark, emit, compas_ctx):
    """Mining with hierarchy roots included: same max |Δ|, more work."""
    ctx = compas_ctx
    gamma = ctx.session().hierarchies(0.1, "divergence")

    def run():
        out = {}
        for include_roots in (False, True):
            extra = (
                [h.root for h in gamma] if include_roots else []
            )
            universe = generalized_universe(
                ctx.features, ctx.outcomes, gamma, extra_items=extra
            )
            mined = mine(universe, 0.05)
            global_mean = universe.global_stats().mean
            best = max(
                (abs(m.stats.mean - global_mean) for m in mined),
                default=0.0,
            )
            out[include_roots] = (len(mined), best)
        return out

    out = run_once(benchmark, run)
    emit(
        "ablation_roots",
        render_table(
            ("roots included", "itemsets", "max|d|"),
            [(k, v[0], round(v[1], 3)) for k, v in out.items()],
            "Ablation: hierarchy roots in the mined universe (compas)",
        ),
    )
    assert out[True][0] > out[False][0], "roots inflate the lattice"
    assert abs(out[True][1] - out[False][1]) < 1e-9, (
        "roots cannot change the max divergence"
    )
