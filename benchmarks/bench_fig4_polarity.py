"""Figure 4 — polarity pruning: divergence preserved (a), time saved (b)."""

from conftest import run_once

from repro.experiments import render_table
from repro.experiments.figures import figure4


def test_figure4(benchmark, emit, sweep_contexts):
    headers, rows = run_once(benchmark, figure4, contexts=sweep_contexts)
    emit(
        "fig4_polarity",
        render_table(
            headers, rows,
            "Figure 4: complete vs polarity-pruned hierarchical search",
        ),
    )
    # (a) Pruning preserves the maximum divergence in all but at most a
    # few cells, and never catastrophically (paper: "differs by a
    # slight amount in only four cases").
    mismatches = 0
    for name, s, d_full, d_pruned, _tf, _tp, _speedup, _lost, _top in rows:
        assert d_pruned <= d_full + 1e-9, f"{name} s={s}"
        if d_pruned < d_full - 1e-9:
            mismatches += 1
            assert d_pruned >= 0.75 * d_full, f"{name} s={s}"
    assert mismatches <= len(rows) // 4
    # (b) Pruning is faster on the lattice-heavy datasets overall.
    total_full = sum(r[4] for r in rows)
    total_pruned = sum(r[5] for r in rows)
    assert total_pruned < total_full
