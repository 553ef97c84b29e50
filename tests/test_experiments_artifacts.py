"""Fast-variant tests of the heavier experiment artifacts.

The benchmarks run these at calibrated sizes; here we run them on tiny
contexts to cover the code paths and shape-invariants quickly.
"""

import pytest

from repro.experiments import load_context
from repro.experiments.figures import (
    figure2,
    figure3b,
    figure4,
    figure7,
    performance_discretization,
    sliceline_comparison,
    table2,
    table4,
)


@pytest.fixture(scope="module")
def tiny_contexts():
    return {
        "compas": load_context("compas", n_rows=1_500),
        "synthetic-peak": load_context("synthetic-peak", n_rows=1_500),
        "german": load_context("german"),
    }


@pytest.fixture(scope="module")
def tiny_folktables():
    return load_context("folktables", n_rows=3_000)


def test_table2_all_rows():
    headers, rows = table2()
    assert len(rows) == 8
    assert headers[0] == "dataset"


def test_table4_base_vs_generalized(tiny_folktables):
    headers, rows = table4(supports=(0.1,), ctx=tiny_folktables)
    by_type = {r[1]: r for r in rows}
    assert by_type["generalized"][4] >= by_type["base"][4] - 1e-9


def test_figure2_invariants_small(tiny_contexts):
    headers, rows = figure2(
        datasets=("compas", "synthetic-peak"),
        supports=(0.1, 0.2),
        contexts=tiny_contexts,
    )
    assert len(rows) == 4
    for _name, _s, base_d, hier_d, tb, th in rows:
        assert hier_d >= base_d - 1e-9
        assert tb >= 0 and th >= 0


def test_figure3b_both_criteria_run(tiny_contexts):
    headers, rows = figure3b(
        datasets=("compas",), supports=(0.1,), contexts=tiny_contexts
    )
    assert len(rows) == 1
    _name, _s, d_div, d_ent = rows[0]
    assert d_div >= 0 and d_ent >= 0


def test_figure4_polarity_never_exceeds_full(tiny_contexts):
    headers, rows = figure4(
        datasets=("compas", "german"), supports=(0.1,),
        contexts=tiny_contexts,
    )
    for _name, _s, d_full, d_pruned, _tf, _tp, _speedup, _lost, _top in rows:
        assert d_pruned <= d_full + 1e-9


def test_figure7_hier_wins(tiny_contexts):
    headers, rows = figure7(
        supports=(0.05,), bins=(2, 4), ctx=tiny_contexts["synthetic-peak"]
    )
    s, quantile_d, hier_d = rows[0]
    assert hier_d >= quantile_d - 1e-9


def test_performance_discretization_small(tiny_contexts):
    headers, rows = performance_discretization(
        datasets=("german",), contexts=tiny_contexts
    )
    name, disc, explore = rows[0]
    assert disc < explore


def test_sliceline_comparison_small(tiny_contexts):
    headers, rows = sliceline_comparison(
        supports=(0.05,), alphas=(0.95,),
        ctx=tiny_contexts["synthetic-peak"],
    )
    s, _slice, sliceline_d, base_d, hier_d = rows[0]
    assert sliceline_d <= base_d + 1e-6
    assert hier_d >= base_d - 1e-9
