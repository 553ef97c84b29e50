"""Differential property test: every exploration result re-derived
directly from masks must match exactly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.divergence import OutcomeStats, welch_t
from repro.core.hexplorer import HDivExplorer
from repro.tabular import Table


@st.composite
def exploration_case(draw):
    n = draw(st.integers(40, 150))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    if draw(st.booleans()):
        x[rng.uniform(size=n) < 0.1] = np.nan
    cat = rng.choice(["p", "q"], n)
    boolean = draw(st.booleans())
    if boolean:
        o = (rng.uniform(size=n) < 0.4).astype(float)
    else:
        o = rng.normal(0, 3, n)
    if draw(st.booleans()):
        o[rng.uniform(size=n) < 0.1] = np.nan
    support = draw(st.sampled_from([0.15, 0.3]))
    return Table({"x": x, "cat": cat}), o, support


@settings(max_examples=30, deadline=None)
@given(case=exploration_case())
def test_every_result_matches_direct_computation(case):
    table, outcomes, support = case
    explorer = HDivExplorer(min_support=support, tree_support=0.3)
    result = explorer.explore(table, outcomes)
    global_stats = OutcomeStats.from_outcomes(outcomes)
    for r in result:
        mask = r.itemset.mask(table)
        direct = OutcomeStats.from_outcomes(outcomes, mask)
        assert r.count == direct.count
        assert r.support == pytest.approx(direct.count / table.n_rows)
        if direct.n:
            assert r.mean == pytest.approx(direct.mean)
            assert r.divergence == pytest.approx(
                direct.mean - global_stats.mean
            )
        expected_t = welch_t(direct, global_stats)
        if not np.isnan(expected_t):
            assert r.t == pytest.approx(expected_t, rel=1e-9) or (
                np.isinf(expected_t) and np.isinf(r.t)
            )
        # Support threshold honoured.
        assert r.support >= support - 1e-12
