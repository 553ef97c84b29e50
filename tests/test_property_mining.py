"""Property-based tests: the mining engine against a brute-force oracle.

The central invariants of DESIGN.md:
(4) engine ≡ brute force, including accumulated stats and the work
    counters;
(3) generalized results ⊇ base results at equal support;
(6) polarity-pruned ⊆ complete results, with the same statistics.

The oracle enumerates every attribute-distinct itemset and computes its
statistics from plain Python row sets, so it can be trusted by reading.
"""

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.discretize import TreeDiscretizer
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem, IntervalItem
from repro.core.mining import EncodedUniverse, MinedColumns, mine
from repro.core.polarity import item_polarities, mine_with_polarity
from repro.obs import ObsCollector
from repro.tabular import Table

#: Row counts on and around the 64-bit word boundaries of the packed covers.
WORD_BOUNDARY_ROWS = [63, 64, 65, 128]


def interval_items(attribute, cuts):
    """Leaves between the cuts plus every ancestor interval spanning
    two or more adjacent leaves (the root excluded) — overlapping items
    of one attribute, as in a generalized universe."""
    bounds = [-math.inf, *cuts, math.inf]
    last = len(bounds) - 1
    return [
        IntervalItem(attribute, bounds[i], bounds[j])
        for i in range(last)
        for j in range(i + 1, last + 1)
        if (i, j) != (0, last)
    ]


@st.composite
def random_universe(draw):
    """A random dataset encoded over random flat or generalized items."""
    n_rows = draw(
        st.one_of(st.integers(1, 40), st.sampled_from(WORD_BOUNDARY_ROWS))
    )
    n_attrs = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["numeric", "boolean", "all_nan"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    columns = {}
    items = []
    for a in range(n_attrs):
        name = f"a{a}"
        if draw(st.booleans()):
            columns[name] = rng.integers(0, 6, n_rows).astype(float)
            cuts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
            cuts = sorted(set(cuts))
            items.extend(interval_items(name, cuts))
        else:
            values = [f"v{j}" for j in range(int(rng.integers(2, 4)))]
            columns[name] = rng.choice(values, size=n_rows)
            items.extend(CategoricalItem(name, v) for v in values)
    if kind == "numeric":
        outcomes = rng.normal(size=n_rows)
    else:
        outcomes = rng.integers(0, 2, n_rows).astype(float)
    outcomes[rng.uniform(size=n_rows) < 0.15] = np.nan
    if kind == "all_nan":
        outcomes[:] = np.nan
    table = Table(columns)
    return EncodedUniverse.from_table(table, items, outcomes), kind != "numeric"


def brute_force(universe, min_support, max_length=None):
    """``{ids: (count, n, Σo, Σo²)}`` of every itemset with at most one
    item per attribute and ``count / n_rows >= min_support``."""
    n_rows = universe.n_rows
    rows_of = [set(np.flatnonzero(mask).tolist()) for mask in universe.masks]
    outcomes = universe.outcomes.tolist()
    out = {}
    for k in range(1, (max_length or universe.n_items()) + 1):
        for combo in combinations(range(universe.n_items()), k):
            if len({universe.attribute_of[i] for i in combo}) != k:
                continue
            rows = set.intersection(*(rows_of[i] for i in combo))
            if len(rows) / n_rows < min_support:
                continue
            defined = [outcomes[r] for r in rows if not math.isnan(outcomes[r])]
            out[frozenset(combo)] = (
                len(rows),
                len(defined),
                math.fsum(defined),
                math.fsum(v * v for v in defined),
            )
    return out


def expected_candidates(universe, frequent, max_length=None, item_ids=None):
    """``{k: count}``: the length-``k`` candidates a complete search over
    ``item_ids`` (default: all items) evaluates. These are every item
    (``k = 1``), plus every attribute-distinct ``S`` with
    ``2 <= |S| <= max_length`` whose two subsets ``S`` minus its largest
    id and ``S`` minus its second-largest id are both frequent.
    ``frequent`` is the oracle's dict over the whole universe."""
    ids = sorted(range(universe.n_items()) if item_ids is None else item_ids)
    n_attributes = len({universe.attribute_of[i] for i in ids})
    longest = min(max_length or n_attributes, n_attributes)
    candidates = Counter({1: len(ids)})
    for k in range(2, longest + 1):
        for combo in combinations(ids, k):
            if len({universe.attribute_of[i] for i in combo}) != k:
                continue
            without_last = frozenset(combo[:-1])
            without_second = frozenset(combo[:-2] + combo[-1:])
            if without_last in frequent and without_second in frequent:
                candidates[k] += 1
    return candidates


def frequent_by_length(frequent, item_ids=None):
    """``{k: count}`` of the oracle's frequent ``k``-itemsets that use
    only ``item_ids`` (default: all items)."""
    allowed = None if item_ids is None else set(item_ids)
    return Counter(
        len(ids) for ids in frequent if allowed is None or ids <= allowed
    )


def assert_counters_reconcile(obs, candidates, frequent):
    """The work counters match the oracle and add up, in total and for
    every itemset length ``k``: candidates − support-pruned = frequent
    itemsets. ``candidates`` and ``frequent`` are the oracle's
    ``{k: count}`` dicts."""
    counters = obs.counters
    assert counters["mining.candidates"] == sum(candidates.values())
    assert (
        counters["mining.candidates"] - counters["mining.support_pruned"]
        == counters.get("mining.frequent_itemsets", 0)
    )
    levels = {
        int(name.rsplit("_", 1)[1]) for name in counters
        if name.startswith("mining.candidates.level_")
    }
    assert levels == set(candidates)
    for k in levels:
        tried = counters[f"mining.candidates.level_{k}"]
        kept = tried - counters[f"mining.support_pruned.level_{k}"]
        assert tried == candidates[k]
        assert kept == counters.get(f"mining.frequent.level_{k}", 0)
        assert kept == frequent[k]


def assert_matches_oracle(mined, expected, exact):
    """``mined`` holds exactly the oracle's itemsets and statistics in
    canonical order: rows sorted as id tuples, ids padded with ``-1`` to
    the longest itemset, and an empty result shaped like
    :meth:`MinedColumns.empty`."""
    keys = sorted(tuple(sorted(ids)) for ids in expected)
    longest = max(map(len, keys), default=0)
    assert mined.ids.shape == (len(keys), longest)
    assert mined.ids.tolist() == [
        [*key, *[-1] * (longest - len(key))] for key in keys
    ]
    if not keys:
        empty = MinedColumns.empty()
        for name in ("ids", "count", "n", "total", "total_sq"):
            column, reference = getattr(mined, name), getattr(empty, name)
            assert (column.shape, column.dtype) == (
                reference.shape, reference.dtype
            )
    got = {m.ids: m.stats for m in mined}
    assert len(got) == len(mined), "an itemset was emitted twice"
    assert set(got) == set(expected)
    for ids, stats in got.items():
        count, n, total, total_sq = expected[ids]
        assert (stats.count, stats.n) == (count, n)
        if exact:
            # Boolean (and all-⊥) outcomes sum integers: no rounding.
            assert (stats.total, stats.total_sq) == (total, total_sq)
        else:
            assert stats.total == pytest.approx(total, rel=1e-9, abs=1e-9)
            assert stats.total_sq == pytest.approx(total_sq, rel=1e-9, abs=1e-9)


SUPPORTS = st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0])
MAX_LENGTHS = st.sampled_from([None, 1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(
    data=random_universe(), support=SUPPORTS, max_length=MAX_LENGTHS
)
def test_backends_match_brute_force(data, support, max_length):
    """The engine returns exactly the oracle's itemsets and statistics,
    in canonical order, and evaluates exactly the oracle's candidates."""
    universe, exact = data
    expected = brute_force(universe, support, max_length)
    candidates = expected_candidates(universe, expected, max_length)
    obs = ObsCollector()
    mined = mine(universe, support, max_length=max_length, obs=obs)
    assert_matches_oracle(mined, expected, exact)
    assert_counters_reconcile(obs, candidates, frequent_by_length(expected))


@st.composite
def pocket_table(draw):
    """Continuous data with an outcome depending on one attribute."""
    n_rows = draw(st.integers(60, 200))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, n_rows)
    y = rng.uniform(0, 1, n_rows)
    threshold = draw(st.floats(-1.5, 1.5))
    outcomes = (x > threshold).astype(float)
    return Table({"x": x, "y": y}), outcomes


@settings(max_examples=25, deadline=None)
@given(data=pocket_table(), support=st.sampled_from([0.1, 0.2]))
def test_hierarchical_superset_of_base(data, support):
    """Invariant 3: generalized exploration ⊇ base leaf exploration."""
    table, outcomes = data
    trees = TreeDiscretizer(0.25).fit_all(table, outcomes)
    leaves = {a: t.leaf_items() for a, t in trees.items()}
    base = DivExplorer(min_support=support).explore(
        table, outcomes, continuous_items=leaves
    )
    hier = HDivExplorer(min_support=support, tree_support=0.25).explore(
        table, outcomes
    )
    assert base.itemsets() <= hier.itemsets()
    assert hier.max_divergence() >= base.max_divergence() - 1e-12


@settings(max_examples=25, deadline=None)
@given(data=random_universe())
def test_support_monotone_under_threshold(data):
    universe, _exact = data
    loose = {m.ids: m.stats.count for m in mine(universe, 0.1)}
    tight = {m.ids for m in mine(universe, 0.4)}
    assert tight <= set(loose)
    for ids in tight:
        assert loose[ids] / universe.n_rows >= 0.4


@settings(max_examples=25, deadline=None)
@given(data=random_universe())
def test_polarity_results_subset(data):
    """Invariant 6: polarity-pruned ⊆ complete results, in canonical
    order, and every itemset it keeps carries the oracle's statistics.
    Each polarity subspace is a complete search over its items, so the
    counters add up to the oracle's counts of both subspaces, level by
    level."""
    universe, exact = data
    expected = brute_force(universe, 0.1)
    attributes = set(universe.attribute_of)
    obs = ObsCollector()
    pruned = mine_with_polarity(
        universe, 0.1, polarize_attributes=attributes, obs=obs,
    )
    assert {m.ids for m in pruned} <= set(expected)
    assert_matches_oracle(
        pruned, {m.ids: expected[m.ids] for m in pruned}, exact
    )
    polarities = item_polarities(universe, attributes)
    subspaces = [
        [i for i, p in enumerate(polarities) if p * sign >= 0]
        for sign in (1, -1)
    ]
    subspaces = [ids for ids in subspaces if ids]
    assert_counters_reconcile(
        obs,
        sum(
            (expected_candidates(universe, expected, item_ids=ids)
             for ids in subspaces),
            Counter(),
        ),
        sum((frequent_by_length(expected, ids) for ids in subspaces), Counter()),
    )
