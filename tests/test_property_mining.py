"""Property-based tests: the mining engine against a brute-force oracle.

The central invariants of DESIGN.md:
(4) engine ≡ brute force, including accumulated stats and the work
    counters;
(3) generalized results ⊇ base results at equal support;
(6) polarity-pruned = the sign-consistent subset of the complete
    results, with the same statistics.

The oracle enumerates every attribute-distinct itemset and computes its
statistics from plain Python row sets, so it can be trusted by reading.
"""

import math
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.discretize import TreeDiscretizer
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem, IntervalItem
from repro.core.mining import EncodedUniverse, MinedColumns, mine
from repro.core.mining import bitset
from repro.core.mining.bitset import item_polarities
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


def sign_consistent(ids, polarities):
    """No two items of ``ids`` have opposite polarities."""
    return not {1, -1} <= {polarities[i] for i in ids}


def expected_candidates(universe, frequent, max_length=None, polarities=None):
    """``({k: candidates}, {k: polarity-pruned})``: the length-``k``
    pairs a search evaluates, and the pairs its sign filter drops
    before that. Every item is a candidate (``k = 1``). A pair is every
    attribute-distinct ``S`` with ``2 <= |S| <= max_length`` whose two
    subsets ``S`` minus its largest id and ``S`` minus its
    second-largest id are both in ``frequent``, the oracle's result.
    With ``polarities``, a pair that is not sign-consistent is
    polarity-pruned; every other pair is a candidate."""
    n_attributes = len(set(universe.attribute_of))
    longest = min(max_length or n_attributes, n_attributes)
    candidates = Counter({1: universe.n_items()})
    polarity_pruned = Counter()
    for k in range(2, longest + 1):
        for combo in combinations(range(universe.n_items()), k):
            if len({universe.attribute_of[i] for i in combo}) != k:
                continue
            without_last = frozenset(combo[:-1])
            without_second = frozenset(combo[:-2] + combo[-1:])
            if without_last not in frequent or without_second not in frequent:
                continue
            if polarities is None or sign_consistent(combo, polarities):
                candidates[k] += 1
            else:
                polarity_pruned[k] += 1
    return candidates, polarity_pruned


def frequent_by_length(frequent):
    """``{k: count}`` of the oracle's frequent ``k``-itemsets."""
    return Counter(len(ids) for ids in frequent)


def assert_counters_reconcile(obs, candidates, frequent, polarity_pruned=None):
    """The work counters match the oracle and add up, in total and for
    every itemset length ``k``: pairs = polarity-pruned + candidates,
    and candidates − support-pruned = frequent itemsets.
    ``candidates``, ``frequent`` and ``polarity_pruned`` are the
    oracle's ``{k: count}`` dicts; without ``polarity_pruned`` (a
    complete search) no polarity counter may exist."""
    counters = obs.counters
    if polarity_pruned is None:
        assert not [n for n in counters if n.startswith("mining.polarity")]
    else:
        assert counters.get("mining.polarity_pruned", 0) == sum(
            polarity_pruned.values()
        )
        pruned_levels = {
            int(name.rsplit("_", 1)[1]): value for name, value in counters.items()
            if name.startswith("mining.polarity_pruned.level_")
        }
        assert +Counter(pruned_levels) == +polarity_pruned
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
    candidates, _ = expected_candidates(universe, expected, max_length)
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


@settings(max_examples=60, deadline=None)
@given(
    data=random_universe(), support=SUPPORTS, max_length=MAX_LENGTHS,
    every_attribute=st.booleans(),
)
def test_polarity_results_subset(data, support, max_length, every_attribute):
    """Invariant 6: the polarity-pruned search returns exactly the
    oracle's frequent itemsets that hold no two items of opposite
    polarity, each once, in canonical order and with the oracle's
    statistics. Its counters reconcile level by level with the
    one-pass rule: pairs = polarity-pruned + candidates, and
    candidates − support-pruned = frequent. ``every_attribute``
    polarizes the categorical attributes too; otherwise their items
    stay neutral."""
    universe, exact = data
    attributes = set(universe.attribute_of) if every_attribute else None
    polarities = item_polarities(universe, attributes)
    expected = {
        ids: stats
        for ids, stats in brute_force(universe, support, max_length).items()
        if sign_consistent(ids, polarities)
    }
    obs = ObsCollector()
    pruned = mine(
        universe, support, max_length=max_length, obs=obs,
        polarity=True, polarize_attributes=attributes,
    )
    assert_matches_oracle(pruned, expected, exact)
    candidates, polarity_pruned = expected_candidates(
        universe, expected, max_length, polarities
    )
    assert_counters_reconcile(
        obs, candidates, frequent_by_length(expected), polarity_pruned
    )


def reference_scatter(levels):
    """The mined levels as a ``-1``-padded id matrix and statistic
    columns, scattered into canonical order the way the engine did
    before it wrote parent links: each row's id prefix is copied from
    its parent's row."""
    sizes = [np.ones(len(levels[-1][0]), dtype=np.int64)]
    for k in range(len(levels) - 1, 0, -1):
        below = np.bincount(
            levels[k][0], weights=sizes[0], minlength=len(levels[k - 1][0])
        )
        sizes.insert(0, 1 + below.astype(np.int64))
    n_itemsets = int(sizes[0].sum())
    ids = np.full((n_itemsets, len(levels)), -1, dtype=np.int64)
    columns = [
        np.empty(n_itemsets, dtype=dtype)
        for dtype in (np.int64, np.int64, np.float64, np.float64)
    ]
    for k, (links, items, *stats) in enumerate(levels):
        before = np.cumsum(sizes[k]) - sizes[k]
        if k == 0:
            rows = before
        else:
            children = sizes[k - 1] - 1
            run_start = np.cumsum(children) - children
            rows = (parent_rows - run_start + 1)[links] + before
            ids[rows, :k] = ids[parent_rows[links], :k]
        ids[rows, k] = items
        for column, values in zip(columns, stats):
            column[rows] = values
        parent_rows = rows
    return ids, columns


def assert_same_array(got, want):
    """Equal shape, dtype and bytes."""
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    data=random_universe(), support=SUPPORTS, max_length=MAX_LENGTHS,
    polarity=st.booleans(),
)
def test_tree_matches_reference_scatter(data, support, max_length, polarity):
    """The mined prefix tree's lazy id matrix and lengths equal the
    matrix of the old 2-D scatter bit for bit, and its statistic
    columns are the scatter's columns."""
    universe, _exact = data
    scattered = []

    def preorder(levels):
        scattered.append(reference_scatter(levels))
        return real_preorder(levels)

    real_preorder = bitset._preorder
    with mock.patch.object(bitset, "_preorder", preorder):
        mined = mine(
            universe, support, max_length=max_length, polarity=polarity
        )
    if scattered:
        [(ids, columns)] = scattered
    else:  # nothing frequent: the engine returns the empty container
        empty = MinedColumns.empty()
        ids = np.empty((0, 0), dtype=np.int64)
        columns = [empty.count, empty.n, empty.total, empty.total_sq]
    lengths = mined.lengths()
    assert mined._ids is None, "lengths() built the id matrix"
    assert_same_array(mined.ids, ids)
    assert_same_array(lengths, np.count_nonzero(ids >= 0, axis=1))
    for name, column in zip(("count", "n", "total", "total_sq"), columns):
        assert_same_array(getattr(mined, name), column)
    # Each row extends its parent row by its own, larger, last item.
    rows = np.arange(len(mined))
    assert (mined.parent < rows).all()
    assert_same_array(mined.item, ids[rows, lengths - 1])
    linked = mined.parent >= 0
    assert_same_array(
        ids[mined.parent[linked]], np.where(
            np.arange(ids.shape[1]) < lengths[linked, None] - 1,
            ids[linked], -1,
        ),
    )
