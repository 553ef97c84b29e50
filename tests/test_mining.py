"""Unit tests for :func:`repro.core.mining.mine`, the one mining engine.

Mining is checked against a brute-force reference on small universes
(the randomized oracle suite is ``test_property_mining.py``), its
accumulated statistics against direct mask computation, and the
deprecated ``backend`` parameter: every retired backend name warns and
returns exactly the engine's output.
"""

import warnings
from itertools import combinations

import numpy as np
import pytest

from repro.core.divergence import OutcomeStats
from repro.core.items import CategoricalItem, IntervalItem
from repro.core.mining import (
    EncodedUniverse,
    base_universe,
    generalized_universe,
    mine,
)
from repro.core.mining.transactions import BACKENDS, RETIRED_BACKENDS
from repro.core.discretize import TreeDiscretizer
from repro.core.hierarchy import HierarchySet
from repro.core.outcomes import array_outcome
from repro.core.polarity import mine_with_polarity
from repro.tabular import Table


def brute_force(universe, min_support, max_length=None):
    """Reference: enumerate all attribute-distinct itemsets directly."""
    n = universe.n_rows
    out = {}
    ids = range(universe.n_items())
    top = max_length or universe.n_items()
    for k in range(1, top + 1):
        for combo in combinations(ids, k):
            attrs = [universe.attribute_of[i] for i in combo]
            if len(set(attrs)) != len(attrs):
                continue
            mask = np.ones(n, dtype=bool)
            for i in combo:
                mask &= universe.masks[i]
            if mask.sum() / n >= min_support:
                out[frozenset(combo)] = universe.stats_of_mask(mask)
    return out


def mine_retired(universe, min_support, backend, **kwargs):
    """``mine`` under a retired backend name, which must warn once."""
    with pytest.warns(DeprecationWarning, match=f"{backend!r} is deprecated"):
        return mine(universe, min_support, backend, **kwargs)


def as_dict(mined):
    return {m.ids: m.stats for m in mined}


def assert_columns_identical(a, b):
    """Two MinedColumns hold the same bytes in every column."""
    for name in ("ids", "count", "n", "total", "total_sq"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


def stats_equal(a: OutcomeStats, b: OutcomeStats) -> bool:
    return (
        a.count == b.count
        and a.n == b.n
        and a.total == pytest.approx(b.total)
        and a.total_sq == pytest.approx(b.total_sq)
    )


@pytest.fixture
def flat_universe(rng):
    """A small flat universe: 2 discretized attrs + 1 categorical."""
    n = 400
    x = rng.uniform(0, 10, n)
    cat = rng.choice(["a", "b", "c"], n)
    o = (x > 6).astype(float)
    o[rng.uniform(size=n) < 0.1] = np.nan
    table = Table({"x": x, "cat": cat})
    items = [
        IntervalItem("x", high=3),
        IntervalItem("x", 3, 6),
        IntervalItem("x", low=6),
        CategoricalItem("cat", "a"),
        CategoricalItem("cat", "b"),
        CategoricalItem("cat", "c"),
    ]
    return EncodedUniverse.from_table(table, items, o)


@pytest.fixture
def generalized_fixture(rng):
    """A generalized universe built from real discretization trees."""
    n = 600
    x = rng.uniform(-5, 5, n)
    y = rng.uniform(-5, 5, n)
    cat = rng.choice(["u", "v"], n)
    o = ((x > 0) & (y > 0)).astype(float)
    table = Table({"x": x, "y": y, "cat": cat})
    gamma = TreeDiscretizer(0.2).hierarchy_set(table, o)
    return generalized_universe(table, o, gamma)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("support", [0.05, 0.2, 0.5])
    def test_apriori_flat(self, flat_universe, support):
        expected = brute_force(flat_universe, support)
        got = as_dict(mine_retired(flat_universe, support, "apriori"))
        assert set(got) == set(expected)
        for ids in got:
            assert stats_equal(got[ids], expected[ids])

    @pytest.mark.parametrize("support", [0.05, 0.2, 0.5])
    def test_fpgrowth_flat(self, flat_universe, support):
        expected = brute_force(flat_universe, support)
        got = as_dict(mine_retired(flat_universe, support, "fpgrowth"))
        assert set(got) == set(expected)
        for ids in got:
            assert stats_equal(got[ids], expected[ids])

    @pytest.mark.parametrize("support", [0.1, 0.3])
    def test_both_generalized(self, generalized_fixture, support):
        expected = brute_force(generalized_fixture, support, max_length=3)
        got = as_dict(mine(generalized_fixture, support, max_length=3))
        assert set(got) == set(expected)
        for ids in expected:
            assert got[ids] == expected[ids]


class TestBackendAgreement:
    """The deprecated ``backend`` parameter: one engine behind every name."""

    def test_identical_results(self, generalized_fixture):
        ref = [(m.ids, m.stats) for m in mine(generalized_fixture, 0.1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            for backend in BACKENDS + RETIRED_BACKENDS:
                got = mine(generalized_fixture, 0.1, backend)
                assert [(m.ids, m.stats) for m in got] == ref, backend

    def test_mine_dispatch(self, flat_universe):
        assert BACKENDS == ("bitset",)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            default = mine(flat_universe, 0.1)
            named = mine(flat_universe, 0.1, "bitset")
        retired = mine_retired(flat_universe, 0.1, "apriori")
        assert as_dict(retired) == as_dict(default) == as_dict(named)

    def test_unknown_backend(self, flat_universe):
        with pytest.raises(ValueError, match="backend"):
            mine(flat_universe, 0.1, "magic")


class TestInvariants:
    def test_supports_at_least_threshold(self, flat_universe):
        s = 0.15
        for m in mine(flat_universe, s):
            assert m.stats.count / flat_universe.n_rows >= s

    @pytest.mark.parametrize("n_jobs", [1])
    def test_support_threshold_is_count_over_rows(self, n_jobs):
        # 0.07 * 100 == 7.000000000000001: a ceil(s * n) threshold asks
        # for 8 rows and drops the 7-row subgroup, whose reported
        # support is exactly 0.07.
        n = 100
        cat = np.array(["a"] * 7 + ["b"] * 93)
        table = Table({"cat": cat})
        items = [CategoricalItem("cat", "a"), CategoricalItem("cat", "b")]
        universe = EncodedUniverse.from_table(table, items, np.zeros(n))
        mined = as_dict(mine(universe, 0.07, n_jobs=n_jobs))
        assert frozenset({0}) in mined
        assert mined[frozenset({0})].count == 7

    def test_no_same_attribute_pairs(self, generalized_fixture):
        for m in mine(generalized_fixture, 0.1):
            attrs = [generalized_fixture.attribute_of[i] for i in m.ids]
            assert len(set(attrs)) == len(attrs)

    def test_monotone_in_support(self, flat_universe):
        loose = {m.ids for m in mine(flat_universe, 0.05)}
        tight = {m.ids for m in mine(flat_universe, 0.3)}
        assert tight <= loose

    def test_max_length_respected(self, flat_universe):
        for m in mine(flat_universe, 0.05, max_length=1):
            assert len(m.ids) == 1

    def test_subset_supports_dominate(self, flat_universe):
        mined = {m.ids: m.stats.count for m in mine(flat_universe, 0.05)}
        for ids, count in mined.items():
            if len(ids) > 1:
                for sub in combinations(sorted(ids), len(ids) - 1):
                    assert mined[frozenset(sub)] >= count

    def test_invalid_support(self, flat_universe):
        with pytest.raises(ValueError):
            mine(flat_universe, 0.0)
        with pytest.raises(ValueError):
            mine(flat_universe, 1.5)

    def test_empty_universe(self):
        table = Table({"x": [1.0, 2.0]})
        universe = EncodedUniverse.from_table(table, [], np.ones(2))
        assert mine(universe, 0.5) == []

    def test_nothing_frequent(self, flat_universe):
        assert mine(flat_universe, 0.999) == []


class TestEncodedUniverse:
    def test_global_stats(self, flat_universe):
        g = flat_universe.global_stats()
        direct = OutcomeStats.from_outcomes(flat_universe.outcomes)
        assert stats_equal(g, direct)

    def test_stats_of_mask(self, flat_universe, rng):
        mask = rng.uniform(size=flat_universe.n_rows) < 0.4
        got = flat_universe.stats_of_mask(mask)
        direct = OutcomeStats.from_outcomes(flat_universe.outcomes, mask)
        assert stats_equal(got, direct)

    def test_item_stats_match_masks(self, flat_universe):
        stats = flat_universe.item_stats()
        for i, s in enumerate(stats):
            direct = flat_universe.stats_of_mask(flat_universe.masks[i])
            assert stats_equal(s, direct)

    def test_shape_validation(self):
        table = Table({"x": [1.0, 2.0]})
        with pytest.raises(ValueError, match="outcome length"):
            EncodedUniverse(
                [IntervalItem("x")],
                np.ones((1, 2), dtype=bool),
                np.ones(3),
            )


class TestUniverseBuilders:
    def test_base_universe_items(self, pocket_data):
        table, errors = pocket_data
        leaves = TreeDiscretizer(0.25).fit_all(table, errors)
        universe = base_universe(
            table, errors, {a: t.leaf_items() for a, t in leaves.items()}
        )
        attrs = set(universe.attribute_of)
        assert attrs == {"x", "y", "cat"}

    def test_base_universe_categorical_selection(self, pocket_data):
        table, errors = pocket_data
        universe = base_universe(table, errors, {}, categorical_attributes=[])
        assert universe.n_items() == 0

    def test_generalized_universe_excludes_roots(self, pocket_data):
        table, errors = pocket_data
        gamma = TreeDiscretizer(0.25).hierarchy_set(table, errors)
        universe = generalized_universe(table, errors, gamma)
        for item in universe.items:
            if isinstance(item, IntervalItem):
                assert not item.is_universe

    def test_generalized_universe_adds_flat_categoricals(self, pocket_data):
        table, errors = pocket_data
        gamma = TreeDiscretizer(0.25).hierarchy_set(table, errors)
        universe = generalized_universe(table, errors, gamma)
        cat_items = [
            it for it in universe.items if it.attribute == "cat"
        ]
        assert len(cat_items) == 3

    def test_generalized_skips_hierarchy_covered_categoricals(self):
        table = Table({"c": ["a", "b", "a", "b"]})
        gamma = HierarchySet()
        gamma.add_flat(
            "c", [CategoricalItem("c", "a"), CategoricalItem("c", "b")]
        )
        universe = generalized_universe(table, np.ones(4), gamma)
        # Items come from the hierarchy, not duplicated as flat ones.
        assert universe.n_items() == 2


class TestBitsetVsPurePython:
    """Property-style: the packed-bitset engine must reproduce the
    pure-Python brute force exactly, across random tables mixing
    categorical and continuous attributes with missing outcomes."""

    @staticmethod
    def _random_universe(seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(80, 700))
        x = gen.normal(size=n)
        y = gen.uniform(-2, 5, size=n)
        cat = gen.choice(["p", "q", "r"], n)
        table = Table({"x": x, "y": y, "cat": cat})
        if gen.random() < 0.5:
            o = gen.integers(0, 2, size=n).astype(float)  # boolean outcome
        else:
            o = gen.normal(size=n)  # numeric outcome
        o[gen.uniform(size=n) < 0.15] = np.nan  # missing values
        items = [
            IntervalItem("x", high=float(np.median(x))),
            IntervalItem("x", low=float(np.median(x))),
            IntervalItem("y", high=float(np.quantile(y, 0.33))),
            IntervalItem("y", float(np.quantile(y, 0.33)),
                         float(np.quantile(y, 0.66))),
            IntervalItem("y", low=float(np.quantile(y, 0.66))),
            CategoricalItem("cat", "p"),
            CategoricalItem("cat", "q"),
            CategoricalItem("cat", "r"),
        ]
        return EncodedUniverse.from_table(table, items, o)

    @pytest.mark.parametrize("seed", range(8))
    def test_bitset_equals_pure_python(self, seed):
        universe = self._random_universe(seed)
        support = [0.02, 0.05, 0.1, 0.25][seed % 4]
        pure = brute_force(universe, support)
        packed = as_dict(mine(universe, support))
        assert set(packed) == set(pure)
        for ids in pure:
            # Bit-identical, not approximately equal.
            assert packed[ids] == pure[ids]

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_n_jobs_2_order_stable(self, seed):
        # n_jobs is deprecated: any value but 1 warns and mines serially,
        # so the columns are the serial ones, bit for bit.
        universe = self._random_universe(seed)
        serial = mine(universe, 0.05)
        with pytest.warns(DeprecationWarning, match="n_jobs") as caught:
            deprecated = mine(universe, 0.05, n_jobs=2)
        assert len(caught) == 1
        assert_columns_identical(deprecated, serial)

    def test_n_jobs_1_is_silent(self):
        universe = self._random_universe(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            mine(universe, 0.05, n_jobs=1)
            mine_with_polarity(universe, 0.05, n_jobs=1)

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_polarity_n_jobs_2_mines_serially(self, seed):
        universe = self._random_universe(seed)
        serial = mine_with_polarity(universe, 0.05)
        with pytest.warns(DeprecationWarning, match="n_jobs") as caught:
            deprecated = mine_with_polarity(universe, 0.05, n_jobs=2)
        assert len(caught) == 1
        assert_columns_identical(deprecated, serial)

    def test_all_backends_agree_via_engine(self, generalized_fixture):
        from repro.core.mining.bitset import BitsetEngine

        # A shared engine serves every (deprecated) backend name.
        engine = BitsetEngine(generalized_fixture)
        ref = brute_force(generalized_fixture, 0.1)
        for backend in RETIRED_BACKENDS:
            got = as_dict(
                mine_retired(generalized_fixture, 0.1, backend, engine=engine)
            )
            assert got == ref, backend
