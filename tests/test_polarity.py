"""Unit tests for polarity pruning."""

import re

import numpy as np
import pytest

from repro.core.discretize import TreeDiscretizer
from repro.core.items import CategoricalItem, IntervalItem
from repro.core.mining import EncodedUniverse, generalized_universe, mine
from repro.core.mining.bitset import item_polarities
from repro.core.polarity import mine_with_polarity
from repro.tabular import Table


@pytest.fixture
def signed_universe(rng):
    """x>0 pushes the outcome up, x<=0 pushes it down; cat is neutral."""
    n = 500
    x = rng.uniform(-1, 1, n)
    cat = rng.choice(["a", "b"], n)
    o = np.where(x > 0, 0.9, 0.1)
    table = Table({"x": x, "cat": cat})
    items = [
        IntervalItem("x", high=0),
        IntervalItem("x", low=0),
        CategoricalItem("cat", "a"),
        CategoricalItem("cat", "b"),
    ]
    return EncodedUniverse.from_table(table, items, o)


class TestPolarities:
    def test_signs(self, signed_universe):
        p = item_polarities(signed_universe)
        assert p[0] == -1  # x<=0 lowers the mean
        assert p[1] == +1  # x>0 raises it
        assert p[2] == 0 and p[3] == 0  # categorical items neutral

    def test_explicit_polarize_attributes(self, signed_universe):
        p = item_polarities(signed_universe, polarize_attributes=["cat"])
        assert p[0] == 0 and p[1] == 0  # interval items now neutral
        assert p[2] in (-1, 0, 1)

    @pytest.mark.parametrize(
        "names, unknown",
        [
            (["cta"], ["cta"]),
            (["x", "y", "cat", "z"], ["y", "z"]),
            ("cat", ["a", "c", "t"]),  # a bare string is its characters
        ],
        ids=["misspelt", "two-unknown", "bare-string"],
    )
    def test_unknown_polarize_attributes_raise(
        self, signed_universe, names, unknown
    ):
        # A name matching no item would polarize nothing, and the
        # "pruned" run would quietly be the complete search.
        for call in (
            lambda: item_polarities(signed_universe, names),
            lambda: mine_with_polarity(
                signed_universe, 0.05, polarize_attributes=names
            ),
            lambda: mine(
                signed_universe, 0.05, polarity=True, polarize_attributes=names
            ),
        ):
            with pytest.raises(ValueError, match=re.escape(str(unknown))):
                call()

    def test_polarize_attributes_need_polarity(self, signed_universe):
        with pytest.raises(ValueError, match="polarity=True"):
            mine(signed_universe, 0.05, polarize_attributes=["x"])

    def test_zero_divergence_is_neutral(self):
        table = Table({"x": [1.0, 2.0, 3.0, 4.0]})
        o = np.ones(4)
        universe = EncodedUniverse.from_table(
            table, [IntervalItem("x", high=2), IntervalItem("x", low=2)], o
        )
        assert item_polarities(universe) == [0, 0]


class TestMineWithPolarity:
    def test_subset_of_complete_search(self, signed_universe):
        complete = {m.ids for m in mine(signed_universe, 0.05)}
        pruned = {m.ids for m in mine_with_polarity(signed_universe, 0.05)}
        assert pruned <= complete

    def test_mixed_polarity_itemsets_pruned(self, signed_universe):
        pruned = mine_with_polarity(signed_universe, 0.01)
        polarities = item_polarities(signed_universe)
        for m in pruned:
            signs = {polarities[i] for i in m.ids} - {0}
            assert len(signs) <= 1, "mixed-polarity itemset survived"

    def test_neutral_items_in_both_runs(self, signed_universe):
        pruned = {m.ids for m in mine_with_polarity(signed_universe, 0.05)}
        # cat=a combined with the positive item AND with the negative one.
        assert frozenset({1, 2}) in pruned
        assert frozenset({0, 2}) in pruned

    def test_stats_match_complete_search(self, signed_universe):
        complete = {m.ids: m.stats for m in mine(signed_universe, 0.05)}
        for m in mine_with_polarity(signed_universe, 0.05):
            assert complete[m.ids].count == m.stats.count
            assert complete[m.ids].total == pytest.approx(m.stats.total)

    def test_preserves_max_divergence_on_pocket(self, pocket_data):
        table, errors = pocket_data
        gamma = TreeDiscretizer(0.1).hierarchy_set(table, errors)
        universe = generalized_universe(table, errors, gamma)
        global_mean = universe.global_stats().mean

        def best(mined):
            return max(
                abs(m.stats.mean - global_mean) for m in mined
            )

        complete = mine(universe, 0.05)
        pruned = mine_with_polarity(universe, 0.05)
        # The pocket is one-signed, so pruning must not lose it.
        assert best(pruned) == pytest.approx(best(complete))

    def test_backends_agree(self, signed_universe):
        # The retired backend names warn and slice the one engine.
        with pytest.warns(DeprecationWarning):
            fp = mine_with_polarity(signed_universe, 0.05, "fpgrowth")
        with pytest.warns(DeprecationWarning):
            ap = mine_with_polarity(signed_universe, 0.05, "apriori")
        default = mine_with_polarity(signed_universe, 0.05)
        assert {m.ids for m in fp} == {m.ids for m in ap} == {
            m.ids for m in default
        }

    @pytest.mark.parametrize(
        "kwargs", [{"backend": "fpgrowth"}, {"n_jobs": 2}],
        ids=["backend", "n_jobs"],
    )
    def test_deprecations_point_at_the_caller(self, signed_universe, kwargs):
        # Python shows a DeprecationWarning by default only when it is
        # attributed to __main__, so it must name the caller's file.
        with pytest.warns(DeprecationWarning) as record:
            mine_with_polarity(signed_universe, 0.05, **kwargs)
        assert [w.filename for w in record] == [__file__]
