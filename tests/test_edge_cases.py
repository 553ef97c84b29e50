"""Edge-case and failure-injection tests across the pipeline."""

import math

import numpy as np
import pytest

from repro.core.discretize import CombinedTreeDiscretizer, TreeDiscretizer
from repro.core.divergence import OutcomeStats
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem, IntervalItem, Itemset
from repro.core.mining import EncodedUniverse, mine
from repro.core.outcomes import array_outcome
from repro.core.session import ExploreSession
from repro.tabular import ColumnKind, Schema, Table


class TestDegenerateData:
    def test_all_nan_outcome_explores_without_divergence(self, rng):
        table = Table({"x": rng.uniform(0, 1, 100)})
        outcomes = np.full(100, np.nan)
        result = HDivExplorer(min_support=0.2, tree_support=0.3).explore(
            table, outcomes
        )
        assert all(math.isnan(r.divergence) for r in result)
        assert result.max_divergence() == 0.0  # NaNs never rank

    def test_constant_outcome_zero_divergence(self, rng):
        table = Table({"x": rng.uniform(0, 1, 100)})
        result = HDivExplorer(min_support=0.2, tree_support=0.3).explore(
            table, np.ones(100)
        )
        assert all(r.divergence == pytest.approx(0.0) for r in result)

    def test_single_row_table(self):
        table = Table({"x": [1.0], "c": ["a"]})
        result = HDivExplorer(min_support=0.5, tree_support=0.5).explore(
            table, np.array([1.0])
        )
        assert len(result) >= 1

    def test_attribute_entirely_nan(self, rng):
        n = 200
        schema = Schema.from_kinds({"x": ColumnKind.CONTINUOUS})
        table = Table(
            {"x": [None] * n, "c": rng.choice(["a", "b"], n)},
            schema=schema,
        )
        o = (np.asarray(table["c"].to_list()) == "a").astype(float)
        result = HDivExplorer(min_support=0.1, tree_support=0.2).explore(
            table, o
        )
        # The NaN attribute contributes no items; cat still explored.
        assert all(
            item.attribute == "c" for r in result for item in r.itemset
        )

    def test_two_distinct_values_split_once(self):
        table = Table({"x": [0.0] * 50 + [1.0] * 50})
        o = np.array([0.0] * 50 + [1.0] * 50)
        tree = TreeDiscretizer(0.2).fit(table, "x", o)
        assert len(tree.leaf_items()) == 2
        assert tree.root.split_value == 0.0

    def test_missing_categorical_rows_never_match(self, rng):
        values = ["a", None, "b", None, "a"]
        table = Table({"c": values})
        o = np.ones(5)
        result = DivExplorer(min_support=0.2).explore(table, o)
        for r in result:
            assert r.count <= 3  # the two missing rows match nothing

    def test_extreme_outcome_magnitudes(self, rng):
        table = Table({"x": rng.uniform(0, 1, 200)})
        o = rng.normal(0, 1, 200) * 1e12
        result = HDivExplorer(min_support=0.2, tree_support=0.3).explore(
            table, o
        )
        assert np.isfinite(result.global_mean)

    def test_support_one_returns_universal_items_only(self, rng):
        table = Table({"c": ["a"] * 100})
        result = DivExplorer(min_support=1.0).explore(table, np.ones(100))
        assert len(result) == 1
        assert result[0].support == 1.0


#: Five -inf rows then five finite ones; a split after the -inf rows
#: once raised "empty interval: low=-inf high=-inf".
NEG_INF_X = [-math.inf] * 5 + [1.0, 2.0, 3.0, 4.0, 5.0]
NEG_INF_O = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 1], dtype=float)


def infinite_column(rng, n, nan=True):
    """Values with ±inf and ties, and NaN unless ``nan`` is False."""
    pool = [-math.inf, -1.0, 0.0, 2.5, 7.0, math.inf] + [math.nan] * nan
    return rng.choice(pool, n)


def infinite_tables():
    """The reported case, and a wider one with ±inf, ties and NaN."""
    rng = np.random.default_rng(11)
    o = (rng.uniform(size=120) < 0.4).astype(float)
    return [(np.array(NEG_INF_X), NEG_INF_O), (infinite_column(rng, 120), o)]


class TestInfiniteAttributeValues:
    """A split never lands on -inf, and every node or subgroup holds
    exactly the rows its items select (an infinite bound is no bound)."""

    @pytest.mark.parametrize("support", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("max_candidates", [1, 2, 64])
    @pytest.mark.parametrize("case", [0, 1])
    def test_tree_nodes_hold_their_items_rows(
        self, case, max_candidates, support
    ):
        x, o = infinite_tables()[case]
        table = Table({"x": x})
        tree = TreeDiscretizer(
            min_support=support, max_candidates=max_candidates
        ).fit(table, "x", o)
        for node in tree.nodes():
            mask = node.item.mask(table)
            assert node.stats == OutcomeStats.from_outcomes(o, mask)
            assert node.split_value != -math.inf
        leftmost = tree.root
        while leftmost.children:
            leftmost = leftmost.children[0]
        assert leftmost.item.contains_value(-math.inf)

    def test_reported_case_splits_after_the_inf_rows(self):
        table = Table({"x": NEG_INF_X})
        tree = TreeDiscretizer(min_support=0.2).fit(table, "x", NEG_INF_O)
        assert tree.root.split_value > -math.inf
        assert len(tree.leaf_items()) > 1

    @pytest.mark.parametrize("support", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("case", ["reported", "random"])
    def test_combined_tree_nodes_hold_their_itemsets_rows(self, case, support):
        # No NaN: the combined tree drops such rows even from its root.
        if case == "reported":
            o = NEG_INF_O
            table = Table({"x": NEG_INF_X, "z": NEG_INF_X[::-1]})
        else:
            rng = np.random.default_rng(5)
            o = (rng.uniform(size=120) < 0.4).astype(float)
            table = Table({
                "x": infinite_column(rng, 120, nan=False),
                "z": infinite_column(rng, 120, nan=False),
                "w": np.tile(NEG_INF_X, 12),
            })
        root = CombinedTreeDiscretizer(min_support=support).fit(table, o)
        assert not root.is_leaf
        for node in root.walk():
            mask = node.itemset().mask(table)
            assert node.stats == OutcomeStats.from_outcomes(o, mask)
            assert node.split_value != -math.inf

    @pytest.mark.parametrize("case", [0, 1])
    def test_explore_subgroups_hold_their_itemsets_rows(self, case):
        x, o = infinite_tables()[case]
        table = Table({"x": x})
        result = HDivExplorer(min_support=0.1, tree_support=0.2).explore(
            table, o
        )
        assert len(result) > 1
        for r in result:
            stats = OutcomeStats.from_outcomes(o, r.itemset.mask(table))
            assert (r.count, r.mean) == (stats.count, stats.mean)


class TestAdversarialItems:
    def test_item_mask_on_table_missing_categories(self):
        table = Table({"c": ["x", "y"]})
        item = CategoricalItem("c", "never-seen")
        assert not item.mask(table).any()

    def test_itemset_mask_on_empty_support_items(self):
        table = Table({"c": ["x", "y"], "v": [1.0, 2.0]})
        itemset = Itemset(
            [CategoricalItem("c", "zz"), IntervalItem("v", 0, 10)]
        )
        assert not itemset.mask(table).any()
        assert itemset.support(table) == 0.0

    def test_mining_with_empty_support_item(self):
        table = Table({"c": ["x"] * 50})
        items = [CategoricalItem("c", "x"), CategoricalItem("c", "absent")]
        universe = EncodedUniverse.from_table(table, items, np.ones(50))
        mined = mine(universe, 0.1)
        assert {m.ids for m in mined} == {frozenset({0})}

    def test_duplicate_items_in_universe(self):
        """The same item twice: same-attribute rule keeps them apart."""
        table = Table({"c": ["x"] * 20 + ["y"] * 20})
        item = CategoricalItem("c", "x")
        universe = EncodedUniverse.from_table(
            table, [item, item], np.ones(40)
        )
        mined = mine(universe, 0.1)
        # Two singleton itemsets (ids 0 and 1), never combined.
        assert all(len(m.ids) == 1 for m in mined)


class TestOutcomeBoundaries:
    def test_boolean_outcome_all_bottom(self):
        table = Table({"c": ["a", "b"]})
        out = array_outcome(np.array([np.nan, np.nan]), boolean=True)
        values = out.values(table)
        assert np.isnan(values).all()

    def test_explorer_with_negative_numeric_outcomes(self, rng):
        table = Table({"x": rng.uniform(0, 1, 300)})
        o = np.where(table.continuous("x").values > 0.5, -100.0, 100.0)
        result = HDivExplorer(min_support=0.2, tree_support=0.3).explore(
            table, o
        )
        assert result.max_divergence() > 50

    def test_welch_t_large_subgroup_equals_dataset(self, rng):
        """A subgroup = whole dataset has Δ = 0 and t = 0."""
        table = Table({"c": ["a"] * 100})
        o = rng.normal(size=100)
        result = DivExplorer(min_support=0.5).explore(table, o)
        full = result.find(Itemset([CategoricalItem("c", "a")]))
        assert full.divergence == pytest.approx(0.0)
        assert full.t == pytest.approx(0.0)


class TestInfiniteOutcome:
    """An infinite outcome has no mean to diverge from: every front
    door raises and names the row, where NaN (⊥) is accepted."""

    @pytest.fixture
    def data(self, rng):
        table = Table({"x": rng.uniform(0, 1, 60), "c": ["a", "b"] * 30})
        o = rng.uniform(0, 1, 60)
        o[17] = np.inf
        o[3] = np.nan
        return table, o

    def test_hdivexplorer_raises_naming_the_row(self, data):
        table, o = data
        with pytest.raises(ValueError, match=r"infinite in 1 row \(row 17\)"):
            HDivExplorer(min_support=0.2).explore(table, o)

    def test_divexplorer_raises_naming_the_row(self, data):
        table, o = data
        with pytest.raises(ValueError, match=r"row 17\)"):
            DivExplorer(min_support=0.2).explore(table, o)

    def test_session_raises_naming_the_rows(self, data):
        table, o = data
        o[40] = -np.inf
        with pytest.raises(ValueError, match=r"2 rows \(rows 17, 40\)"):
            ExploreSession(table, o)

    def test_many_rows_are_elided(self, rng):
        table = Table({"c": ["a"] * 10})
        out = array_outcome(np.full(10, np.inf))
        elided = r"10 rows \(rows 0, 1, 2, 3, 4, \.\.\.\)"
        with pytest.raises(ValueError, match=elided):
            out.values(table)

    def test_cli_raises_naming_the_row(self, data, tmp_path):
        from repro.cli import main
        from repro.tabular import write_csv

        table, o = data
        csv = tmp_path / "t.csv"
        write_csv(Table({"x": table.continuous("x").values, "y": o}), csv)
        args = ["hexplore", str(csv), "--kind", "numeric", "--column", "y"]
        with pytest.raises(ValueError, match=r"'y' is infinite .*row 17\)"):
            main(args)
