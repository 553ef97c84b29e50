"""Unit tests for SubgroupResult / ResultSet."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.divergence import OutcomeStats
from repro.core.explorer import results_from_mined
from repro.core.items import CategoricalItem, Itemset
from repro.core.mining import EncodedUniverse, mine
from repro.core.results import ResultSet, SubgroupResult


def make_result(name, divergence, support=0.2, t=5.0, length=1):
    items = [CategoricalItem(f"a{i}", name) for i in range(length)]
    return SubgroupResult(
        itemset=Itemset(items),
        support=support,
        count=int(support * 100),
        mean=0.5 + divergence,
        divergence=divergence,
        t=t,
    )


@pytest.fixture
def result_set():
    global_stats = OutcomeStats.from_outcomes(np.array([0.5] * 100))
    results = [
        make_result("hi", +0.4, t=8.0),
        make_result("lo", -0.5, t=6.0),
        make_result("mid", +0.1, t=1.0),
        make_result("weak", +0.05, t=0.5),
    ]
    return ResultSet(results, global_stats, elapsed_seconds=1.5)


class TestFromStats:
    def test_fields(self):
        sub = OutcomeStats.from_outcomes(np.array([1.0, 1.0, 0.0]))
        full = OutcomeStats.from_outcomes(
            np.array([1.0, 1.0, 0.0] + [0.0] * 7)
        )
        r = SubgroupResult.from_stats(
            Itemset([CategoricalItem("c", "x")]), sub, full, 10
        )
        assert r.support == pytest.approx(0.3)
        assert r.count == 3
        assert r.mean == pytest.approx(2 / 3)
        assert r.divergence == pytest.approx(2 / 3 - 0.2)
        assert r.length == 1

    def test_str(self):
        r = make_result("x", 0.25)
        assert "Δ=+0.250" in str(r)


def bits(x):
    """The IEEE-754 bit pattern of a float, NaN sign and payload included."""
    return struct.pack("<d", x)


def assert_bitwise_equal(got, ref):
    assert got.itemset == ref.itemset
    assert got.count == ref.count
    for field in ("support", "mean", "divergence", "t"):
        assert bits(getattr(got, field)) == bits(getattr(ref, field)), field


class TestColumnsFromStats:
    """The column arithmetic of ``results_from_mined`` against the scalar
    reference ``SubgroupResult.from_stats`` (with ``welch_t``), field for
    field and bit for bit."""

    SUBGROUPS = [
        OutcomeStats(5, 0, 0.0, 0.0),  # all-⊥ cover: n = 0
        OutcomeStats(3, 1, 1.0, 1.0),  # n = 1
        OutcomeStats(4, 4, 4.0, 4.0),  # zero variance, mean 1
        OutcomeStats(4, 4, 0.0, 0.0),  # zero variance, mean 0
        OutcomeStats(6, 5, 2.0, 2.0),
        OutcomeStats(7, 6, 2.5, 1.7),
        OutcomeStats(9, 9, -3.25, 11.0),
    ]
    DATASETS = [
        OutcomeStats(20, 18, 7.0, 7.0),
        OutcomeStats(20, 20, 20.0, 20.0),  # zero variance: t = 0 or inf
        OutcomeStats(20, 1, 1.0, 1.0),  # one defined outcome: t is NaN
        OutcomeStats(20, 0, 0.0, 0.0),  # all ⊥
    ]

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_edge_cases_match_scalar_reference(self, dataset):
        stats = self.SUBGROUPS
        support, mean, divergence, t = SubgroupResult.columns_from_stats(
            np.array([s.count for s in stats]),
            np.array([s.n for s in stats]),
            np.array([s.total for s in stats]),
            np.array([s.total_sq for s in stats]),
            dataset,
            20,
        )
        itemset = Itemset([CategoricalItem("c", "x")])
        for row, s in enumerate(stats):
            got = SubgroupResult(
                itemset, float(support[row]), s.count, float(mean[row]),
                float(divergence[row]), float(t[row]),
            )
            assert_bitwise_equal(
                got, SubgroupResult.from_stats(itemset, s, dataset, 20)
            )

    def test_zero_variance_dataset_gives_zero_and_inf(self):
        dataset = self.DATASETS[1]
        *_, t = SubgroupResult.columns_from_stats(
            np.array([4, 4]), np.array([4, 4]), np.array([4.0, 0.0]),
            np.array([4.0, 0.0]), dataset, 20,
        )
        assert t.tolist() == [0.0, math.inf]

    @pytest.mark.parametrize("kind", ["boolean", "numeric", "constant", "sparse"])
    def test_results_from_mined_matches_from_stats(self, kind):
        rng = np.random.default_rng(7)
        n_rows = 150
        items, masks = [], []
        for attribute, n_values in (("a", 3), ("b", 4), ("c", 2)):
            values = rng.integers(0, n_values, n_rows)
            for v in range(n_values):
                items.append(CategoricalItem(attribute, str(v)))
                masks.append(values == v)
        if kind == "numeric":
            outcomes = rng.normal(size=n_rows)
        elif kind == "constant":  # zero-variance dataset
            outcomes = np.ones(n_rows)
        else:
            outcomes = rng.integers(0, 2, n_rows).astype(float)
        # Mostly-⊥ outcomes leave covers with n = 0 and n = 1.
        missing = 0.97 if kind == "sparse" else 0.1
        outcomes[rng.uniform(size=n_rows) < missing] = np.nan
        universe = EncodedUniverse(items, np.array(masks), outcomes)
        mined = mine(universe, 0.01)
        result = results_from_mined(universe, mined, 0.0)
        global_stats = universe.global_stats()
        assert len(result) == len(mined) > 0
        for got, m in zip(result, mined):
            assert_bitwise_equal(
                got,
                SubgroupResult.from_stats(
                    m.to_itemset(universe), m.stats, global_stats, n_rows
                ),
            )
        if kind == "sparse":
            assert {0, 1} <= {m.stats.n for m in mined}


class TestRanking:
    def test_top_k_abs(self, result_set):
        top = result_set.top_k(2)
        assert [r.divergence for r in top] == [-0.5, 0.4]

    def test_top_k_positive(self, result_set):
        top = result_set.top_k(1, by="divergence")
        assert top[0].divergence == 0.4

    def test_top_k_negative(self, result_set):
        top = result_set.top_k(1, by="neg_divergence")
        assert top[0].divergence == -0.5

    def test_top_k_support(self, result_set):
        top = result_set.top_k(1, by="support")
        assert top[0].support == 0.2

    def test_min_t_filter(self, result_set):
        top = result_set.top_k(10, min_t=2.0)
        assert all(r.t >= 2.0 for r in top)
        assert len(top) == 2

    def test_min_length_filter(self, result_set):
        assert result_set.top_k(10, min_length=2) == []

    def test_unknown_criterion(self, result_set):
        with pytest.raises(ValueError):
            result_set.top_k(1, by="magic")

    def test_negative_k_raises(self, result_set):
        with pytest.raises(ValueError, match="non-negative"):
            result_set.top_k(-1)
        with pytest.raises(ValueError, match="non-negative"):
            result_set.to_rows(-1)
        assert result_set.top_k(0) == []

    def test_max_divergence(self, result_set):
        assert result_set.max_divergence() == 0.5
        assert result_set.max_divergence(signed=True) == 0.4

    def test_max_divergence_empty(self):
        empty = ResultSet([], OutcomeStats.empty())
        assert empty.max_divergence() == 0.0

    def test_nan_divergence_excluded(self):
        r = SubgroupResult(
            Itemset([CategoricalItem("c", "x")]), 0.5, 50, float("nan"),
            float("nan"), float("nan"),
        )
        rs = ResultSet([r], OutcomeStats.empty())
        assert rs.top_k(5) == []
        assert rs.max_divergence() == 0.0


class TestSetOps:
    def test_find(self, result_set):
        itemset = Itemset([CategoricalItem("a0", "hi")])
        assert result_set.find(itemset).divergence == 0.4
        assert result_set.find(Itemset()) is None

    def test_itemsets(self, result_set):
        assert len(result_set.itemsets()) == 4

    def test_filtered(self, result_set):
        kept = result_set.filtered(lambda r: r.divergence > 0)
        assert len(kept) == 3
        assert kept.elapsed_seconds == result_set.elapsed_seconds

    def test_merged_dedupes(self, result_set):
        merged = result_set.merged(result_set)
        assert len(merged) == len(result_set)
        assert merged.elapsed_seconds == pytest.approx(3.0)

    def test_merged_unions(self, result_set):
        extra = ResultSet(
            [make_result("extra", 0.9)], result_set.global_stats, 0.5
        )
        merged = result_set.merged(extra)
        assert len(merged) == 5

    def test_iteration_and_indexing(self, result_set):
        assert len(list(result_set)) == 4
        assert result_set[0].divergence == 0.4
        assert result_set[-1].divergence == 0.05
        assert [r.divergence for r in result_set[1:3]] == [-0.5, 0.1]
        with pytest.raises(IndexError):
            result_set[4]
        with pytest.raises(IndexError):
            result_set[-5]

    def test_columns_are_read_only(self, result_set):
        for column in (result_set.ids, result_set.divergence, result_set.t):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_global_mean(self, result_set):
        assert result_set.global_mean == pytest.approx(0.5)


class TestToRows:
    def test_rows_shape(self, result_set):
        rows = result_set.to_rows(2)
        assert len(rows) == 2
        assert set(rows[0]) == {
            "itemset", "support", "count", "mean", "divergence", "t", "length",
        }

    def test_nan_t_preserved(self):
        r = SubgroupResult(
            Itemset([CategoricalItem("c", "x")]), 0.5, 50, 0.6, 0.1,
            float("nan"),
        )
        rows = ResultSet([r], OutcomeStats.empty()).to_rows(1)
        assert math.isnan(rows[0]["t"])


# -- the columnar store against the list semantics it replaced ----------------

ITEMS = [CategoricalItem(f"a{j}", str(v)) for j in range(4) for v in range(3)]


def assert_same_rows(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert_bitwise_equal(g, r)


@st.composite
def itemsets(draw):
    """An itemset over four attributes with three values each, or the
    empty itemset."""
    attributes = draw(st.lists(st.integers(0, 3), unique=True, max_size=4))
    return Itemset(ITEMS[3 * a + draw(st.integers(0, 2))] for a in attributes)


#: Small value pools, so that ranking keys tie; ±0.0, NaN and inf included.
DIVERGENCES = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, math.nan])
T_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5, math.inf, math.nan])


@st.composite
def subgroup_results(draw):
    return SubgroupResult(
        itemset=draw(itemsets()),
        support=draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])),
        count=draw(st.integers(0, 1000)),
        mean=draw(st.one_of(DIVERGENCES, st.floats(-1, 1))),
        divergence=draw(st.one_of(DIVERGENCES, st.floats(-1, 1))),
        t=draw(st.one_of(T_VALUES, st.floats(-1, 10))),
    )


result_rows = st.lists(subgroup_results(), max_size=30)

GLOBAL = OutcomeStats.from_outcomes(np.array([0.0, 1.0, 1.0]))


def reference_top_k(rows, k, by, min_t, min_length):
    """The list-era ranking: filter built objects, then a stable sorted()."""
    key = {
        "abs_divergence": lambda r: abs(r.divergence),
        "divergence": lambda r: r.divergence,
        "neg_divergence": lambda r: -r.divergence,
        "support": lambda r: r.support,
    }[by]
    pool = [
        r
        for r in rows
        if r.length >= min_length
        and (min_t <= 0.0 or (not math.isnan(r.t) and r.t >= min_t))
        and not math.isnan(r.divergence)
    ]
    return sorted(pool, key=key, reverse=True)[:k]


class TestColumnarRanking:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=result_rows,
        k=st.integers(0, 35),
        by=st.sampled_from(
            ["abs_divergence", "divergence", "neg_divergence", "support"]
        ),
        min_t=st.sampled_from([0.0, -1.0, 1.0, 2.0, 2.5, math.inf]),
        min_length=st.integers(0, 4),
    )
    def test_top_k_matches_sorted_reference(self, rows, k, by, min_t, min_length):
        rs = ResultSet(rows, GLOBAL)
        got = rs.top_k(k, by=by, min_t=min_t, min_length=min_length)
        assert_same_rows(got, reference_top_k(list(rs), k, by, min_t, min_length))


@st.composite
def large_result_sets(draw):
    """A few hundred rows whose fields come from the tied value pools.

    Hypothesis draws the size and a seed, and the seed draws each field
    from its pool, so ranking keys tie heavily and k ≪ rows.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(100, 400))

    def pool(values):
        return rng.choice(np.array(values, dtype=float), n)

    divergences = [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, math.nan]
    supports, divergence = pool([0.0, 0.1, 0.25, 0.5, 1.0]), pool(divergences)
    t = pool([0.0, -0.0, 1.0, 2.0, 2.5, math.inf, math.nan])
    lengths = rng.integers(0, 5, n)
    rows = [
        SubgroupResult(
            Itemset(ITEMS[3 * a + int(rng.integers(3))]
                    for a in rng.permutation(4)[:length]),
            float(supports[r]), int(rng.integers(1000)), 0.5,
            float(divergence[r]), float(t[r]),
        )
        for r, length in enumerate(lengths)
    ]
    return ResultSet(rows, GLOBAL)


class TestSelectedRanking:
    """``top_k`` on result sets much larger than ``k``, where it selects
    the k-th key before sorting, against the sorted() reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        rs=large_result_sets(),
        min_t=st.sampled_from([0.0, -1.0, 1.0, 2.0, 2.5, math.inf]),
        min_length=st.integers(0, 4),
    )
    @pytest.mark.parametrize(
        "by", ["abs_divergence", "divergence", "neg_divergence", "support"]
    )
    def test_selection_matches_sorted_reference(
        self, by, rs, min_t, min_length
    ):
        rows = list(rs)
        ranked = reference_top_k(rows, len(rows), by, min_t, min_length)
        # Around k = 0, and around the rows left after the filters and
        # all rows, where top_k switches to one full sort.
        ks = {0, 1, 2, 10, len(ranked) - 1, len(ranked), len(ranked) + 1,
              len(rows) - 1, len(rows), len(rows) + 1}
        for k in sorted(ks - {-1}):
            got = rs.top_k(k, by=by, min_t=min_t, min_length=min_length)
            assert_same_rows(got, ranked[:k])

    def test_nan_supports_rank_last_in_row_order(self):
        # sorted() has no order for NaN keys, so this case is spelled out:
        # the k-th key is NaN here, and NaN keys rank last, in row order.
        supports = [math.nan, 0.5, math.nan, 0.25, math.nan]
        rows = [
            SubgroupResult(Itemset([ITEMS[i]]), s, 1, 0.5, 0.1, 1.0)
            for i, s in enumerate(supports)
        ]
        got = ResultSet(rows, GLOBAL).top_k(4, by="support")
        assert [r.itemset for r in got] == [
            rows[i].itemset for i in (1, 3, 0, 2)
        ]


class TestConstructorRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(rows=result_rows)
    def test_iteration_and_indexing(self, rows):
        rs = ResultSet(rows, GLOBAL, 2.0)
        assert len(rs) == len(rows)
        assert_same_rows(list(rs), rows)
        for i in range(-len(rows), len(rows)):
            assert_bitwise_equal(rs[i], rows[i])
        for cut in (slice(None), slice(2, None), slice(None, -3),
                    slice(1, 20, 3), slice(None, None, -2)):
            assert_same_rows(rs[cut], rows[cut])
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                rs[i]

    @settings(max_examples=150, deadline=None)
    @given(rows=result_rows, probes=st.lists(itemsets(), max_size=5))
    def test_set_operations(self, rows, probes):
        rs = ResultSet(rows, GLOBAL, 2.0)
        for s in (0.1, 0.25, 1.0):
            kept = rs.at_support(s)
            assert_same_rows(list(kept), [r for r in rows if r.support >= s])
            assert kept.elapsed_seconds == 2.0
        positive = rs.filtered(lambda r: r.divergence > 0)
        assert_same_rows(list(positive), [r for r in rows if r.divergence > 0])
        for itemset in [r.itemset for r in rows] + probes + [Itemset()]:
            ref = next((r for r in rows if r.itemset == itemset), None)
            got = rs.find(itemset)
            if ref is None:
                assert got is None
            else:
                assert_bitwise_equal(got, ref)
        assert rs.itemsets() == {r.itemset for r in rows}

    @settings(max_examples=100, deadline=None)
    @given(rows=result_rows, others=result_rows)
    def test_merged(self, rows, others):
        seen = {r.itemset: r for r in rows}
        for r in others:
            seen.setdefault(r.itemset, r)
        merged = ResultSet(rows, GLOBAL, 1.0).merged(ResultSet(others, GLOBAL, 0.5))
        assert_same_rows(list(merged), list(seen.values()))
        assert merged.elapsed_seconds == 1.5

    def test_explored_rows_match_their_reconstruction(self):
        rng = np.random.default_rng(3)
        items, masks = [], []
        for attribute in ("a", "b", "c"):
            values = rng.integers(0, 3, 120)
            for v in range(3):
                items.append(CategoricalItem(attribute, str(v)))
                masks.append(values == v)
        outcomes = rng.integers(0, 2, 120).astype(float)
        universe = EncodedUniverse(items, np.array(masks), outcomes)
        result = results_from_mined(universe, mine(universe, 0.02), 0.0)
        rows = list(result)
        rebuilt = ResultSet(rows, result.global_stats)
        assert_same_rows(list(rebuilt), rows)
        for by in ("abs_divergence", "support"):
            assert_same_rows(rebuilt.top_k(20, by=by), result.top_k(20, by=by))
        target = rows[len(rows) // 2]
        assert_bitwise_equal(result.find(target.itemset), target)


def rebuilt_ids(result):
    """The id matrix of ``result`` rebuilt from its subgroups: each
    row's item ids into the set's vocabulary, ascending, padded with
    ``-1`` to the widest itemset."""
    index = {item: i for i, item in enumerate(result.vocabulary)}
    rows = [sorted(index[item] for item in r.itemset) for r in result]
    width = max(map(len, rows), default=0)
    return np.array(
        [row + [-1] * (width - len(row)) for row in rows], dtype=np.int64
    ).reshape(len(rows), width)


def assert_ids_rebuilt(result):
    """``ids`` (built once and kept) and the row lengths match the
    matrix rebuilt from the subgroups: same shape, dtype and bytes."""
    want = rebuilt_ids(result)
    got = result.ids
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()
    assert result.ids is got and not got.flags.writeable
    lengths = np.count_nonzero(want >= 0, axis=1)
    assert result._lengths().tolist() == lengths.tolist()


class TestPrefixTree:
    """Result sets select rows by node of a shared prefix tree and
    build the id matrix from it on the first read."""

    @pytest.fixture
    def explored(self, pocket_data):
        from repro.core.hexplorer import HDivExplorer

        table, errors = pocket_data
        return HDivExplorer(min_support=0.02, tree_support=0.05).explore(
            table, errors
        )

    def test_top_k_leaves_the_matrix_unbuilt(self, explored):
        assert explored._ids == []
        top = explored.top_k(10)
        assert len(top) == 10
        explored[3], explored[:5], explored.at_support(0.2).top_k(5)
        assert explored._ids == []
        # find reads the matrix, and builds it.
        for r in top:
            assert explored.find(r.itemset).itemset == r.itemset
        assert explored._ids != []

    def test_selections_rebuild_their_ids(self, explored):
        lengths = explored._lengths()
        assert lengths.max() >= 3
        # Build the matrix first: no selection may keep it.
        assert_ids_rebuilt(explored)
        derived = {
            "at_support": explored.at_support(0.1),
            "no prefixes": explored.filtered(lambda r: r.length >= 2),
            "odd lengths": explored.filtered(lambda r: r.length % 2 == 1),
            "deepest": explored.filtered(lambda r: r.length == lengths.max()),
            "none": explored.filtered(lambda r: False),
        }
        derived["merged"] = derived["odd lengths"].merged(derived["at_support"])
        for name, result in derived.items():
            assert_ids_rebuilt(result)
            if name != "merged":
                assert result._tree is explored._tree, name
        assert derived["no prefixes"].ids.shape[1] == explored.ids.shape[1]
        assert derived["none"].ids.shape == (0, 0)
        # A kept row keeps its itemset when its prefix is dropped.
        kept = derived["deepest"]
        assert {r.itemset for r in kept} == {
            r.itemset for r in explored if r.length == lengths.max()
        }

    def test_empty_itemset_row(self):
        a, b = ITEMS[0], ITEMS[3]
        rows = [
            make_row(Itemset(), 0.0),
            make_row(Itemset([a]), 0.2),
            make_row(Itemset([a, b]), 0.1),
        ]
        rs = ResultSet(rows, GLOBAL)
        assert rs.ids.tolist() == [[-1, -1], [0, -1], [0, 1]]
        assert rs._lengths().tolist() == [0, 1, 2]
        assert [r.itemset for r in rs] == [row.itemset for row in rows]
        assert rs.find(Itemset()).itemset == Itemset()
        alone = rs.filtered(lambda r: r.length == 0)
        assert alone.ids.shape == (1, 0) and len(alone) == 1
        assert alone[0].itemset == Itemset()
        assert rs.top_k(3, by="support")[-1].itemset == Itemset()

    def test_zero_rows(self):
        rs = ResultSet([], GLOBAL)
        assert rs.ids.shape == (0, 0) and rs.ids.dtype == np.int64
        assert rs._lengths().shape == (0,)
        assert list(rs) == [] and rs.top_k(5) == []

    @settings(max_examples=100, deadline=None)
    @given(rows=result_rows, others=result_rows)
    def test_built_sets_match_their_rows(self, rows, others):
        rs = ResultSet(rows, GLOBAL)
        assert_ids_rebuilt(rs)
        for result in (
            rs.at_support(0.25),
            rs.filtered(lambda r: r.length != 1),
            rs.merged(ResultSet(others, GLOBAL)),
        ):
            assert_ids_rebuilt(result)


def make_row(itemset, support):
    return SubgroupResult(itemset, support, int(support * 100), 0.5, 0.1, 2.0)
