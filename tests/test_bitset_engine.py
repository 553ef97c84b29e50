"""Unit tests for the packed-bitset mining engine.

Covers the packing/popcount kernels (both the ``np.bitwise_count`` and
the LUT fallback paths), cover algebra, bit-identical statistic
aggregation against :meth:`EncodedUniverse.stats_of_mask` and
:meth:`EncodedUniverse.item_stats`, and the level-batched miner's
step slicing (its agreement with brute force lives in
``test_property_mining.py``).
"""

import pickle

import numpy as np
import pytest

from repro.core.config import ExploreConfig
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem
from repro.core.mining import EncodedUniverse, mine
from repro.core.mining import bitset as bitset_mod
from repro.core.mining.bitset import (
    BitsetEngine,
    pack_mask,
    popcount_rows,
    unpack_cover,
)
from repro.core.mining import MinedColumns, MinedItemset
from repro.core.session import ExploreSession
from repro.obs import ObsCollector


def mine_bitset(universe, min_support, max_length=None):
    return BitsetEngine(universe).mine(min_support, max_length)


def random_universe(rng, n_rows, attrs, boolean=False, missing=0.1):
    """A categorical universe with optional NaN outcomes."""
    items, masks = [], []
    for a, n_vals in attrs:
        vals = rng.integers(0, n_vals, size=n_rows)
        for v in range(n_vals):
            items.append(CategoricalItem(a, str(v)))
            masks.append(vals == v)
    if boolean:
        o = rng.integers(0, 2, size=n_rows).astype(float)
    else:
        o = rng.normal(size=n_rows)
    if missing:
        o[rng.uniform(size=n_rows) < missing] = np.nan
    return EncodedUniverse(items, np.array(masks), o)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20230515)


class TestPackedKernels:
    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 100, 517, 1024])
    def test_pack_unpack_roundtrip(self, np_rng, n_rows):
        masks = np_rng.uniform(size=(5, n_rows)) < 0.4
        words = pack_mask(masks)
        assert words.dtype == np.uint64
        assert words.shape[1] * 64 >= n_rows
        assert np.array_equal(unpack_cover(words, n_rows), masks)
        # 1-D convenience form.
        assert np.array_equal(unpack_cover(pack_mask(masks[0]), n_rows), masks[0])

    # 1, 1, 2, 9, 16, 94 and 3058 words: the one-word int64 row sum and
    # the float32 one, with np.bitwise_count and with the lookup table.
    @pytest.mark.parametrize("n_rows", [1, 64, 65, 517, 1024, 6011, 195_712])
    def test_popcount_matches_mask_sum(self, np_rng, monkeypatch, n_rows):
        masks = np_rng.uniform(size=(7, n_rows)) < 0.3
        words = pack_mask(masks)
        full = np.full((3, words.shape[1]), ~np.uint64(0), dtype=np.uint64)
        expected = masks.sum(axis=1)
        for have_bitwise_count in (True, False):
            monkeypatch.setattr(
                bitset_mod, "_HAVE_BITWISE_COUNT", have_bitwise_count
            )
            got = popcount_rows(words)
            assert got.dtype == np.int64 and got.shape == (7,)
            assert np.array_equal(got, expected)
            one = popcount_rows(words[0])
            assert one.dtype == np.int64 and one.shape == ()
            assert one == expected[0]
            assert popcount_rows(full).tolist() == [64 * words.shape[1]] * 3

    def test_popcount_lut_fallback(self, np_rng, monkeypatch):
        masks = np_rng.uniform(size=(4, 333)) < 0.5
        words = pack_mask(masks)
        fast = popcount_rows(words)
        monkeypatch.setattr(bitset_mod, "_HAVE_BITWISE_COUNT", False)
        assert np.array_equal(popcount_rows(words), fast)

    @pytest.mark.parametrize("lut", [False, True], ids=["bitwise_count", "lut"])
    def test_popcount_float32_bound(self, monkeypatch, lut):
        # A row of 2**18 words counts at most 2**24, which float32 holds
        # exactly: the widest row summed in float32. One more word takes
        # the int64 sum; with one bit set in it the count, 2**24 + 1,
        # has no float32 value.
        if lut:
            monkeypatch.setattr(bitset_mod, "_HAVE_BITWISE_COUNT", False)
        widest = bitset_mod._FLOAT32_MAX_WORDS
        assert widest == 1 << 18
        words = np.full(widest + 1, ~np.uint64(0), dtype=np.uint64)
        words[-1] = 1
        assert popcount_rows(words[:widest]) == 1 << 24
        assert popcount_rows(words) == (1 << 24) + 1
        assert popcount_rows(words[None, :]).tolist() == [(1 << 24) + 1]

    def test_padding_bits_are_zero(self, np_rng):
        # Rows beyond n_rows must never contribute to popcounts.
        masks = np.ones((2, 65), dtype=bool)
        words = pack_mask(masks)
        assert np.array_equal(popcount_rows(words), [65, 65])


class TestEngineStats:
    @pytest.mark.parametrize("boolean", [False, True])
    def test_stats_bit_identical_to_mask_path(self, np_rng, boolean):
        u = random_universe(
            np_rng, 523, [("a", 3), ("b", 4), ("c", 2)], boolean=boolean
        )
        engine = BitsetEngine(u)
        assert engine.boolean == boolean
        for ids in [(0,), (2,), (0, 3), (1, 5, 7), (2, 4, 8)]:
            mask = np.logical_and.reduce(u.masks[list(ids)])
            expected = u.stats_of_mask(mask)
            got = engine.stats(ids)
            # Exact equality, not approx: the engine must be
            # bit-identical to the pure path.
            assert got.count == expected.count
            assert got.n == expected.n
            assert got.total == expected.total
            assert got.total_sq == expected.total_sq

    def test_support_and_item_counts(self, np_rng):
        u = random_universe(np_rng, 301, [("a", 4), ("b", 3)])
        engine = BitsetEngine(u)
        assert np.array_equal(engine.item_counts(), u.masks.sum(axis=1))
        for i in range(u.n_items()):
            assert engine.support((i,)) == int(u.masks[i].sum())

    @pytest.mark.parametrize("kind", ["numeric", "boolean", "all_nan"])
    def test_item_stats_bit_identical_to_universe(self, np_rng, kind):
        u = random_universe(
            np_rng, 523, [("a", 3), ("b", 4), ("c", 2)],
            boolean=kind == "boolean", missing=1.0 if kind == "all_nan" else 0.1,
        )
        batched = BitsetEngine(u).item_stats()
        reference = u.item_stats()
        assert len(batched) == len(reference) == u.n_items()
        for got, expected in zip(batched, reference):
            assert (type(got.count), type(got.n)) == (int, int)
            assert (got.count, got.n) == (expected.count, expected.n)
            assert got.total.hex() == expected.total.hex()
            assert got.total_sq.hex() == expected.total_sq.hex()

    @pytest.mark.parametrize("kind", ["numeric", "boolean"])
    def test_item_statistics_aggregated_once_per_engine(
        self, pocket_data, rng, monkeypatch, kind
    ):
        # A polarity mine needs every item's statistics for the signs,
        # and level 1 needs the frequent items' again; a session mines
        # with one engine per universe. Each item's covers reach
        # _stat_components once over two polarity mines; the results
        # keep their bytes.
        table, errors = pocket_data
        values = errors if kind == "boolean" else rng.normal(size=table.n_rows)
        supports = (0.1, 0.05)
        references = [
            HDivExplorer(ExploreConfig(min_support=s, polarity=True)).explore(
                table, values
            )
            for s in supports
        ]
        received, engines = [], set()
        aggregate = BitsetEngine._stat_components

        def counting(engine, covers, counts):
            received.append(len(covers))
            engines.add(engine)
            return aggregate(engine, covers, counts)

        monkeypatch.setattr(BitsetEngine, "_stat_components", counting)
        with ExploreSession(table, values) as session:
            results = [
                session.explore(min_support=s, polarity=True) for s in supports
            ]
        (engine,) = engines
        longer = sum(int(((r.ids >= 0).sum(axis=1) > 1).sum()) for r in results)
        assert sum(received) == engine.universe.n_items() + longer
        for result, reference in zip(results, references):
            for column in ("ids", "count", "support", "mean", "divergence", "t"):
                got, want = getattr(result, column), getattr(reference, column)
                assert got.tobytes() == want.tobytes(), column

    def test_all_missing_outcomes(self, np_rng):
        u = random_universe(np_rng, 80, [("a", 2), ("b", 2)], missing=1.0)
        engine = BitsetEngine(u)
        stats = engine.stats((0,))
        assert stats.n == 0 and stats.total == 0.0


class TestCoverCache:
    """``cover()`` is plain cover algebra; the class name predates the
    removal of the LRU cache that used to sit behind it."""

    def test_prefix_reuse_is_correct(self, np_rng):
        u = random_universe(np_rng, 400, [("a", 3), ("b", 3), ("c", 3)])
        engine = BitsetEngine(u)
        prefix = engine.cover((0, 3))
        cover = engine.cover((0, 3, 6))
        expected = u.masks[0] & u.masks[3] & u.masks[6]
        assert np.array_equal(unpack_cover(cover, u.n_rows), expected)
        assert np.array_equal(cover, prefix & engine.item_words[6])

    def test_empty_itemset_cover_is_all_rows(self, np_rng):
        for n_rows in (64, 65, 100):
            u = random_universe(np_rng, n_rows, [("a", 2)])
            engine = BitsetEngine(u)
            cover = engine.cover(())
            assert int(popcount_rows(cover)) == n_rows


class TestBitsetMining:
    @pytest.mark.parametrize("boolean", [False, True])
    @pytest.mark.parametrize("s", [0.02, 0.1, 0.4])
    def test_matches_eclat_exactly(self, np_rng, boolean, s):
        # The retired "eclat" spelling warns and returns exactly the
        # engine's output, in the same order.
        u = random_universe(
            np_rng, 700, [("a", 3), ("b", 4), ("c", 2), ("d", 3)],
            boolean=boolean,
        )
        with pytest.warns(DeprecationWarning, match="'eclat' is deprecated"):
            retired = mine(u, s, "eclat")
        packed = mine_bitset(u, s)
        assert [(m.ids, m.stats) for m in packed] == [
            (m.ids, m.stats) for m in retired
        ]

    def test_max_length_respected(self, np_rng):
        u = random_universe(np_rng, 300, [("a", 3), ("b", 3), ("c", 3)])
        assert all(len(m.ids) <= 2 for m in mine_bitset(u, 0.01, max_length=2))

    def test_invalid_support_raises(self, np_rng):
        u = random_universe(np_rng, 50, [("a", 2)])
        with pytest.raises(ValueError):
            mine_bitset(u, 0.0)

    @pytest.mark.parametrize("per_step", [1, 7, 10**9])
    def test_step_slicing_leaves_output_unchanged(
        self, np_rng, monkeypatch, per_step
    ):
        # One candidate per slice, an uneven slice, and one slice wider
        # than any level: same bytes and work counters as the default.
        # The survivors of each slice are kept by index, so check every
        # branch of _stat_components (numeric or boolean outcomes, all
        # or only some of them defined) and the sign filter.
        attrs = [("a", 3), ("b", 3), ("c", 2), ("d", 2)]
        polarity = {"polarity": True, "polarize_attributes": ["a", "b", "c", "d"]}
        cases = {
            # name: (outcome shape, mine() options, (boolean, all_valid))
            "numeric-nan": ({}, {}, (False, False)),
            "boolean": ({"boolean": True, "missing": 0.0}, {}, (True, True)),
            "boolean-nan": ({"boolean": True}, {}, (True, False)),
            "polarity": ({}, polarity, (False, False)),
        }
        for name, (outcome, options, branch) in cases.items():
            u = random_universe(np_rng, 350, attrs, **outcome)
            engine = BitsetEngine(u)
            assert (engine.boolean, engine.all_valid) == branch, name

            def run():
                obs = ObsCollector()
                mined = mine(u, 0.02, obs=obs, **options)
                counters = {
                    k: v for k, v in obs.counters.items()
                    if k.startswith(("mining.", "polarity."))
                }
                return mined, counters

            default, default_counters = run()
            with monkeypatch.context() as patch:
                patch.setattr(
                    bitset_mod, "STEP_BYTES", per_step * 8 * engine.n_words
                )
                sliced, counters = run()
            assert counters == default_counters, name
            assert counters["mining.candidates.level_3"] > 7, name
            if options:
                assert counters["mining.polarity_pruned"] > 0
            for column in ("ids", "count", "n", "total", "total_sq"):
                got, want = getattr(sliced, column), getattr(default, column)
                assert got.tobytes() == want.tobytes(), (name, column)
                assert got.shape == want.shape, (name, column)


class TestMinedColumns:
    def test_iteration_yields_mined_itemsets(self, np_rng):
        u = random_universe(np_rng, 240, [("a", 3), ("b", 2)])
        mined = mine_bitset(u, 0.05)
        rows = list(mined)
        assert len(rows) == len(mined) > 0
        assert all(isinstance(m, MinedItemset) for m in rows)
        for m, ids, count in zip(rows, mined.ids.tolist(), mined.count.tolist()):
            assert m.ids == frozenset(i for i in ids if i >= 0)
            assert m.stats.count == count and type(m.stats.count) is int
        assert mined.lengths().tolist() == [len(m.ids) for m in rows]

    def test_rows_are_canonical_and_read_only(self, np_rng):
        u = random_universe(np_rng, 240, [("a", 3), ("b", 2), ("c", 2)])
        mined = mine_bitset(u, 0.05)
        keys = [tuple(sorted(m.ids)) for m in mined]
        assert keys == sorted(keys)
        with pytest.raises(ValueError):
            mined.count[0] = 0

    def test_pickle_round_trip(self, np_rng):
        u = random_universe(np_rng, 130, [("a", 2), ("b", 3)])
        mined = mine_bitset(u, 0.1)
        back = pickle.loads(pickle.dumps(mined))
        assert back == mined
        assert not back.total.flags.writeable

    def test_tree_serves_lengths_repr_and_pickle_unbuilt(self, np_rng):
        u = random_universe(np_rng, 200, [("a", 3), ("b", 2), ("c", 2)])
        mined = mine_bitset(u, 0.05)
        width = int(mined.lengths().max())
        assert repr(mined) == f"MinedColumns(itemsets={len(mined)}, width={width})"
        back = pickle.loads(pickle.dumps(mined))
        assert mined._ids is None and back._ids is None
        for name in ("parent", "item", "count", "n", "total", "total_sq"):
            got, want = getattr(back, name), getattr(mined, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert back.ids.shape == (len(mined), width) == mined.ids.shape
        assert back.ids.tobytes() == mined.ids.tobytes()
        assert mined.ids is mined.ids and not mined.ids.flags.writeable

    def test_zero_rows(self):
        empty = MinedColumns.empty()
        assert len(empty) == 0 and list(empty) == []
        assert empty.ids.shape == (0, 0) and empty.ids.dtype == np.int64
        assert empty.lengths().shape == (0,)
        assert repr(empty) == "MinedColumns(itemsets=0, width=0)"
        back = pickle.loads(pickle.dumps(empty))
        assert back.ids.shape == (0, 0) and back == empty

    def test_tree_columns_must_align(self):
        stats = ([5, 4], [5, 4], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="one entry per itemset"):
            MinedColumns([-1, 0], [0], *stats)
        # A parent at or after its row, or below -1, would make a cycle
        # or point nowhere.
        for parent in ([-1, 1], [0, -1], [-1, -2]):
            with pytest.raises(ValueError, match="earlier row"):
                MinedColumns(parent, [0, 1], *stats)
        assert MinedColumns([-1, 0], [0, 1], *stats).ids.tolist() == [
            [0, -1], [0, 1],
        ]
