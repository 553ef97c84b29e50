"""Unit tests for the packed-bitset mining engine.

Covers the packing/popcount kernels (both the ``np.bitwise_count`` and
the LUT fallback paths), cover algebra, bit-identical statistic
aggregation against :meth:`EncodedUniverse.stats_of_mask`, restricted
sub-engines, and the level-batched miner (its agreement with brute
force lives in ``test_property_mining.py``).
"""

import pickle

import numpy as np
import pytest

from repro.core.items import CategoricalItem
from repro.core.mining import EncodedUniverse, mine
from repro.core.mining import bitset as bitset_mod
from repro.core.mining.bitset import (
    BitsetEngine,
    pack_mask,
    popcount_rows,
    unpack_cover,
)
from repro.core.divergence import OutcomeStats
from repro.core.mining import MinedColumns, MinedItemset
from repro.core.mining.parallel import mine_parallel


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

    @pytest.mark.parametrize("n_rows", [1, 64, 65, 517])
    def test_popcount_matches_mask_sum(self, np_rng, n_rows):
        masks = np_rng.uniform(size=(7, n_rows)) < 0.3
        words = pack_mask(masks)
        expected = masks.sum(axis=1)
        assert np.array_equal(popcount_rows(words), expected)
        assert popcount_rows(words[0]) == expected[0]

    def test_popcount_lut_fallback(self, np_rng, monkeypatch):
        masks = np_rng.uniform(size=(4, 333)) < 0.5
        words = pack_mask(masks)
        fast = popcount_rows(words)
        monkeypatch.setattr(bitset_mod, "_HAVE_BITWISE_COUNT", False)
        assert np.array_equal(popcount_rows(words), fast)

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

    def test_all_missing_outcomes(self, np_rng):
        u = random_universe(np_rng, 80, [("a", 2), ("b", 2)], missing=1.0)
        engine = BitsetEngine(u)
        stats = engine.stats((0,))
        assert stats.n == 0 and stats.total == 0.0

    def test_restricted_engine_matches_restricted_universe(self, np_rng):
        u = random_universe(np_rng, 211, [("a", 3), ("b", 3), ("c", 2)])
        keep = [0, 2, 4, 6]
        sub_u = u.restricted(keep)
        sub_e = BitsetEngine(u).restricted(keep)
        assert np.array_equal(
            unpack_cover(sub_e.item_words, u.n_rows), sub_u.masks
        )
        got = sub_e.stats((0, 3))
        expected = sub_u.stats_of_mask(sub_u.masks[0] & sub_u.masks[3])
        assert got == expected


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

    def test_subtrees_concatenate_to_full_mine(self, np_rng):
        u = random_universe(np_rng, 350, [("a", 3), ("b", 3), ("c", 2)])
        engine = BitsetEngine(u)
        s = 0.05
        full = engine.mine(s)
        stitched = MinedColumns.concat(
            [engine.mine_subtree(root, tail, s) for root, tail in engine.shards(s)]
        )
        assert stitched == full
        assert [(m.ids, m.stats) for m in stitched] == [
            (m.ids, m.stats) for m in full
        ]

    def test_parallel_matches_serial_in_order(self, np_rng):
        u = random_universe(np_rng, 450, [("a", 3), ("b", 3), ("c", 3)])
        serial = mine_bitset(u, 0.03)
        for n_jobs in (2, 3):
            par = mine_parallel(u, 0.03, n_jobs=n_jobs)
            assert [(m.ids, m.stats) for m in par] == [
                (m.ids, m.stats) for m in serial
            ]

    def test_parallel_serial_fallback(self, np_rng):
        u = random_universe(np_rng, 200, [("a", 2), ("b", 2)])
        assert [(m.ids, m.stats) for m in mine_parallel(u, 0.05, n_jobs=1)] == [
            (m.ids, m.stats) for m in mine_bitset(u, 0.05)
        ]


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

    def test_select_concat_canonical(self):
        mined = MinedColumns(
            np.array([[0, -1], [0, 2], [1, -1]]), [5, 3, 4], [5, 3, 4],
            [1.0, 2.0, 3.0], [1.0, 4.0, 9.0],
        )
        tail, head = mined.select(np.array([False, False, True])), mined.select([0, 1])
        shuffled = MinedColumns.concat([tail, head, head.select([1])])
        assert shuffled.canonical() == mined
        assert MinedColumns.concat([]) == MinedColumns.empty() == []
        assert list(mined.select([2])) == [
            MinedItemset(frozenset({1}), OutcomeStats(4, 4, 3.0, 9.0))
        ]

    def test_pickle_round_trip(self, np_rng):
        u = random_universe(np_rng, 130, [("a", 2), ("b", 3)])
        mined = mine_bitset(u, 0.1)
        back = pickle.loads(pickle.dumps(mined))
        assert back == mined
        assert not back.total.flags.writeable
