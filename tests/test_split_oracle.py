"""The vectorised split search against a brute-force oracle.

The oracle is a per-threshold loop: score every admissible threshold,
under the same ``max_candidates`` cap (after which a cut at −inf is
dropped), with the scalar criterion, keep the first strict maximum,
then apply ``min_gain`` and, with ``mdl_stop``, the MDLP test. Trees
grown with it must equal the discretizers' trees bit for bit (split
values and node statistics, by ``.hex()``).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.discretize import (
    CombinedTreeDiscretizer,
    TreeDiscretizer,
    get_criterion,
)
from repro.core.discretize import criteria
from repro.core.discretize.criteria import mdl_accepts
from repro.core.divergence import OutcomeStats, min_support_count
from repro.tabular import Table


# -- the oracle ----------------------------------------------------------------


def prefix_sums(o):
    defined = ~np.isnan(o)
    filled = np.where(defined, o, 0.0)
    return (
        np.concatenate([[0], np.cumsum(defined)]),
        np.concatenate([[0.0], np.cumsum(filled)]),
        np.concatenate([[0.0], np.cumsum(filled * filled)]),
    )


def range_stats(prefix, i0, i1):
    cum_n, cum_o, cum_o2 = prefix
    return OutcomeStats(
        i1 - i0,
        int(cum_n[i1] - cum_n[i0]),
        float(cum_o[i1] - cum_o[i0]),
        float(cum_o2[i1] - cum_o2[i0]),
    )


def reference_split(v, prefix, i0, i1, parent, min_count, n_total, criterion,
                    max_candidates):
    """``(cut, gain)`` of the first strict maximum, or None."""
    cuts = [
        c for c in range(i0 + min_count, i1 - min_count + 1)
        if v[c - 1] != v[c]
    ]
    if len(cuts) > max_candidates:
        picks = np.linspace(0, len(cuts) - 1, max_candidates).astype(int)
        cuts = [cuts[i] for i in sorted(set(picks.tolist()))]
    cuts = [c for c in cuts if v[c - 1] != -math.inf]
    best_gain, best = -math.inf, None
    for c in cuts:
        gain = criterion(
            parent, range_stats(prefix, i0, c), range_stats(prefix, c, i1),
            n_total,
        )
        if gain > best_gain:
            best_gain, best = gain, c
    return None if best is None else (best, best_gain)


def reference_tree(x, o, n_total, support, criterion, max_candidates,
                   min_gain, mdl_stop=False):
    """Preorder ``(split value, stats)`` of the per-attribute tree.

    With ``mdl_stop``, a node whose best split fails the MDLP test
    (``mdl_accepts``) is a leaf.
    """
    keep = ~np.isnan(x)
    order = np.argsort(x[keep], kind="stable")
    v, prefix = x[keep][order], prefix_sums(o[keep][order])
    min_count = min_support_count(support, n_total)

    def grow(i0, i1):
        stats = range_stats(prefix, i0, i1)
        split = reference_split(
            v, prefix, i0, i1, stats, min_count, n_total, criterion,
            max_candidates,
        )
        if split is None or split[1] < min_gain:
            return [(None, stats)]
        cut = split[0]
        if mdl_stop and not mdl_accepts(
            stats, range_stats(prefix, i0, cut), range_stats(prefix, cut, i1)
        ):
            return [(None, stats)]
        return [(float(v[cut - 1]), stats)] + grow(i0, cut) + grow(cut, i1)

    return grow(0, v.size)


def reference_combined(columns, o, n_total, support, criterion,
                       max_candidates):
    """Preorder ``(attribute, split value, stats)`` of the combined tree."""
    min_count = min_support_count(support, n_total)
    keep = np.ones(n_total, dtype=bool)
    for x in columns.values():
        keep &= ~np.isnan(x)

    def grow(rows):
        stats = OutcomeStats.from_outcomes(o[rows])
        best_gain, best = -math.inf, None
        for attr, x in columns.items():
            order = np.argsort(x[rows], kind="stable")
            v, prefix = x[rows][order], prefix_sums(o[rows][order])
            split = reference_split(
                v, prefix, 0, rows.size, stats, min_count, n_total,
                criterion, max_candidates,
            )
            if split is not None and split[1] > best_gain:
                best_gain = split[1]
                best = (attr, float(v[split[0] - 1]), rows[order[: split[0]]])
        if best is None:
            return [(None, None, stats)]
        attr, value, left = best
        is_left = np.isin(rows, left)
        return (
            [(attr, value, stats)] + grow(rows[is_left]) + grow(rows[~is_left])
        )

    return grow(np.flatnonzero(keep))


def hexed(stats):
    return (stats.count, stats.n, stats.total.hex(), stats.total_sq.hex())


def hex_or_none(value):
    return None if value is None else value.hex()


# -- strategies ----------------------------------------------------------------


def attribute(rng, n, kind):
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "ties":
        return rng.integers(0, 5, n).astype(float)
    x = rng.uniform(-10, 10, n)
    if kind == "nan":
        x[rng.uniform(size=n) < 0.25] = np.nan
    if kind == "neginf":
        x[rng.uniform(size=n) < rng.uniform(0.05, 0.6)] = -np.inf
    return x


def outcome(rng, n, kind):
    if kind == "boolean":
        return (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(float)
    if kind == "boolean-nan":
        o = (rng.uniform(size=n) < 0.4).astype(float)
        o[rng.uniform(size=n) < 0.3] = np.nan
        return o
    if kind == "all-nan":
        return np.full(n, np.nan)
    if kind == "constant-boolean":
        return np.full(n, float(rng.integers(0, 2)))
    if kind == "constant-numeric":
        return np.full(n, 7.25)
    o = rng.normal(0, 10, n) * rng.uniform(0.1, 100)
    if kind == "numeric-nan":
        o[rng.uniform(size=n) < 0.3] = np.nan
    return o


BOOLEAN = ["boolean", "boolean-nan", "all-nan", "constant-boolean"]
NUMERIC = ["numeric", "numeric-nan", "constant-numeric"]


@st.composite
def cases(draw, max_rows=200):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_rows))
    x_kind = draw(
        st.sampled_from(["continuous", "ties", "constant", "nan", "neginf"])
    )
    o_kind = draw(st.sampled_from(BOOLEAN + NUMERIC))
    names = ["divergence", "entropy"] if o_kind in BOOLEAN else ["divergence"]
    return {
        "x": attribute(rng, n, x_kind),
        "o": outcome(rng, n, o_kind),
        "criterion": draw(st.sampled_from(names)),
        "max_candidates": draw(st.sampled_from([1, 2, 64])),
        "min_gain": draw(st.sampled_from([0.0, 1e-3, 0.05])),
        "support": draw(st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5])),
    }


# -- per node ------------------------------------------------------------------


def assert_node_matches(v, prefix, i0, i1, min_count, n_total, name,
                        max_candidates, min_gain):
    criterion = get_criterion(name)
    parent = range_stats(prefix, i0, i1)
    ref = reference_split(
        v, prefix, i0, i1, parent, min_count, n_total, criterion,
        max_candidates,
    )
    cuts = criteria._candidate_cuts(
        v, i0 + min_count, i1 - min_count, max_candidates
    )
    got = (
        criteria._best_cut(
            criterion, parent, cuts, prefix[0], prefix[1], i0, i1, n_total
        )
        if cuts.size
        else None
    )
    if ref is None:
        assert got is None
    else:
        assert got is not None
        assert got[0] == ref[0]
        assert got[1].hex() == ref[1].hex()
    disc = TreeDiscretizer(
        0.5, criterion=name, max_candidates=max_candidates, min_gain=min_gain
    )
    split = disc._best_split(
        v, prefix, i0, i1, parent, min_count, n_total, "x"
    )
    if ref is None or ref[1] < min_gain:
        assert split is None
    else:
        assert split[0] == ref[0]
        assert split[1].hex() == v[ref[0] - 1].hex()


@settings(max_examples=150, deadline=None)
@given(case=cases(), data=st.data())
def test_node_split_matches_oracle(case, data):
    x, o = case["x"], case["o"]
    keep = ~np.isnan(x)
    order = np.argsort(x[keep], kind="stable")
    v, prefix = x[keep][order], prefix_sums(o[keep][order])
    if v.size < 2:
        return
    i0 = data.draw(st.integers(0, v.size - 2))
    i1 = data.draw(st.integers(i0 + 2, v.size))
    min_count = data.draw(st.integers(1, (i1 - i0) // 2))
    assert_node_matches(
        v, prefix, i0, i1, min_count, x.size, case["criterion"],
        case["max_candidates"], case["min_gain"],
    )


# -- whole trees ---------------------------------------------------------------


def neginf_mdl_case():
    """An entropy tree whose root's best cut is the dropped one at −inf
    (the −inf rows all have outcome 1, nine in ten of the others 0).
    With ``mdl_stop`` the root splits at its next-best cut, which
    passes the MDLP test."""
    rng = np.random.default_rng(7)
    x = np.concatenate([np.full(40, -np.inf), rng.uniform(0, 10, 160)])
    o = np.concatenate([np.ones(40), (x[40:] > 9).astype(float)])
    return {
        "x": x, "o": o, "criterion": "entropy", "max_candidates": 64,
        "min_gain": 0.0, "support": 0.05,
    }


@settings(max_examples=100, deadline=None)
@given(case=cases(), mdl_stop=st.booleans())
@example(case=neginf_mdl_case(), mdl_stop=True)
def test_tree_matches_oracle(case, mdl_stop):
    # The MDLP stop needs the entropy criterion.
    mdl_stop = mdl_stop and case["criterion"] == "entropy"
    x, o = case["x"], case["o"]
    disc = TreeDiscretizer(
        case["support"], criterion=case["criterion"],
        max_candidates=case["max_candidates"], min_gain=case["min_gain"],
        mdl_stop=mdl_stop,
    )
    tree = disc.fit(Table({"x": x}), "x", o)
    got = [
        (hex_or_none(node.split_value), hexed(node.stats))
        for node in tree.nodes()
    ]
    want = [
        (hex_or_none(value), hexed(stats))
        for value, stats in reference_tree(
            x, o, x.size, case["support"], get_criterion(case["criterion"]),
            case["max_candidates"], case["min_gain"], mdl_stop,
        )
    ]
    assert got == want


@settings(max_examples=40, deadline=None)
@given(case=cases(max_rows=120), seed=st.integers(0, 2**16))
def test_combined_tree_matches_oracle(case, seed):
    rng = np.random.default_rng(seed)
    n = case["x"].size
    columns = {"x": case["x"], "y": rng.integers(0, 4, n).astype(float)}
    o = case["o"]
    disc = CombinedTreeDiscretizer(
        case["support"], criterion=case["criterion"],
        max_candidates=case["max_candidates"],
    )
    root = disc.fit(Table(columns), o)
    got = [
        (node.split_attribute, hex_or_none(node.split_value),
         hexed(node.stats))
        for node in root.walk()
    ]
    want = [
        (attr, hex_or_none(value), hexed(stats))
        for attr, value, stats in reference_combined(
            columns, o, n, case["support"], get_criterion(case["criterion"]),
            case["max_candidates"],
        )
    ]
    assert got == want


# -- the entropy re-score ------------------------------------------------------


def test_entropy_rescore_absorbs_log_error(monkeypatch):
    """Vector entropies off by ±2 ulp must not change a split or its gain."""
    entropies = criteria._entropies
    nudge = np.random.default_rng(3)

    def off_by_two_ulp(n, total):
        h = entropies(n, total)
        towards = np.where(nudge.uniform(size=h.shape) < 0.5, -np.inf, np.inf)
        moved = np.nextafter(np.nextafter(h, towards), towards)
        return np.where(h > 0.0, moved, h)

    monkeypatch.setattr(criteria, "_entropies", off_by_two_ulp)
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(20, 300))
        x = attribute(rng, n, "ties" if trial % 3 == 0 else "continuous")
        o = outcome(rng, n, BOOLEAN[trial % 2])
        v = np.sort(x)
        prefix = prefix_sums(o[np.argsort(x, kind="stable")])
        for max_candidates in (2, 64):
            assert_node_matches(
                v, prefix, 0, n, max(1, n // 20), n, "entropy",
                max_candidates, 0.0,
            )


# -- the stable order ----------------------------------------------------------


@pytest.mark.parametrize(
    "x",
    [
        [],
        [1.5],
        [-0.0],
        [0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0] * 5,
        [np.inf, -np.inf, 1.0, np.inf, -np.inf, 0.0] * 6,
        [5e-324, -5e-324, 0.0, 2.2250738585072014e-308, 5e-324] * 8,
        [3.0] * 40,
        list(range(30, 0, -1)) * 2,
    ],
    ids=["empty", "one", "one-negzero", "signed-zeros", "infinities",
         "subnormals", "constant", "reversed-pairs"],
)
def test_stable_order_equals_stable_argsort(x):
    x = np.asarray(x, dtype=np.float64)
    got = criteria._stable_order(x)
    assert got.dtype == np.argsort(x, kind="stable").dtype
    assert got.tolist() == np.argsort(x, kind="stable").tolist()


def test_stable_order_random_ties():
    rng = np.random.default_rng(5)
    pool = np.array([-np.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, np.inf])
    for n in (2, 3, 17, 64, 400, 5000):
        for _ in range(5):
            x = rng.choice(pool, n)
            assert (
                criteria._stable_order(x) == np.argsort(x, kind="stable")
            ).all()
