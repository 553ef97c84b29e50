"""Split gain criteria for discretization trees (Section V-A).

Both criteria score a candidate split of a node ``S`` into ``S1, S2``;
higher is better. Sizes are weighted against the *whole dataset* size
``#D``, exactly as in the paper's formulas.

- :func:`entropy_gain` applies when the statistic is a probability
  (boolean outcome): it is the size-weighted reduction in binary entropy
  of the outcome, as in classification trees.
- :func:`divergence_gain` applies to any outcome: it rewards children
  whose statistic departs from the parent's, weighted by child size.

The scalar functions define the criteria. Both discretizers search a
node with the private helpers at the end of this module: they score
every candidate threshold at once on prefix sums and return the split,
and the gain, that a loop over the scalar criterion returns.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.divergence import OutcomeStats, entropy
from repro.core.outcomes import Outcome, _is_boolean_array
from repro.tabular import Table

GainCriterion = Callable[[OutcomeStats, OutcomeStats, OutcomeStats, int], float]


def entropy_gain(
    parent: OutcomeStats,
    left: OutcomeStats,
    right: OutcomeStats,
    n_total: int,
) -> float:
    """Entropy-based gain.

    ``g = (#S/#D)·H(S) − [(#S1/#D)·H(S1) + (#S2/#D)·H(S2)]``

    Non-negative by concavity of the entropy. Requires a boolean
    outcome; the caller is responsible for checking that.
    """
    g = (
        parent.count * entropy(parent)
        - left.count * entropy(left)
        - right.count * entropy(right)
    ) / n_total
    # Clamp tiny negatives from floating point; the true gain is ≥ 0.
    return max(g, 0.0)


def divergence_gain(
    parent: OutcomeStats,
    left: OutcomeStats,
    right: OutcomeStats,
    n_total: int,
) -> float:
    """Divergence-based gain.

    ``g = (#S1/#D)·|f(S1)−f(S)| + (#S2/#D)·|f(S2)−f(S)|``

    Applicable to arbitrary (also non-probability) outcome functions.
    A child with no defined outcome contributes zero.
    """
    f_parent = parent.mean
    if math.isnan(f_parent):
        return 0.0
    g = 0.0
    for child in (left, right):
        f_child = child.mean
        if not math.isnan(f_child):
            g += child.count / n_total * abs(f_child - f_parent)
    return g


def mdl_accepts(
    parent: OutcomeStats, left: OutcomeStats, right: OutcomeStats
) -> bool:
    """Fayyad–Irani MDLP stopping test for a binary-outcome split.

    Accept the split of ``S`` into ``S1, S2`` iff

    ``Gain > (log2(N−1) + Δ(S; S1, S2)) / N``

    with ``Δ = log2(3^k − 2) − [k·H(S) − k1·H(S1) − k2·H(S2)]``, where
    ``H`` is the class entropy in bits, ``N`` the number of
    outcome-defined instances in ``S``, and ``k``/``k1``/``k2`` the
    number of outcome classes present in each set. (Reference [23] of
    the paper; used here as an optional principled stopping rule for
    discretization trees.)
    """
    n = parent.n
    if n < 2 or left.n == 0 or right.n == 0:
        return False
    log2e = 1.0 / math.log(2.0)
    h = entropy(parent) * log2e
    h1 = entropy(left) * log2e
    h2 = entropy(right) * log2e
    gain = h - (left.n / n) * h1 - (right.n / n) * h2

    def n_classes(stats: OutcomeStats) -> int:
        p = stats.mean
        return 1 if (p <= 0.0 or p >= 1.0) else 2

    k = n_classes(parent)
    k1 = n_classes(left)
    k2 = n_classes(right)
    delta = math.log2(3.0**k - 2.0) - (k * h - k1 * h1 - k2 * h2)
    return gain > (math.log2(n - 1) + delta) / n


_CRITERIA: dict[str, GainCriterion] = {
    "entropy": entropy_gain,
    "divergence": divergence_gain,
}


def get_criterion(name: str) -> GainCriterion:
    """Look up a gain criterion by name ('entropy' or 'divergence')."""
    try:
        return _CRITERIA[name]
    except KeyError:
        raise ValueError(
            f"unknown criterion {name!r}; expected one of {sorted(_CRITERIA)}"
        ) from None


# -- split search shared by both discretizers --------------------------------

def _outcome_values(
    table: Table, outcome: Outcome | np.ndarray, criterion: str
) -> np.ndarray:
    """Per-row outcome values (NaN = ⊥) to grow trees on.

    The entropy criterion requires a boolean outcome. An
    :class:`~repro.core.outcomes.Outcome` is judged by its ``boolean``
    flag; an array by the rule
    :func:`~repro.core.outcomes.coerce_outcome` infers that flag with
    (every defined value is 0 or 1).
    """
    if isinstance(outcome, Outcome):
        values = outcome.values(table)
    else:
        values = np.asarray(outcome, dtype=np.float64)
        if values.shape != (table.n_rows,):
            raise ValueError("outcome array length must match the table")
    if criterion == "entropy":
        if isinstance(outcome, Outcome):
            boolean = outcome.boolean
        else:
            boolean = _is_boolean_array(values)
        if not boolean:
            raise ValueError(
                "the entropy criterion requires a boolean outcome (every "
                "defined value 0 or 1); use criterion='divergence' for "
                "numeric outcomes"
            )
    return values


def _stable_order(x: np.ndarray) -> np.ndarray:
    """The stable argsort of ``x``, without timsort; ``x`` has no NaN.

    An unstable sort leaves every run of equal values contiguous (-0.0
    and 0.0 are equal). One int64 sort of ``run · m + index`` then
    orders each run by index, which is the stable permutation. Inside
    a run the order fixes the bits of the outcome prefix sums, so it
    must be exactly the stable one.
    """
    m = x.size
    order = np.argsort(x)
    if m < 2:
        return order
    xs = x[order]
    offset = np.concatenate([[0], np.cumsum(xs[1:] != xs[:-1])]) * m
    keys = offset + order
    keys.sort()
    return keys - offset


def _candidate_cuts(
    v: np.ndarray, lo: int, hi: int, max_candidates: int
) -> np.ndarray:
    """Admissible cuts of the sorted values ``v``, ascending.

    A cut ``c`` sends ``v[:c]`` left. It is admissible when
    ``lo <= c <= hi`` and ``v[c - 1] != v[c]``. When there are more
    than ``max_candidates``, that many are taken at evenly spaced
    positions.

    A cut with ``v[c - 1] == -inf`` is then dropped: it would split at
    −inf, and ``(−inf, −inf]`` is an empty interval. The −inf rows stay
    in the leftmost node, whose infinite low bound means no bound.
    Only the first cut can be one, and dropping it after the picks
    leaves every other candidate as it was.
    """
    if lo > hi:
        return np.empty(0, dtype=np.intp)
    segment = v[lo - 1 : hi + 1]
    cuts = np.flatnonzero(segment[1:] != segment[:-1]) + lo
    if cuts.size > max_candidates:
        picks = np.linspace(0, cuts.size - 1, max_candidates).astype(int)
        cuts = cuts[np.unique(picks)]
    if cuts.size and v[cuts[0] - 1] == -math.inf:
        cuts = cuts[1:]
    return cuts


def _best_cut(
    criterion: GainCriterion,
    parent: OutcomeStats,
    cuts: np.ndarray,
    cum_n: np.ndarray,
    cum_o: np.ndarray,
    i0: int,
    i1: int,
    n_total: int,
) -> tuple[int, float] | None:
    """The first cut of maximal gain and its gain; None if all are NaN.

    The node is rows ``[i0, i1)`` of the sorted order, with stats
    ``parent``; ``cum_n``/``cum_o`` are the prefix sums of the defined
    outcomes' count and total over that order. A cut ``c`` of ``cuts``
    (non-empty, ascending) splits the node into ``[i0, c)`` and
    ``[c, i1)``. The result equals, bit for bit, a loop that scores each
    cut with the scalar ``criterion`` and keeps a gain that beats every
    earlier one, starting from −inf.

    Divergence gains take only +, −, ×, ÷ and abs, evaluated here in
    :func:`divergence_gain`'s order, so they have the scalar bits.

    Entropy gains take logarithms, and numpy's vector ``log`` may differ
    from ``math.log`` in the last ulp. Let ``u = 2⁻⁵³`` and
    ``A = (#S·H(S) + #S1·H(S1) + #S2·H(S2)) / #D``. A child ``log`` off
    by ``k`` ulps moves that child's ``H`` by at most ``(2k+4)u·H`` (two
    products and a sum), its weighting by ``#Si`` adds ``2u``, and the
    two subtractions and the division round differently by at most
    ``u·A`` each (the parent's term uses the scalar ``log``). So
    ``|g_vector − g_scalar| ≤ (2k+12)·u·A``, ``1.6e-15·A`` for ``k = 1``;
    the bound ``e = 1e-12·A`` leaves room for thousands of ulps. With
    ``m`` the vector maximum, a cut ``j`` with ``g_j + e_j < g_m − e_m``
    has a scalar gain below ``m``'s, so only the other cuts are
    re-scored with the scalar criterion, in order, and the first scalar
    maximum and its scalar gain are returned. A cut with ``e = 0`` took
    no logarithm (all three entropies are 0): its vector gain is exact.
    """
    left = (cuts - i0, cum_n[cuts] - cum_n[i0], cum_o[cuts] - cum_o[i0])
    right = (i1 - cuts, cum_n[i1] - cum_n[cuts], cum_o[i1] - cum_o[cuts])
    if criterion is entropy_gain:
        gains, bound = _entropy_gains(parent, left, right, n_total)
    else:
        gains = _divergence_gains(parent, left, right, n_total)
    best = int(np.argmax(np.where(np.isnan(gains), -np.inf, gains)))
    if not gains[best] > -math.inf:
        return None
    if criterion is not entropy_gain:
        return int(cuts[best]), float(gains[best])
    top_gain, top = -math.inf, best
    for j in np.flatnonzero(gains + bound >= gains[best] - bound[best]):
        gain = float(gains[j])
        if bound[j] > 0:
            gain = criterion(
                parent, _stats(left, j), _stats(right, j), n_total
            )
        if gain > top_gain:
            top_gain, top = gain, j
    return int(cuts[top]), top_gain


def _stats(side, j: int) -> OutcomeStats:
    """Cut ``j``'s stats of one child; neither criterion reads Σo² (NaN)."""
    count, n, total = side
    return OutcomeStats(int(count[j]), int(n[j]), float(total[j]), math.nan)


def _divergence_gains(parent, left, right, n_total: int) -> np.ndarray:
    """:func:`divergence_gain` of every cut, in its operation order."""
    f_parent = parent.mean
    if math.isnan(f_parent):
        return np.zeros(left[0].size)
    gains = 0.0
    for count, n, total in (left, right):
        f = np.divide(total, n, out=np.full(total.shape, np.nan), where=n > 0)
        term = count / n_total * np.abs(f - f_parent)
        gains = gains + np.where(np.isnan(f), 0.0, term)
    return gains


def _entropies(n: np.ndarray, total: np.ndarray) -> np.ndarray:
    """:func:`~repro.core.divergence.entropy` per cut, with numpy's log."""
    p = np.divide(total, n, out=np.zeros(total.shape), where=n > 0)
    pure = (p <= 0.0) | (p >= 1.0)
    p = np.where(pure, 0.5, p)
    return np.where(pure, 0.0, -p * np.log(p) - (1.0 - p) * np.log(1.0 - p))


def _entropy_gains(
    parent, left, right, n_total: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`entropy_gain` of every cut, and its error bound ``1e-12·A``."""
    parent_term = parent.count * entropy(parent)
    left_term = left[0] * _entropies(left[1], left[2])
    right_term = right[0] * _entropies(right[1], right[2])
    gains = (parent_term - left_term - right_term) / n_total
    bound = 1e-12 * ((parent_term + left_term + right_term) / n_total)
    return np.where(gains < 0.0, 0.0, gains), bound
