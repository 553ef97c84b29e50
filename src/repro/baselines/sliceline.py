"""SliceLine (Sagadeeva & Boehm, SIGMOD'21) — scoring-based slice finding.

Enumerates slices level-wise under a minimum-support constraint and
scores each slice by

``σ(S) = α · (ē_S / ē − 1) − (1 − α) · (n / |S| − 1)``

where ``ē_S`` is the slice's average error, ``ē`` the dataset average,
``n`` the dataset size and ``|S|`` the slice size: a weighted trade-off
between how wrong the model is on the slice and how large the slice is.
Returns the top-k slices by score.

This implementation uses boolean-mask linear algebra for slice
evaluation (the spirit of the original's matrix formulation) and the
support threshold plus score-monotonicity-free pruning by support only,
which is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.config import ExploreConfig, resolve_config
from repro.core.divergence import min_support_count
from repro.core.items import Item, Itemset
from repro.core.mining.transactions import EncodedUniverse
from repro.core.outcomes import Outcome, coerce_outcome
from repro.tabular import Table


@dataclass(frozen=True)
class SliceLineResult:
    """A scored slice."""

    itemset: Itemset
    score: float
    avg_error: float
    size: int
    support: float


class SliceLine:
    """SliceLine slice finder.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.ExploreConfig`; SliceLine uses
        its ``min_support`` and ``max_length``. Its field names as
        keyword arguments override it.
    alpha:
        Weight of the average-error term versus the size term,
        in (0, 1].
    k:
        Number of top slices to return.
    min_support:
        Minimum slice support (fraction of rows; default 0.01).
    max_length:
        Maximum slice predicate length (the original's default is 3).
    """

    def __init__(
        self,
        config: ExploreConfig | None = None,
        *,
        alpha: float = 0.95,
        k: int = 10,
        **kwargs,
    ):
        cfg = resolve_config(
            config, kwargs,
            defaults={"min_support": 0.01, "max_length": 3},
            owner="SliceLine",
        )
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.config = cfg
        self.alpha = alpha
        self.k = k
        self.min_support = cfg.min_support
        self.max_level = cfg.max_length if cfg.max_length is not None else math.inf
        self.obs = cfg.obs

    def find(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        items: Iterable[Item],
    ) -> list[SliceLineResult]:
        """Enumerate and score slices; return the top-k by score.

        ``outcome`` provides the per-instance error (⊥ rows do not
        contribute to error averages). With an enabled collector on
        the config the search runs inside a ``sliceline`` span.
        """
        with self.obs.span("sliceline", k=self.k) as span:
            results = self._find(table, outcome, items)
            if self.obs.enabled:
                span.set(found=len(results))
        return results

    def _find(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        items: Iterable[Item],
    ) -> list[SliceLineResult]:
        universe = EncodedUniverse.from_table(
            table, list(items), coerce_outcome(outcome)
        )
        n = universe.n_rows
        min_count = min_support_count(self.min_support, n)
        errors = universe.outcomes
        defined = ~np.isnan(errors)
        e_filled = np.where(defined, errors, 0.0)
        global_avg = float(e_filled.sum() / defined.sum()) if defined.any() else 0.0

        def score(mask: np.ndarray, size: int) -> tuple[float, float]:
            n_def = int(np.count_nonzero(mask & defined))
            avg = float(e_filled @ mask) / n_def if n_def else 0.0
            if global_avg == 0.0 or size == 0:
                return -math.inf, avg
            s = self.alpha * (avg / global_avg - 1.0) - (1.0 - self.alpha) * (
                n / size - 1.0
            )
            return s, avg

        results: list[SliceLineResult] = []
        frontier: list[tuple[tuple[int, ...], np.ndarray]] = []
        for i in range(universe.n_items()):
            mask = universe.masks[i]
            size = int(mask.sum())
            if size >= min_count:
                frontier.append(((i,), mask))
                s, avg = score(mask, size)
                results.append(
                    SliceLineResult(
                        Itemset((universe.items[i],)), s, avg, size, size / n
                    )
                )

        attr = universe.attribute_of
        level = 1
        while frontier and level < self.max_level:
            frontier.sort(key=lambda e: e[0])
            next_frontier: list[tuple[tuple[int, ...], np.ndarray]] = []
            for a in range(len(frontier)):
                ids_a, mask_a = frontier[a]
                prefix = ids_a[:-1]
                for b in range(a + 1, len(frontier)):
                    ids_b, mask_b = frontier[b]
                    if ids_b[:-1] != prefix:
                        break
                    i, j = ids_a[-1], ids_b[-1]
                    if attr[i] == attr[j]:
                        continue
                    mask = mask_a & mask_b
                    size = int(mask.sum())
                    if size < min_count:
                        continue
                    candidate = ids_a + (j,)
                    next_frontier.append((candidate, mask))
                    s, avg = score(mask, size)
                    results.append(
                        SliceLineResult(
                            Itemset(universe.items[x] for x in candidate),
                            s, avg, size, size / n,
                        )
                    )
            frontier = next_frontier
            level += 1

        results.sort(key=lambda r: -r.score)
        return results[: self.k]
