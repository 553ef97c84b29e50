"""ExploreSession: warm-start artifact caching for repeated exploration.

The paper's experiments (Fig. 2–4) re-run H-DivExplorer many times over
the *same* ``(table, outcome)`` pair while varying one knob. A cold
query builds every artifact from scratch; most of them do not depend
on the parameter being varied:

=====================  ==============================================
artifact               invalidated by
=====================  ==============================================
outcome values         the data only (fixed for a session's lifetime)
discretization trees   ``tree_support``, ``criterion`` (per attribute)
hierarchy set Γ        ``tree_support``, ``criterion``
encoded universe       ``tree_support``, ``criterion``
bitset covers/engine   ``tree_support``, ``criterion``
result columns         + ``max_length``, ``polarity``; a
                       ``min_support`` *decrease* re-mines, an
                       increase selects rows of the cached columns
ranking / top-k        nothing — ranked on the result's columns
=====================  ==============================================

:class:`ExploreSession` binds the pair once and serves repeated
``explore(config)`` / ``sweep(param, values)`` calls, recomputing only
what the changed parameters invalidate. This is the one pipeline:
``HDivExplorer(config).explore(table, outcome)`` is the first query of
a one-shot session, so a session's first query equals the cold result
by construction. The hard invariant: a warm result is **bit-identical**
to that cold result — same subgroups, same statistics, same order.

*Support derivation* deserves a note. The session caches the
:class:`ResultSet` of each mined configuration. The engine keeps an
itemset frequent iff ``count >= min_support_count(min_support,
n_rows)``, so a result mined at a lower support filters **exactly**
to any higher support by taking the rows that pass that test (the
rows :meth:`ResultSet.at_support` keeps). Statistics come from each
itemset's full cover, independent of the threshold, so the taken rows
of every column (support, mean, Δ and t included) are bit-identical
to a fresh mine, and none is recomputed. The same support again
shares the cached arrays. Either way the returned result carries the
current call's ``elapsed_seconds`` and collector.

Cache traffic is observable: ``session.trees|universe|engine|mined
.hits|misses`` counters land on the call's collector, and ``sweep``
emits one span tree with per-point hit/miss deltas. A cold explorer
run records one miss for each cache it fills.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.config import ExploreConfig, resolve_config
from repro.core.discretize.tree import AttributeTree, TreeDiscretizer
from repro.core.divergence import min_support_count
from repro.core.explorer import results_from_mined
from repro.core.hierarchy import HierarchySet, ItemHierarchy
from repro.core.mining.bitset import BitsetEngine
from repro.core.mining.generalized import generalized_universe
from repro.core.mining.transactions import EncodedUniverse, mine
from repro.core.outcomes import Outcome, coerce_outcome
from repro.core.results import ResultSet
from repro.obs.collector import AnyCollector, resolve_obs
from repro.tabular import Table

@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep: its config, result and cache traffic.

    ``cache_hits``/``cache_misses`` are read off the collector's
    ``session.*`` counters, so both are 0 unless the sweep ran with an
    enabled collector (on the config or on the session).
    """

    value: object
    config: ExploreConfig
    result: ResultSet
    elapsed_seconds: float
    cache_hits: int
    cache_misses: int


@dataclass(frozen=True)
class SweepResult:
    """An ordered parameter sweep over one session."""

    param: str
    points: tuple[SweepPoint, ...]
    elapsed_seconds: float

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def results(self) -> list[ResultSet]:
        """The per-point ResultSets, in sweep order."""
        return [p.result for p in self.points]


class ExploreSession:
    """A warm-start exploration session over one ``(table, outcome)`` pair.

    Parameters
    ----------
    table:
        The dataset. The session assumes it is not mutated afterwards —
        bind a fresh session to changed data.
    outcome:
        Any form :func:`~repro.core.outcomes.coerce_outcome` accepts.
        Evaluated once; the values array is a session-lifetime artifact.
    hierarchies:
        Predefined hierarchies (categorical taxonomies, pre-built
        trees). Attributes covered here are never re-discretized.
    continuous_attributes:
        Continuous attributes to discretize; defaults to every
        continuous column without a predefined hierarchy.
    categorical_attributes:
        Categorical attributes included as flat value items; defaults
        to all of them.
    max_candidates / max_depth / include_missing_items:
        As on :class:`~repro.core.hexplorer.HDivExplorer`.
    obs:
        Session-level collector: it sees the work of :meth:`tree`,
        :meth:`hierarchies` and :meth:`universe`, and of every
        ``explore``/``sweep`` call without an enabled collector of its
        own. A call's enabled collector takes precedence for the whole
        call — tree fitting, encoding, mining and cache counters.

    Usable as a context manager (:meth:`close` releases nothing).
    """

    def __init__(
        self,
        table: Table,
        outcome: "Outcome | str | np.ndarray | tuple | list",
        *,
        hierarchies: Iterable[ItemHierarchy] | HierarchySet = (),
        continuous_attributes: Iterable[str] | None = None,
        categorical_attributes: Iterable[str] | None = None,
        max_candidates: int = 64,
        max_depth: int | None = None,
        include_missing_items: bool = False,
        obs: AnyCollector | None = None,
    ):
        self.table = table
        self.outcome = coerce_outcome(outcome)
        self.obs = resolve_obs(obs)
        self.max_candidates = max_candidates
        self.max_depth = max_depth
        self.include_missing_items = include_missing_items

        provided = (
            hierarchies if isinstance(hierarchies, HierarchySet)
            else HierarchySet(hierarchies)
        )
        self._provided = provided
        if continuous_attributes is None:
            continuous = [
                a for a in table.continuous_names if a not in provided
            ]
        else:
            continuous = [
                a for a in continuous_attributes if a not in provided
            ]
        # An attribute named twice gets one tree.
        self._continuous = list(dict.fromkeys(continuous))
        self._categorical = (
            list(categorical_attributes)
            if categorical_attributes is not None else None
        )

        # Outcome values are parameter-independent: evaluate and check
        # them once and freeze them behind an equivalent Outcome so
        # every downstream consumer (discretizer, universe encoder)
        # sees the same array.
        self._outcome = _FrozenOutcome(self.outcome, table)

        # The caches. Keys:
        #   trees      (attribute, tree_support, criterion)
        #   universes  (tree_support, criterion)
        #              -> (gamma, universe, discretize seconds)
        #   engines    (tree_support, criterion)
        #   mined      (ukey, max_length, polarity)
        #              -> (mined_at_support, result)
        self._trees: dict[tuple, AttributeTree] = {}
        self._universes: dict[
            tuple, tuple[HierarchySet, EncodedUniverse, float]
        ] = {}
        self._engines: dict[tuple, BitsetEngine] = {}
        self._mined: dict[tuple, tuple[float, ResultSet]] = {}

    # -- artifact accessors ----------------------------------------------

    def tree(
        self,
        attribute: str,
        tree_support: float = 0.1,
        criterion: str = "divergence",
    ) -> AttributeTree:
        """The discretization tree of one attribute (cached).

        Keyed by ``(attribute, tree_support, criterion)`` — exactly the
        parameters that shape the tree.
        """
        (tree,) = self._trees_of(
            [attribute], (float(tree_support), criterion), self.obs
        )
        return tree

    def hierarchies(
        self, tree_support: float = 0.1, criterion: str = "divergence"
    ) -> HierarchySet:
        """The hierarchy set Γ (predefined + per-attribute trees)."""
        return self._hierarchies((float(tree_support), criterion), self.obs)

    def universe(
        self, tree_support: float = 0.1, criterion: str = "divergence"
    ) -> EncodedUniverse:
        """The encoded generalized universe for one discretization (cached)."""
        _gamma, universe, _seconds = self._universe_entry(
            (float(tree_support), criterion), self.obs
        )
        return universe

    # -- exploration -----------------------------------------------------

    def explore(
        self,
        config: ExploreConfig | None = None,
        **kwargs: object,
    ) -> ResultSet:
        """One exploration, recomputing only what ``config`` invalidates.

        Accepts the same configuration forms as the explorer
        constructors (an :class:`ExploreConfig` and/or its field names
        as keyword arguments). The result is bit-identical to a cold
        ``HDivExplorer(config).explore(table, outcome)``.
        """
        cfg = resolve_config(config, kwargs, owner="ExploreSession.explore")
        obs = cfg.obs if cfg.obs.enabled else self.obs
        # The fingerprint (JSON plus SHA-256) only labels the span.
        label = {"fingerprint": cfg.fingerprint()} if obs.enabled else {}
        with obs.span("explore", **label):
            return self._explore(cfg, obs)

    def sweep(
        self,
        param: str,
        values: Sequence[object],
        config: ExploreConfig | None = None,
        **kwargs: object,
    ) -> SweepResult:
        """Explore once per value of one knob, reusing warm artifacts.

        ``param`` is any serialized :class:`ExploreConfig` field
        (``min_support``, ``tree_support``, ``polarity``, ...); the
        remaining knobs come from ``config``/keyword arguments and stay
        fixed. Points run in the given order; the whole sweep lands in a
        single ``sweep`` span with per-point children carrying cache
        hit/miss deltas.

        Tip: sweep ``min_support`` ascending from its lowest value —
        the first point mines once and every later point derives from
        the cached result.
        """
        base = resolve_config(config, kwargs, owner="ExploreSession.sweep")
        if param not in base.to_dict():
            raise ValueError(
                f"unknown sweep parameter {param!r} "
                f"(expected one of {sorted(base.to_dict())})"
            )
        if not values:
            raise ValueError("sweep needs at least one value")
        # replace() re-validates, so an unknown param or bad value
        # raises before any mining starts.
        configs = [base.replace(**{param: v}) for v in values]
        obs = base.obs if base.obs.enabled else self.obs
        # Each completed point advances the "sweep" progress phase and
        # is a deadline checkpoint.
        obs.progress("sweep", advance=0, expect=len(values))
        points: list[SweepPoint] = []
        t0 = time.perf_counter()
        with obs.span("sweep", param=param, n_points=len(values)) as root:
            for value, cfg in zip(values, configs):
                before = dict(obs.counters) if obs.enabled else {}
                p0 = time.perf_counter()
                with obs.span("point", value=repr(value)) as span:
                    result = self._explore(cfg, obs)
                    hits, misses = _cache_delta(obs, before)
                    span.set(cache_hits=hits, cache_misses=misses)
                elapsed = time.perf_counter() - p0
                obs.progress("sweep", value=repr(value))
                obs.checkpoint("sweep")
                points.append(
                    SweepPoint(
                        value=value,
                        config=cfg,
                        result=result,
                        elapsed_seconds=elapsed,
                        cache_hits=hits,
                        cache_misses=misses,
                    )
                )
            total = time.perf_counter() - t0
            root.set(elapsed_total=total)
        return SweepResult(
            param=param, points=tuple(points), elapsed_seconds=total
        )

    def close(self) -> None:
        """A no-op: the session holds no resources beyond its caches."""

    def __enter__(self) -> "ExploreSession":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"ExploreSession(rows={self.table.n_rows}, "
            f"outcome={self.outcome.name!r}, trees={len(self._trees)}, "
            f"universes={len(self._universes)}, mined={len(self._mined)})"
        )

    # -- internals -------------------------------------------------------

    def _trees_of(
        self, attributes: list[str], ukey: tuple, obs: AnyCollector
    ) -> list[AttributeTree]:
        """The trees of ``attributes`` at ``ukey``.

        One ``fit_all`` on ``obs`` fits the missing ones: it evaluates
        the outcome once and announces the ``discretize`` progress total.
        """
        missing = [a for a in attributes if (a, *ukey) not in self._trees]
        hits = len(attributes) - len(missing)
        if hits:
            obs.count("session.trees.hits", hits)
        if missing:
            obs.count("session.trees.misses", len(missing))
            tree_support, criterion = ukey
            discretizer = TreeDiscretizer(
                min_support=tree_support,
                criterion=criterion,
                max_candidates=self.max_candidates,
                max_depth=self.max_depth,
                obs=obs,
            )
            fitted = discretizer.fit_all(self.table, self._outcome, missing)
            for attribute, tree in fitted.items():
                self._trees[(attribute, *ukey)] = tree
        return [self._trees[(a, *ukey)] for a in attributes]

    def _hierarchies(self, ukey: tuple, obs: AnyCollector) -> HierarchySet:
        trees = self._trees_of(self._continuous, ukey, obs)
        return HierarchySet(
            [*self._provided, *(tree.to_hierarchy() for tree in trees)]
        )

    def _universe_entry(
        self, ukey: tuple, obs: AnyCollector
    ) -> tuple[HierarchySet, EncodedUniverse, float]:
        """Γ, the encoded universe and the discretize step's wall time."""
        cached = self._universes.get(ukey)
        if cached is not None:
            obs.count("session.universe.hits")
            return cached
        obs.count("session.universe.misses")
        # perf_counter, not the span: the null collector's spans record
        # nothing, and HDivExplorer reports this time either way.
        start = time.perf_counter()
        with obs.span("discretize", attributes=len(self._continuous)):
            gamma = self._hierarchies(ukey, obs)
        seconds = time.perf_counter() - start
        universe = generalized_universe(
            self.table, self._outcome, gamma, self._categorical,
            include_missing_items=self.include_missing_items,
            obs=obs,
        )
        obs.checkpoint("encode")
        entry = (gamma, universe, seconds)
        self._universes[ukey] = entry
        return entry

    def _engine(
        self, ukey: tuple, universe: EncodedUniverse, obs: AnyCollector
    ) -> BitsetEngine:
        engine = self._engines.get(ukey)
        if engine is not None:
            obs.count("session.engine.hits")
            return engine
        obs.count("session.engine.misses")
        # Collector-free: mine() lends each call's collector to it.
        engine = BitsetEngine(universe)
        self._engines[ukey] = engine
        return engine

    def _explore(self, cfg: ExploreConfig, obs: AnyCollector) -> ResultSet:
        ukey = (cfg.tree_support, cfg.criterion)
        _gamma, universe, _seconds = self._universe_entry(ukey, obs)
        start = time.perf_counter()
        with obs.span("mine", polarity=cfg.polarity):
            result = self._result_for(cfg, ukey, universe, obs)
        elapsed = time.perf_counter() - start
        return result._replace(elapsed_seconds=elapsed, obs=obs)

    def _result_for(
        self,
        cfg: ExploreConfig,
        ukey: tuple,
        universe: EncodedUniverse,
        obs: AnyCollector,
    ) -> ResultSet:
        mkey = (ukey, cfg.max_length, cfg.polarity)
        cached = self._mined.get(mkey)
        if cached is not None and cached[0] <= cfg.min_support:
            mined_at, result = cached
            obs.count("session.mined.hits")
            if mined_at == cfg.min_support:
                return result
            min_count = min_support_count(cfg.min_support, universe.n_rows)
            return result._select(np.flatnonzero(result.count >= min_count))
        obs.count("session.mined.misses")
        # Every mine, polarity pruning included, reads the cached
        # engine's packed covers.
        mined = mine(
            universe, cfg.min_support, max_length=cfg.max_length,
            engine=self._engine(ukey, universe, obs), obs=obs,
            polarity=cfg.polarity,
        )
        result = results_from_mined(universe, mined, 0.0)
        self._mined[mkey] = (cfg.min_support, result)
        return result


class _FrozenOutcome(Outcome):
    """An outcome evaluated and checked on a table once.

    :meth:`values` returns that array after checking its length only:
    a boolean outcome's 0/1 check already ran when it was evaluated.
    """

    def __init__(self, outcome: Outcome, table: Table):
        super().__init__(outcome.name, None, outcome.boolean)
        self._values = outcome.values(table)

    def values(self, table: Table) -> np.ndarray:
        if self._values.shape != (table.n_rows,):
            raise ValueError(
                f"precomputed outcome has length {self._values.shape[0]}, "
                f"table has {table.n_rows} rows"
            )
        return self._values


def _cache_delta(obs: AnyCollector, before: dict) -> tuple[int, int]:
    """Session-cache hit/miss deltas since a counter snapshot."""
    if not obs.enabled:
        return 0, 0
    hits = 0
    misses = 0
    for name, value in obs.counters.items():
        if not name.startswith("session."):
            continue
        delta = value - before.get(name, 0)
        if name.endswith(".hits"):
            hits += delta
        elif name.endswith(".misses"):
            misses += delta
    return hits, misses
