"""ExploreSession: warm-start artifact caching for repeated exploration.

The paper's experiments (Fig. 2–4) re-run H-DivExplorer many times over
the *same* ``(table, outcome)`` pair while varying one knob. A cold
:meth:`HDivExplorer.explore` call rebuilds every artifact from scratch;
most of them do not depend on the parameter being varied:

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
what the changed parameters invalidate. The hard invariant: a warm
result is **bit-identical** to the cold ``HDivExplorer(config)
.explore(table, outcome)`` result — same subgroups, same statistics,
same order (both paths canonicalize through
:func:`repro.core.explorer.results_from_mined`).

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
.hits|misses`` counters land on the collector, and ``sweep`` emits one
span tree with per-point hit/miss deltas.
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
from repro.core.mining.transactions import EncodedUniverse, MinedColumns, mine
from repro.core.outcomes import Outcome, array_outcome, coerce_outcome
from repro.core.results import ResultSet
from repro.obs.bundle import bundle_scope
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
        Session-level collector receiving the cache hit/miss counters
        and pipeline spans. An enabled collector on an individual
        ``explore(config)`` call takes precedence for that call.

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
        self._continuous = continuous
        self._categorical = (
            list(categorical_attributes)
            if categorical_attributes is not None else None
        )

        # Outcome values are parameter-independent: evaluate once and
        # freeze them behind an equivalent Outcome so every downstream
        # consumer (discretizer, universe encoder) sees the same array.
        values = self.outcome.values(table)
        self._outcome = array_outcome(
            values, name=self.outcome.name, boolean=self.outcome.boolean
        )

        # The caches. Keys:
        #   trees      (attribute, tree_support, criterion)
        #   universes  (tree_support, criterion) -> (gamma, universe)
        #   engines    (tree_support, criterion)
        #   mined      (ukey, max_length, polarity)
        #              -> (mined_at_support, result)
        self._trees: dict[tuple, AttributeTree] = {}
        self._universes: dict[tuple, tuple[HierarchySet, EncodedUniverse]] = {}
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
        obs = self.obs
        key = (attribute, float(tree_support), criterion)
        cached = self._trees.get(key)
        if cached is not None:
            obs.count("session.trees.hits")
            return cached
        obs.count("session.trees.misses")
        discretizer = TreeDiscretizer(
            min_support=tree_support,
            criterion=criterion,
            max_candidates=self.max_candidates,
            max_depth=self.max_depth,
            obs=obs,
        )
        tree = discretizer.fit(self.table, attribute, self._outcome)
        self._trees[key] = tree
        return tree

    def hierarchies(
        self, tree_support: float = 0.1, criterion: str = "divergence"
    ) -> HierarchySet:
        """The hierarchy set Γ (predefined + per-attribute trees)."""
        gamma = HierarchySet()
        for h in self._provided:
            gamma.add(h)
        for attribute in self._continuous:
            gamma.add(self.tree(attribute, tree_support, criterion).to_hierarchy())
        return gamma

    def universe(
        self, tree_support: float = 0.1, criterion: str = "divergence"
    ) -> EncodedUniverse:
        """The encoded generalized universe for one discretization (cached)."""
        _gamma, universe = self._universe_entry(
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
        obs.arm_deadline(cfg.deadline_s)
        # The fingerprint (JSON plus SHA-256) only labels the span.
        label = {"fingerprint": cfg.fingerprint()} if obs.enabled else {}
        with bundle_scope(cfg, obs, dataset=self.table, name="session"):
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
        # One deadline covers the whole sweep; each completed point
        # advances the "sweep" progress phase and is a checkpoint.
        obs.arm_deadline(base.deadline_s)
        with bundle_scope(base, obs, dataset=self.table, name="sweep"):
            obs.progress("sweep", advance=0, expect=len(values))
            points: list[SweepPoint] = []
            t0 = time.perf_counter()
            with obs.span("sweep", param=param, n_points=len(values)) as root:
                for value, cfg in zip(values, configs):
                    before = dict(obs.counters) if obs.enabled else {}
                    p0 = time.perf_counter()
                    with obs.span("point", value=repr(value)) as span:
                        result = self._explore(cfg, obs)
                    elapsed = time.perf_counter() - p0
                    hits, misses = _cache_delta(obs, before)
                    span.set(cache_hits=hits, cache_misses=misses)
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

    def _universe_entry(
        self, ukey: tuple, obs: AnyCollector
    ) -> tuple[HierarchySet, EncodedUniverse]:
        cached = self._universes.get(ukey)
        if cached is not None:
            obs.count("session.universe.hits")
            return cached
        obs.count("session.universe.misses")
        tree_support, criterion = ukey
        with obs.span("discretize", attributes=len(self._continuous)):
            gamma = self.hierarchies(tree_support, criterion)
        universe = generalized_universe(
            self.table, self._outcome, gamma, self._categorical,
            include_missing_items=self.include_missing_items,
            obs=obs,
        )
        entry = (gamma, universe)
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
        _gamma, universe = self._universe_entry(ukey, obs)
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
        mined = self._mine(cfg, ukey, universe, obs)
        result = results_from_mined(universe, mined, 0.0)
        self._mined[mkey] = (cfg.min_support, result)
        return result

    def _mine(
        self,
        cfg: ExploreConfig,
        ukey: tuple,
        universe: EncodedUniverse,
        obs: AnyCollector,
    ) -> MinedColumns:
        # Every path mines with the cached engine, polarity pruning
        # included: it reads the same packed covers.
        return mine(
            universe, cfg.min_support, max_length=cfg.max_length,
            engine=self._engine(ukey, universe, obs), obs=obs,
            polarity=cfg.polarity,
        )


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
