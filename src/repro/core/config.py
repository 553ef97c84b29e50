"""Unified exploration configuration.

One frozen dataclass, :class:`ExploreConfig`, captures every knob the
explorers and baselines share — support thresholds, tree criterion,
polarity pruning and itemset length cap — so a single object can
drive :class:`~repro.core.hexplorer.HDivExplorer`,
:class:`~repro.core.explorer.DivExplorer` and the baseline finders
interchangeably::

    cfg = ExploreConfig(min_support=0.05, tree_support=0.1)
    HDivExplorer(cfg).explore(table, outcome)
    DivExplorer(cfg).explore(table, outcome, items)

Every entry point takes an :class:`ExploreConfig` (or ``None``) plus
field names as keyword arguments (``HDivExplorer(min_support=0.1)``),
which override it. Nothing else is accepted: an unknown keyword, a
retired spelling (``support=``, ``st=``, ``max_level=``) or a bare
number in place of the config raises :class:`TypeError`.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.mining.transactions import resolve_backend, resolve_n_jobs
from repro.obs.collector import NULL_OBS, AnyCollector

#: Tree-split criteria accepted by the discretizers.
CRITERIA = ("divergence", "entropy")


@dataclass(frozen=True)
class ExploreConfig:
    """Shared configuration for subgroup exploration.

    Parameters
    ----------
    min_support:
        Exploration support threshold ``s`` (fraction of rows).
    tree_support:
        Discretization-tree support threshold ``st`` (hierarchical
        exploration only).
    criterion:
        Tree split gain: ``"divergence"`` (any outcome) or
        ``"entropy"`` (boolean outcomes only).
    backend:
        Deprecated. ``"bitset"`` (the default) is the only mining
        engine; the retired backend names are accepted with a
        :class:`DeprecationWarning` and normalised to ``"bitset"``
        (:func:`~repro.core.mining.transactions.resolve_backend`).
    polarity:
        Enable polarity pruning (Section V-C of the paper).
    max_length:
        Optional cap on itemset cardinality (``None`` = unbounded).
    n_jobs:
        Deprecated. Mining is serial; any value other than 1 is
        accepted with a :class:`DeprecationWarning` and normalised to
        1 (:func:`~repro.core.mining.transactions.resolve_n_jobs`).
    obs:
        Observability collector (:class:`repro.obs.ObsCollector`)
        threaded through the whole pipeline — spans, counters and
        gauges land on it. Defaults to the disabled no-op singleton
        :data:`repro.obs.NULL_OBS`; never affects results and is
        excluded from equality, :meth:`to_dict` and
        :meth:`fingerprint`. Run options are not configuration:
        profiling is switched on by ``ObsCollector(profile_memory=...,
        profile_cpu=..., sample_hz=...)``, a deadline is armed on the
        collector, and a run bundle is a :class:`repro.obs.RunBundle`
        around the call.
    """

    min_support: float = 0.05
    tree_support: float = 0.1
    criterion: str = "divergence"
    backend: str = "bitset"
    polarity: bool = False
    max_length: int | None = None
    n_jobs: int = 1
    obs: AnyCollector = field(default=NULL_OBS, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Store each result-affecting field in one type, so configs that
        # compare equal (min_support=1 and 1.0) also fingerprint equal.
        for name in ("min_support", "tree_support"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(
                    f"{name} must be a number, not {type(value).__name__}"
                )
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
            object.__setattr__(self, name, float(value))
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown split criterion {self.criterion!r}")
        if self.polarity not in (True, False):
            raise TypeError(
                f"polarity must be True or False, not {self.polarity!r}"
            )
        object.__setattr__(self, "polarity", bool(self.polarity))
        object.__setattr__(self, "backend", resolve_backend(self.backend))
        object.__setattr__(self, "n_jobs", resolve_n_jobs(self.n_jobs))
        if self.max_length is not None:
            length = self.max_length
            if (
                isinstance(length, bool)
                or not isinstance(length, numbers.Real)
                or not float(length).is_integer()
            ):
                raise TypeError(
                    f"max_length must be an integer or None, not {length!r}"
                )
            if length < 1:
                raise ValueError("max_length must be positive")
            object.__setattr__(self, "max_length", int(length))
        if self.obs is None:
            object.__setattr__(self, "obs", NULL_OBS)

    def replace(self, **changes: object) -> "ExploreConfig":
        """A copy with the given fields changed (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, object]:
        """The result-affecting fields as a plain dict.

        The ``obs`` collector is excluded: it never changes the
        results of a completed run, so two configs that differ only in
        their collector serialize (and fingerprint) identically.
        ``from_dict`` is the exact inverse.
        """
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "obs"
        }

    @classmethod
    def from_dict(
        cls,
        data: "Mapping[str, object]",
        *,
        obs: AnyCollector | None = None,
    ) -> "ExploreConfig":
        """The exact inverse of :meth:`to_dict`.

        Accepts any subset of the serialized fields (missing keys take
        their defaults) and raises :class:`ValueError` on unknown keys —
        a misspelled knob must not silently fall back to a default, or
        the round-tripped fingerprint would lie. The ``obs`` collector
        is not part of the serialized form and is supplied separately.
        """
        unknown = sorted(set(data) - _SERIALIZED_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown ExploreConfig keys: {unknown} "
                f"(expected a subset of {sorted(_SERIALIZED_FIELDS)})"
            )
        return cls(obs=obs, **data)  # type: ignore[arg-type]

    def fingerprint(self, keys: "Iterable[str] | None" = None) -> str:
        """Stable short hash of the result-affecting configuration.

        Insensitive to dict insertion order by construction: the hash
        is taken over sorted-key canonical JSON. ``keys`` restricts the
        hash to a subset of the serialized fields (a *sub-key*
        fingerprint) — the session cache uses this to key artifacts by
        exactly the parameters that can invalidate them (e.g. a
        discretization fingerprint over ``("tree_support",
        "criterion")`` that min_support changes cannot perturb).
        """
        from repro.obs.bench import config_fingerprint

        data = self.to_dict()
        if keys is not None:
            wanted = list(keys)
            unknown = sorted(set(wanted) - _SERIALIZED_FIELDS)
            if unknown:
                raise ValueError(
                    f"unknown fingerprint keys: {unknown} "
                    f"(expected a subset of {sorted(_SERIALIZED_FIELDS)})"
                )
            data = {name: data[name] for name in wanted}
        return config_fingerprint(data)


_FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(ExploreConfig))

#: The fields that appear in ``to_dict()`` / ``from_dict()`` — every
#: result-affecting knob, excluding the ``obs`` collector.
_SERIALIZED_FIELDS = frozenset(_FIELD_NAMES - {"obs"})


def resolve_config(
    config: ExploreConfig | None,
    overrides: Mapping[str, object],
    defaults: Mapping[str, object] | None = None,
    owner: str = "this constructor",
) -> ExploreConfig:
    """Build the effective :class:`ExploreConfig` for a constructor.

    ``overrides`` is the caller's ``**kwargs``, read and not changed;
    every key must be an :class:`ExploreConfig` field name, or a
    :class:`TypeError` naming ``owner`` is raised. Precedence:
    per-class ``defaults`` < ``config`` < ``overrides``.
    """
    unknown = sorted(set(overrides) - _FIELD_NAMES)
    if unknown:
        raise TypeError(f"{owner} got unexpected keyword arguments {unknown}")
    if config is None:
        base = ExploreConfig(**(defaults or {}))
    elif isinstance(config, ExploreConfig):
        base = config
    else:
        raise TypeError(
            f"{owner}: config must be an ExploreConfig or None, not "
            f"{type(config).__name__}; pass thresholds by name, e.g. "
            f"min_support=0.05"
        )
    return base.replace(**overrides) if overrides else base
