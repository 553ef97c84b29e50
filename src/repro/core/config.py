"""Unified exploration configuration.

One frozen dataclass, :class:`ExploreConfig`, captures every knob the
explorers and baselines share — support thresholds, tree criterion,
polarity pruning, itemset length cap and parallelism —
so a single object can drive :class:`~repro.core.hexplorer.HDivExplorer`,
:class:`~repro.core.explorer.DivExplorer` and the baseline finders
interchangeably::

    cfg = ExploreConfig(min_support=0.05, tree_support=0.1, n_jobs=4)
    HDivExplorer(cfg).explore(table, outcome)
    DivExplorer(cfg).explore(table, outcome, items)

Constructors still accept the historical keyword arguments; canonical
field names (``min_support=...``) stay silent, while renamed legacy
spellings (``support=``, ``st=``, ``max_level=``) keep working but emit
a :class:`DeprecationWarning`.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.mining.transactions import resolve_backend
from repro.obs.collector import NULL_OBS, AnyCollector

#: Tree-split criteria accepted by the discretizers.
CRITERIA = ("divergence", "entropy")

#: Renamed legacy keyword spellings still accepted by the explorer and
#: baseline constructors (with a DeprecationWarning), mapped to the
#: canonical :class:`ExploreConfig` field they set.
LEGACY_ALIASES = {
    "support": "min_support",
    "st": "tree_support",
    "max_level": "max_length",
}


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
        Mining parallelism: 1 (default) is fully serial, anything else
        shards first-level prefixes across worker processes
        (non-positive = all cores). Results are identical for any
        value.
    obs:
        Observability collector (:class:`repro.obs.ObsCollector`)
        threaded through the whole pipeline — spans, counters and
        gauges land on it. Defaults to the disabled no-op singleton
        :data:`repro.obs.NULL_OBS`; never affects results and is
        excluded from equality, :meth:`to_dict` and
        :meth:`fingerprint`.
    profile_memory:
        Turn on per-span peak-allocation tracking (tracemalloc) on the
        attached collector — span attributes gain ``mem_peak_bytes``
        and the collector's ``mem_peaks`` registry fills in (see
        ``repro.obs.profile``). A no-op with the default
        :data:`~repro.obs.NULL_OBS` collector, so disabled-mode runs
        stay zero-cost. Like ``obs`` it never affects results and is
        excluded from equality, :meth:`to_dict` and
        :meth:`fingerprint`.
    deadline_s:
        Optional cooperative deadline in seconds. The explorers arm a
        :class:`repro.obs.RunController` at run start and check it at
        phase and shard boundaries; a run past the deadline raises
        :class:`repro.obs.RunCancelled` carrying the partial event
        log. ``None`` (the default) disables the checks entirely.
        Completed runs are bit-identical with or without a deadline,
        so — like the other observability fields — it is excluded
        from equality, :meth:`to_dict` and :meth:`fingerprint`.
    bundle_dir:
        Optional run-bundle capture directory. When set, the explorers
        wrap the run in :func:`repro.obs.bundle_scope`, writing a
        self-contained forensics bundle (manifest, JSONL run log,
        trace, metrics, perfdb record — plus ``crash.json`` for failed
        or cancelled runs) into this directory. Purely observational:
        results stay bit-identical, so — like the rest of the
        observability quartet — it is excluded from equality,
        :meth:`to_dict` and :meth:`fingerprint`.
    profile_cpu:
        Attach the sampling CPU profiler (``repro.obs.cpuprof``) to
        the collector: a background thread polls stacks at
        ``sample_hz`` while spans are open, spans gain
        ``cpu_samples``/``cpu_self_seconds``/``cpu_top_functions``
        attributes, and bundles capture a ``cpuprof.json`` stack
        table. Forces a private enabled collector when ``obs`` is
        :data:`~repro.obs.NULL_OBS` (like ``deadline_s``). Sampling
        only observes, so — like the rest of the observability fields
        — it is excluded from equality, :meth:`to_dict` and
        :meth:`fingerprint`.
    sample_hz:
        Sampling rate for ``profile_cpu`` in stacks per second
        (default 97 — prime, so the sampler cannot phase-lock with
        periodic work). Ignored unless ``profile_cpu`` is set;
        excluded from serialization alongside it.
    """

    min_support: float = 0.05
    tree_support: float = 0.1
    criterion: str = "divergence"
    backend: str = "bitset"
    polarity: bool = False
    max_length: int | None = None
    n_jobs: int = 1
    obs: AnyCollector = field(default=NULL_OBS, compare=False, repr=False)
    profile_memory: bool = field(default=False, compare=False, repr=False)
    deadline_s: float | None = field(default=None, compare=False, repr=False)
    bundle_dir: str | None = field(default=None, compare=False, repr=False)
    profile_cpu: bool = field(default=False, compare=False, repr=False)
    sample_hz: float = field(default=97.0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        if not 0.0 < self.tree_support <= 1.0:
            raise ValueError("tree_support must be in (0, 1]")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown split criterion {self.criterion!r}")
        object.__setattr__(self, "backend", resolve_backend(self.backend))
        if self.max_length is not None and self.max_length < 1:
            raise ValueError("max_length must be positive")
        if self.obs is None:
            object.__setattr__(self, "obs", NULL_OBS)
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline_s must be positive")
        if self.bundle_dir is not None:
            # Accept Path objects; store the canonical str form.
            object.__setattr__(self, "bundle_dir", os.fspath(self.bundle_dir))
        if not self.sample_hz > 0:
            raise ValueError("sample_hz must be positive")
        if (
            self.deadline_s is not None
            or self.bundle_dir is not None
            or self.profile_cpu
        ) and self.obs is NULL_OBS:
            # Deadline checks, bundle capture and CPU sampling flow
            # through the collector, so an enabled one is required; a
            # private instance keeps NULL_OBS itself inert.
            from repro.obs.collector import ObsCollector

            object.__setattr__(self, "obs", ObsCollector())
        if self.profile_memory:
            # Profiling lives on the collector (NULL_OBS: no-op), so a
            # frozen config can switch it on without holding state.
            self.obs.enable_memory_profiling()
        if self.profile_cpu:
            self.obs.enable_cpu_profiling(self.sample_hz)

    def replace(self, **changes: object) -> "ExploreConfig":
        """A copy with the given fields changed (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, object]:
        """The result-affecting fields as a plain dict.

        The ``obs`` collector, the ``profile_memory`` switch, the
        ``deadline_s`` budget, the ``bundle_dir`` capture target and
        the CPU-profiling pair (``profile_cpu``, ``sample_hz``) are
        excluded: none of them changes the results of a completed
        run, so two configs that differ only in observability
        serialize (and fingerprint) identically. ``from_dict`` is the
        exact inverse.
        """
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in ("obs", "profile_memory", "deadline_s",
                              "bundle_dir", "profile_cpu", "sample_hz")
        }

    @classmethod
    def from_dict(
        cls,
        data: "Mapping[str, object]",
        *,
        obs: AnyCollector | None = None,
        profile_memory: bool = False,
        deadline_s: float | None = None,
        bundle_dir: str | None = None,
        profile_cpu: bool = False,
        sample_hz: float = 97.0,
    ) -> "ExploreConfig":
        """The exact inverse of :meth:`to_dict`.

        Accepts any subset of the serialized fields (missing keys take
        their defaults) and raises :class:`ValueError` on unknown keys —
        a misspelled knob must not silently fall back to a default, or
        the round-tripped fingerprint would lie. The observability
        fields (``obs``, ``profile_memory``, ``deadline_s``,
        ``bundle_dir``, ``profile_cpu``, ``sample_hz``) are not part
        of the serialized form and are supplied separately.
        """
        unknown = sorted(set(data) - _SERIALIZED_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown ExploreConfig keys: {unknown} "
                f"(expected a subset of {sorted(_SERIALIZED_FIELDS)})"
            )
        return cls(
            obs=obs, profile_memory=profile_memory, deadline_s=deadline_s,
            bundle_dir=bundle_dir, profile_cpu=profile_cpu,
            sample_hz=sample_hz,
            **data,  # type: ignore[arg-type]
        )

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
#: result-affecting knob, excluding the observability fields.
_SERIALIZED_FIELDS = frozenset(
    _FIELD_NAMES - {"obs", "profile_memory", "deadline_s", "bundle_dir",
                    "profile_cpu", "sample_hz"}
)


def resolve_config(
    config: "ExploreConfig | float | None",
    kwargs: dict[str, object],
    defaults: dict[str, object] | None = None,
    owner: str = "this constructor",
) -> ExploreConfig:
    """Build the effective :class:`ExploreConfig` for a constructor.

    Pops canonical field names and deprecated legacy aliases out of
    ``kwargs`` (in place — whatever remains is the caller's own
    parameters to interpret). Precedence: per-class ``defaults`` <
    ``config`` < explicit keyword arguments, with canonical spellings
    beating their legacy aliases.

    ``config`` may also be a bare number, kept for the historical
    ``Explorer(0.05, ...)`` positional form: it is read as
    ``min_support``.
    """
    overrides: dict = {}
    for legacy, canonical in LEGACY_ALIASES.items():
        if legacy in kwargs:
            warnings.warn(
                f"{owner}: keyword {legacy!r} is deprecated; use "
                f"{canonical!r} or pass an ExploreConfig",
                DeprecationWarning,
                stacklevel=3,
            )
            overrides[canonical] = kwargs.pop(legacy)
    for name in _FIELD_NAMES:
        if name in kwargs:
            overrides[name] = kwargs.pop(name)

    if isinstance(config, (int, float)) and not isinstance(config, bool):
        overrides.setdefault("min_support", float(config))
        config = None
    if config is None:
        base = ExploreConfig(**(defaults or {}))
    elif isinstance(config, ExploreConfig):
        base = config
    else:
        raise TypeError(
            f"{owner}: config must be an ExploreConfig or a min_support "
            f"number, not {type(config).__name__}"
        )
    return base.replace(**overrides) if overrides else base
