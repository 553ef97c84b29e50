"""The architecture contract specification (``.reproarch.toml``).

The spec file is the *declared* architecture that reproarch checks the
tree against: the layer DAG (which repro package may import which),
the deprecation-shim registry (each ``DeprecationWarning`` site with a
target-removal PR), lazy-export hints (PEP 562 ``__getattr__`` modules
whose ``__all__`` names resolve elsewhere), and the exemption lists —
every justified deviation carries a reason string next to it, in one
committed file, instead of being silently baselined away.

Format::

    [layers]
    tabular = []
    core = ["tabular", "obs"]

    [lazy-exports]
    "repro.obs" = "repro.obs.cpuprof"

    [[deprecations]]
    site = "repro.core.mining.transactions:resolve_backend"
    reason = "retired mining backend names (fpgrowth/apriori/eclat)"
    remove_by_pr = 12

    [[exemptions.dead-export]]
    name = "repro.core.session:SweepPoint"
    reason = "row type of ExploreSession.sweep() results"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

try:
    import tomllib
except ImportError:  # pragma: no cover - python < 3.11
    tomllib = None  # type: ignore[assignment]

#: Default spec location, relative to the repo root.
SPEC_FILENAME = ".reproarch.toml"

#: The exemption categories reproarch understands; anything else in
#: ``[exemptions.*]`` is a spec error.
EXEMPTION_CATEGORIES = (
    "dead-export",
    "config-field",
    "obs-name",
    "schema",
)


@dataclass(frozen=True)
class DeprecationEntry:
    """One registered ``DeprecationWarning`` shim.

    ``site`` is ``module:function`` of the top-level callable containing
    the ``warnings.warn(..., DeprecationWarning)`` call.
    """

    site: str
    reason: str
    remove_by_pr: int


@dataclass
class ArchSpec:
    """Parsed architecture contract.

    ``layers`` maps a layer name (top-level component under ``repro``,
    e.g. ``"core"``, ``"cli"``, or ``"repro"`` for the root package) to
    the layers it is allowed to import. Same-layer imports are always
    allowed; the stdlib is always allowed.
    """

    layers: dict[str, tuple[str, ...]] = field(default_factory=dict)
    lazy_exports: dict[str, tuple[str, ...]] = field(default_factory=dict)
    deprecations: tuple[DeprecationEntry, ...] = ()
    exemptions: dict[str, dict[str, str]] = field(default_factory=dict)

    def exemption_reason(self, category: str, name: str) -> str | None:
        """The reason string for an exemption, or None when not exempt."""
        return self.exemptions.get(category, {}).get(name)

    def allowed_layers(self, layer: str) -> tuple[str, ...]:
        return self.layers.get(layer, ())

    @classmethod
    def from_dict(cls, data: dict) -> "ArchSpec":
        """Build a spec from decoded TOML, validating shapes loudly."""
        known_top = {"layers", "lazy-exports", "deprecations", "exemptions"}
        unknown = sorted(set(data) - known_top)
        if unknown:
            raise ValueError(f"unknown .reproarch.toml keys: {unknown}")

        layers_raw = data.get("layers", {})
        layers = {}
        for name in sorted(layers_raw):
            allowed = layers_raw[name]
            if not isinstance(allowed, list) or not all(
                isinstance(a, str) for a in allowed
            ):
                raise ValueError(
                    f"[layers] {name!r} must map to a list of layer names"
                )
            layers[name] = tuple(allowed)

        lazy_raw = data.get("lazy-exports", {})
        lazy = {}
        for source, target in lazy_raw.items():
            if isinstance(target, str):
                lazy[source] = (target,)
            elif isinstance(target, list) and target and all(
                isinstance(t, str) for t in target
            ):
                lazy[source] = tuple(target)
            else:
                raise ValueError(
                    f"[lazy-exports] {source!r} must map to a module name "
                    f"or a non-empty list of module names"
                )

        deprecations = []
        for entry in data.get("deprecations", []):
            missing = sorted(
                {"site", "reason", "remove_by_pr"} - set(entry)
            )
            if missing:
                raise ValueError(
                    f"[[deprecations]] entry missing keys {missing}: {entry}"
                )
            deprecations.append(
                DeprecationEntry(
                    site=str(entry["site"]),
                    reason=str(entry["reason"]),
                    remove_by_pr=int(entry["remove_by_pr"]),
                )
            )

        exemptions: dict[str, dict[str, str]] = {}
        for category, entries in data.get("exemptions", {}).items():
            if category not in EXEMPTION_CATEGORIES:
                raise ValueError(
                    f"unknown exemption category {category!r} "
                    f"(expected one of {EXEMPTION_CATEGORIES})"
                )
            table: dict[str, str] = {}
            for entry in entries:
                if "name" not in entry or "reason" not in entry:
                    raise ValueError(
                        f"[[exemptions.{category}]] entries need both "
                        f"'name' and 'reason': {entry}"
                    )
                table[str(entry["name"])] = str(entry["reason"])
            exemptions[category] = table

        return cls(
            layers=layers,
            lazy_exports=dict(lazy),
            deprecations=tuple(deprecations),
            exemptions=exemptions,
        )

    @classmethod
    def load(cls, path: Path) -> "ArchSpec":
        """Read and validate a spec file; a missing file is an error —
        the contract must be committed next to the code it governs."""
        if tomllib is None:  # pragma: no cover - python < 3.11
            raise RuntimeError(
                "reproarch needs the stdlib 'tomllib' (python >= 3.11) "
                "to read .reproarch.toml"
            )
        if not path.exists():
            raise FileNotFoundError(
                f"no architecture spec at {path}; create {SPEC_FILENAME} "
                f"at the repo root (see docs/STATIC_ANALYSIS.md)"
            )
        with open(path, "rb") as fh:
            return cls.from_dict(tomllib.load(fh))
