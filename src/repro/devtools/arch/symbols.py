"""Per-module symbol extraction for reproarch.

One AST pass per file collects everything the cross-module checks
need: import edges (top-level vs. lazy), name bindings from
``from ... import``, definitions with signature summaries, ``__all__``,
internal name uses, dotted attribute references into repro modules,
obs counter/gauge/span emission and assertion sites, schema-id string
constants, and ``DeprecationWarning`` call sites. Nothing is imported
or executed — reproarch sees exactly what is written.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

#: Matches a telemetry schema id anywhere in text, e.g. the run-log
#: schema ``"repro.obs/events@2"`` (family ``obs/events``, version 2).
SCHEMA_ID_RE = re.compile(r"repro\.(obs|devtools)/([a-z_]+)@(\d+)")

#: ObsCollector emission methods whose first argument names a metric,
#: span or progress phase (see :mod:`repro.obs.collector`).
OBS_EMIT_METHODS = frozenset({"count", "gauge", "span", "progress"})

#: Read-side accessors whose literal keys assert that a name exists.
OBS_ASSERT_SUBSCRIPTS = frozenset({"counters", "gauges"})

#: Matches an ``event_counts`` accounting key, e.g. ``"progress:mine"``
#: — asserting one pins the event *name* after the colon.
EVENT_COUNT_KEY_RE = re.compile(
    r"^(span_open|span_close|progress|counters):(.+)$"
)


@dataclass(frozen=True)
class Signature:
    """Arity summary of one public callable or class constructor."""

    kind: str  # "function" | "class" | "constant" | "external" | "module"
    params: tuple[str, ...] = ()
    required: int = 0
    has_vararg: bool = False
    has_kwarg: bool = False

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"kind": self.kind}
        if self.kind in ("function", "class"):
            out["params"] = list(self.params)
            out["required"] = self.required
            if self.has_vararg:
                out["has_vararg"] = True
            if self.has_kwarg:
                out["has_kwarg"] = True
        return out


@dataclass(frozen=True)
class ObsName:
    """One emitted or asserted telemetry name.

    ``prefix`` is True when the name came from an f-string — only the
    leading literal text is known, and matching is by prefix.
    """

    name: str
    prefix: bool = False

    def matches(self, emitted: "ObsName") -> bool:
        if emitted.prefix:
            return bool(emitted.name) and self.name.startswith(emitted.name)
        return self.name == emitted.name


@dataclass
class ModuleInfo:
    """Everything reproarch knows about one parsed python file."""

    name: str  # dotted module name (src) or repo-relative path (aux)
    path: str  # repo-relative posix path
    layer: str = ""
    tree: ast.Module | None = None
    toplevel_imports: set[str] = field(default_factory=set)
    lazy_imports: set[str] = field(default_factory=set)
    import_bindings: dict[str, tuple[str, str]] = field(default_factory=dict)
    module_aliases: dict[str, str] = field(default_factory=dict)
    star_imports: list[str] = field(default_factory=list)
    all_names: list[str] | None = None
    defs: dict[str, Signature] = field(default_factory=dict)
    used_names: set[str] = field(default_factory=set)
    attr_refs: set[tuple[str, str]] = field(default_factory=set)
    emitted_obs: list[ObsName] = field(default_factory=list)
    asserted_obs: list[ObsName] = field(default_factory=list)
    schema_ids: set[tuple[str, int, int]] = field(default_factory=set)
    schema_consts: set[tuple[str, int]] = field(default_factory=set)
    deprecation_sites: list[tuple[str, int]] = field(default_factory=list)
    defines_getattr: bool = False


def _dotted(node: ast.AST) -> str | None:
    """Render a Name/Attribute chain as ``a.b.c`` (None otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _function_signature(
    node: ast.FunctionDef | ast.AsyncFunctionDef, kind: str = "function"
) -> Signature:
    args = node.args
    params = [
        a.arg
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if a.arg not in ("self", "cls")
    ]
    n_positional = len(args.posonlyargs) + len(args.args)
    n_self = sum(
        1
        for a in list(args.posonlyargs) + list(args.args)
        if a.arg in ("self", "cls")
    )
    required = n_positional - n_self - len(args.defaults)
    required += sum(1 for d in args.kw_defaults if d is None)
    return Signature(
        kind=kind,
        params=tuple(params),
        required=max(0, required),
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = _dotted(target)
        if name in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _class_signature(node: ast.ClassDef) -> Signature:
    for item in node.body:
        if (
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "__init__"
        ):
            sig = _function_signature(item, kind="class")
            return sig
    if _is_dataclass(node):
        fields = []
        required = 0
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                fields.append(item.target.id)
                if item.value is None:
                    required += 1
        return Signature(kind="class", params=tuple(fields), required=required)
    return Signature(kind="class")


def _collect_defs(module: ModuleInfo, tree: ast.Module) -> None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.defs[node.name] = _function_signature(node)
            if node.name == "__getattr__":
                module.defines_getattr = True
        elif isinstance(node, ast.ClassDef):
            module.defs[node.name] = _class_signature(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module.defs.setdefault(
                        target.id, Signature(kind="constant")
                    )
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            module.defs.setdefault(node.target.id, Signature(kind="constant"))
        elif isinstance(node, (ast.If, ast.Try)):
            # Defs behind version/feature guards still belong to the
            # module surface (e.g. try/except ImportError fallbacks).
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    module.defs.setdefault(
                        sub.name, _function_signature(sub)
                    )
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            module.defs.setdefault(
                                target.id, Signature(kind="constant")
                            )


def _collect_all(module: ModuleInfo, tree: ast.Module) -> None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                module.all_names = [
                    e.value
                    for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]


def _toplevel_import_ids(tree: ast.Module) -> set[int]:
    """ids of Import/ImportFrom nodes executed at module import time.

    Anything outside a function body runs on import — including
    imports under module-level ``if``/``try`` guards — so only
    function-nested imports are *lazy* for cycle purposes.
    """
    found: set[int] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.add(id(node))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _collect_imports(module: ModuleInfo, tree: ast.Module) -> None:
    toplevel_nodes = _toplevel_import_ids(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                base = module.name.split(".")
                if module.path.endswith("__init__.py"):
                    base = base + ["__init__"]
                base = base[: len(base) - node.level]
                target = ".".join(base + ([target] if target else []))
            if not target.startswith("repro"):
                continue
            bucket = (
                module.toplevel_imports
                if id(node) in toplevel_nodes
                else module.lazy_imports
            )
            bucket.add(target)
            for alias in node.names:
                if alias.name == "*":
                    module.star_imports.append(target)
                else:
                    module.import_bindings[alias.asname or alias.name] = (
                        target,
                        alias.name,
                    )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if not alias.name.startswith("repro"):
                    continue
                bucket = (
                    module.toplevel_imports
                    if id(node) in toplevel_nodes
                    else module.lazy_imports
                )
                bucket.add(alias.name)
                local = alias.asname or alias.name.split(".")[0]
                module.module_aliases[local] = (
                    alias.name if alias.asname else "repro"
                )


def _collect_uses(module: ModuleInfo, tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            module.used_names.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain: list[str] = []
            cur: ast.AST = node
            while isinstance(cur, ast.Attribute):
                chain.append(cur.attr)
                cur = cur.value
            if not isinstance(cur, ast.Name):
                continue
            chain.append(cur.id)
            chain.reverse()
            base = module.module_aliases.get(chain[0], chain[0])
            if base != chain[0]:
                chain = base.split(".") + chain[1:]
            if chain[0] != "repro":
                continue
            for i in range(1, len(chain)):
                module.attr_refs.add((".".join(chain[:i]), chain[i]))


def _obs_name_from_arg(arg: ast.expr) -> ObsName | None:
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return ObsName(arg.value)
    if isinstance(arg, ast.JoinedStr) and arg.values:
        head = arg.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return ObsName(head.value, prefix=True)
        return None
    return None


def _collect_obs(module: ModuleInfo, tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in OBS_EMIT_METHODS
            and node.args
        ):
            name = _obs_name_from_arg(node.args[0])
            if name is not None:
                module.emitted_obs.append(name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assert):
            continue
        if _asserts_absence(node):
            continue
        for sub in ast.walk(node):
            name = _asserted_obs_name(sub)
            if name is not None:
                module.asserted_obs.append(name)


def _asserts_absence(node: ast.Assert) -> bool:
    """True for ``assert obs.counter("x") == 0`` — asserting a name is
    *not* emitted, which must not count as asserting its existence."""
    test = node.test
    if not isinstance(test, ast.Compare):
        return False
    if not all(isinstance(op, ast.Eq) for op in test.ops):
        return False
    return any(
        isinstance(c, ast.Constant) and c.value == 0 and c.value is not False
        for c in test.comparators
    )


def _asserted_obs_name(node: ast.AST) -> ObsName | None:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "counter"
        and node.args
    ):
        return _obs_name_from_arg(node.args[0])
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in OBS_ASSERT_SUBSCRIPTS
    ):
        return _obs_name_from_arg(node.slice)
    if isinstance(node, ast.Subscript):
        key = _obs_name_from_arg(node.slice)
        if key is not None and not key.prefix:
            match = EVENT_COUNT_KEY_RE.match(key.name)
            if match is not None:
                return ObsName(match.group(2))
    return None


def _collect_schema_ids(module: ModuleInfo, tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for match in SCHEMA_ID_RE.finditer(node.value):
                family = f"{match.group(1)}/{match.group(2)}"
                module.schema_ids.add(
                    (family, int(match.group(3)), node.lineno)
                )
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Constant
        ) and isinstance(node.value.value, str):
            match = SCHEMA_ID_RE.fullmatch(node.value.value)
            if match is not None:
                family = f"{match.group(1)}/{match.group(2)}"
                module.schema_consts.add((family, int(match.group(3))))


def _collect_deprecations(module: ModuleInfo, tree: ast.Module) -> None:
    def scan(body: list[ast.stmt], qualname: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{qualname}.{node.name}" if qualname else node.name
                for sub in ast.walk(node):
                    if _is_deprecation_warn(sub):
                        module.deprecation_sites.append(
                            (inner, sub.lineno)
                        )
            elif isinstance(node, ast.ClassDef):
                scan(node.body, node.name)

    scan(tree.body, "")


def _is_deprecation_warn(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = _dotted(node.func)
    if name not in ("warnings.warn", "warn"):
        return False
    mentioned = [
        _dotted(a) for a in list(node.args) + [k.value for k in node.keywords]
    ]
    return any(
        m is not None and m.endswith("DeprecationWarning") for m in mentioned
    )


def parse_module(name: str, path: str, source: str, layer: str = "") -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises SyntaxError)."""
    tree = ast.parse(source)
    module = ModuleInfo(name=name, path=path, layer=layer, tree=tree)
    _collect_defs(module, tree)
    _collect_all(module, tree)
    _collect_imports(module, tree)
    _collect_uses(module, tree)
    _collect_obs(module, tree)
    _collect_schema_ids(module, tree)
    _collect_deprecations(module, tree)
    return module
