"""The reprolint rule catalogue (RPL001–010, RPL012–016, RPL018, RPL019).

Each rule encodes one invariant the reproduction depends on —
determinism across warm/cold paths, independence from the
banned substrate, frozen-config semantics — as a purely syntactic check
over the AST. See ``docs/STATIC_ANALYSIS.md`` for the full rationale
per rule and the suppression/baseline mechanics.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.model import ModuleContext, Rule, Severity, register

#: Import roots banned everywhere: the reproduction is numpy/scipy-only
#: (no pandas/sklearn) and fully offline (no HTTP clients).
BANNED_IMPORT_ROOTS = {
    "pandas": "the Table substrate replaces pandas",
    "sklearn": "repro.ml replaces sklearn",
    "requests": "the reproduction is offline; datasets are synthesized",
    "urllib": "the reproduction is offline; datasets are synthesized",
    "urllib3": "the reproduction is offline; datasets are synthesized",
    "httpx": "the reproduction is offline; datasets are synthesized",
}

#: numpy.random attributes that are *not* the legacy global RNG.
ALLOWED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence", "BitGenerator"}

#: stdlib ``random`` functions that draw from the hidden module-level
#: state (the reason the module is banned outright in library code).
STDLIB_RANDOM_FUNCS = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "setstate", "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
}

#: Mutable constructors whose results must not be default arguments or
#: fork-captured module globals.
MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}

#: Modules whose public surface ships real type annotations (py.typed).
TYPED_PUBLIC_MODULES = (
    "src/repro/core/config.py",
    "src/repro/core/results.py",
)

#: Library modules whose *contract* is user-facing terminal output:
#: the CLI entry points and the lint report renderer.
PRINT_ALLOWED_MODULES = (
    "src/repro/cli.py",
    "src/repro/devtools/__main__.py",
    "src/repro/devtools/arch/cli.py",
    "src/repro/devtools/lint.py",
    "src/repro/experiments/paper.py",
    "src/repro/obs/cpuprof.py",
    "src/repro/obs/diff.py",
    "src/repro/obs/doctor.py",
    "src/repro/obs/tail.py",
)

#: Wall-clock datetime constructors (RPL014). Timing in the library
#: must come from ``time.perf_counter``; timestamps that are genuinely
#: metadata carry an inline pragma with the justification.
WALLCLOCK_DATETIME_CALLS = {
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_FLOAT_SENSITIVE = re.compile(
    r"(divergence|criteria|significance|polarity|bitset)"
)

#: Pipeline internals that must be reached through the front doors
#: (RPL015): the explorers, :class:`repro.core.session.ExploreSession`,
#: or :func:`repro.core.mining.mine`. Constructing them directly skips
#: the config resolution, canonical result ordering and session caching
#: those layers guarantee. ``CombinedTreeDiscretizer`` (a baseline
#: component, not a pipeline stage) and ``mine()`` itself stay
#: callable.
PIPELINE_INTERNAL_CALLS = {
    "TreeDiscretizer",
    "BitsetEngine",
}

#: The single sanctioned owner of process-level crash hooks (RPL018):
#: ``repro.obs.bundle`` installs ``sys.excepthook``/``faulthandler``
#: scoped to a run bundle's active window and restores them on exit.
CRASH_HOOK_OWNER = "src/repro/obs/bundle.py"

#: ``faulthandler`` functions that install process-global handlers.
FAULTHANDLER_INSTALL_FUNCS = {"enable", "register"}

#: The single sanctioned owner of in-process profiling (RPL019):
#: ``repro.obs.cpuprof`` samples ``sys._current_frames()`` from a
#: background thread, attributing stacks to the open obs span.
CPUPROF_OWNER = "src/repro/obs/cpuprof.py"

#: Interpreter profiling/tracing entry points banned outside the
#: cpuprof owner. The trace hooks slow every bytecode and clobber
#: debuggers/coverage; a second ``_current_frames`` reader would
#: bypass the span-attribution registry.
PROFILER_HOOK_CALLS = {
    "sys.setprofile",
    "sys.settrace",
    "threading.setprofile",
    "threading.settrace",
    "sys._current_frames",
}


def dotted_name(node: ast.AST) -> str | None:
    """Render an ``ast.Name``/``ast.Attribute`` chain as ``a.b.c``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in MUTABLE_CALLS:
            return True
    return False


def _in_library(path: str) -> bool:
    return path.startswith("src/")


@register
class ForbiddenImportRule(Rule):
    code = "RPL001"
    name = "forbidden-import"
    severity = Severity.ERROR
    rationale = (
        "The reproduction is a from-scratch numpy-only build: pandas, "
        "sklearn and network clients are banned substrate."
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_IMPORT_ROOTS:
                        yield node, (
                            f"import of banned module {alias.name!r}: "
                            f"{BANNED_IMPORT_ROOTS[root]}"
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                if root in BANNED_IMPORT_ROOTS:
                    yield node, (
                        f"import from banned module {node.module!r}: "
                        f"{BANNED_IMPORT_ROOTS[root]}"
                    )


@register
class GlobalRngRule(Rule):
    code = "RPL002"
    name = "global-rng"
    severity = Severity.ERROR
    rationale = (
        "Seed-controlled pipelines require an injected "
        "numpy.random.Generator; hidden module-level RNG state breaks "
        "replayability across processes and call orders."
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                for prefix in ("np.random.", "numpy.random."):
                    if name.startswith(prefix):
                        attr = name[len(prefix):].split(".")[0]
                        if attr not in ALLOWED_NP_RANDOM:
                            yield node, (
                                f"global-RNG call {name}(): draw from an "
                                f"injected np.random.Generator instead"
                            )
                        break
                else:
                    if (
                        name.startswith("random.")
                        and name.split(".")[1] in STDLIB_RANDOM_FUNCS
                    ):
                        yield node, (
                            f"stdlib global-RNG call {name}(): use an "
                            f"injected np.random.Generator"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield node, (
                        "importing from stdlib 'random' pulls hidden "
                        "global-RNG state; use np.random.default_rng"
                    )
                elif node.module in ("numpy.random", "numpy_random"):
                    for alias in node.names:
                        if alias.name not in ALLOWED_NP_RANDOM:
                            yield node, (
                                f"'from numpy.random import {alias.name}' "
                                f"binds the legacy global RNG"
                            )


@register
class MutableDefaultRule(Rule):
    code = "RPL003"
    name = "mutable-default"
    severity = Severity.ERROR
    rationale = (
        "A mutable default is shared across calls — state leaks between "
        "explorations and makes results depend on call history."
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_value(default):
                        yield default, (
                            f"mutable default argument in {node.name}(): "
                            f"use None and materialize inside the body"
                        )


@register
class BareExceptRule(Rule):
    code = "RPL004"
    name = "bare-except"
    severity = Severity.ERROR
    rationale = (
        "A bare except swallows KeyboardInterrupt/SystemExit and hides "
        "real divergence failures behind silent fallbacks."
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield node, "bare 'except:' — catch a specific exception type"


@register
class AssertInLibraryRule(Rule):
    code = "RPL005"
    name = "assert-in-library"
    severity = Severity.ERROR
    rationale = (
        "python -O strips assert statements, so a guard written as "
        "assert silently disappears in optimized runs; library code "
        "must raise explicit exceptions."
    )

    def applies_to(self, path: str) -> bool:
        return _in_library(path)

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield node, (
                    "assert in library code: raise ValueError/RuntimeError "
                    "so 'python -O' cannot drop the check"
                )


@register
class FloatEqualityRule(Rule):
    code = "RPL006"
    name = "float-equality"
    severity = Severity.WARNING
    rationale = (
        "Divergence and split-criterion math must agree bit-for-bit "
        "across warm/cold paths; == on float literals is "
        "usually a tolerance bug unless it is an exact-zero guard "
        "(suppress those inline)."
    )

    def applies_to(self, path: str) -> bool:
        return _FLOAT_SENSITIVE.search(path) is not None

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            has_float = any(
                isinstance(o, ast.Constant) and isinstance(o.value, float)
                for o in operands
            )
            if has_float and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                yield node, (
                    "float ==/!= comparison in divergence-sensitive code: "
                    "use math.isclose or an explicit exact-zero guard with "
                    "an inline suppression"
                )


@register
class FrozenMutationRule(Rule):
    code = "RPL007"
    name = "frozen-mutation"
    severity = Severity.ERROR
    rationale = (
        "ExploreConfig and the result dataclasses are frozen by design; "
        "object.__setattr__ back doors outside __post_init__ reintroduce "
        "mutable config drift mid-exploration."
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not _is_frozen_dataclass(cls):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in ("__post_init__", "__new__"):
                    continue
                yield from self._mutations(cls.name, method)

    def _mutations(
        self, cls_name: str, method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name == "object.__setattr__":
                    yield node, (
                        f"object.__setattr__ in frozen dataclass "
                        f"{cls_name}.{method.name}: frozen fields may only "
                        f"be written in __post_init__"
                    )
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield node, (
                        f"attribute assignment to self.{target.attr} in "
                        f"frozen dataclass {cls_name}.{method.name}"
                    )


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = dotted_name(deco.func)
        if name not in ("dataclass", "dataclasses.dataclass"):
            continue
        for kw in deco.keywords:
            if (
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


@register
class ForkUnsafeStateRule(Rule):
    code = "RPL008"
    name = "fork-unsafe-state"
    severity = Severity.ERROR
    rationale = (
        "Worker processes inherit module globals at fork/spawn time; a "
        "mutable module-level container in a multiprocessing module is "
        "state a process pool (the reprolint runner's --jobs) silently "
        "duplicates or loses, so parallel and serial runs disagree."
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if not _imports_any(ctx.tree, ("multiprocessing", "concurrent")):
            return
        for node in ctx.tree.body:
            value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                value = node.value
            if value is not None and _is_mutable_value(value):
                yield node, (
                    "mutable module-level container in a multiprocessing "
                    "module: workers fork this state — keep module globals "
                    "immutable (None sentinel + initializer)"
                )


def _imports_any(tree: ast.Module, roots: tuple[str, ...]) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] in roots for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in roots:
                return True
    return False


@register
class SetIterationRule(Rule):
    code = "RPL009"
    name = "set-iteration"
    severity = Severity.WARNING
    rationale = (
        "Set iteration order varies with PYTHONHASHSEED; feeding it "
        "into result ordering makes output non-reproducible — sort "
        "before iterating."
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if isinstance(it, (ast.Set, ast.SetComp)):
                    yield it, (
                        "iterating directly over a set literal: order is "
                        "unspecified — use sorted(...) or a tuple"
                    )
                elif isinstance(it, ast.Call):
                    name = dotted_name(it.func)
                    if name in ("set", "frozenset"):
                        yield it, (
                            f"iterating directly over {name}(...): order is "
                            f"unspecified — wrap in sorted(...)"
                        )


@register
class WallClockTimingRule(Rule):
    code = "RPL010"
    name = "wall-clock-timing"
    severity = Severity.ERROR
    rationale = (
        "time.time() jumps with NTP adjustments; benchmark intervals "
        "must use the monotonic time.perf_counter()."
    )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in ("time.time", "time.clock"):
                    yield node, (
                        f"{name}() is wall-clock: use time.perf_counter() "
                        f"for interval timing"
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in ("time", "clock"):
                        yield node, (
                            "'from time import time' hides the wall-clock "
                            "nature of the call: import time.perf_counter"
                        )


@register
class PrintInLibraryRule(Rule):
    code = "RPL013"
    name = "print-in-library"
    severity = Severity.ERROR
    rationale = (
        "Library code must not write to stdout: callers embed the "
        "explorers in pipelines whose stdout is data. Diagnostics "
        "belong in the repro.obs collector (spans/counters) or in "
        "return values; only the CLI and report renderers print."
    )

    def applies_to(self, path: str) -> bool:
        return _in_library(path) and path not in PRINT_ALLOWED_MODULES

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield node, (
                    "print() in library code: route diagnostics through "
                    "an ObsCollector (or return them) — stdout belongs "
                    "to the caller"
                )


@register
class UntypedPublicApiRule(Rule):
    code = "RPL012"
    name = "untyped-public-api"
    severity = Severity.WARNING
    rationale = (
        "repro.core.config and repro.core.results ship py.typed: their "
        "public signatures are the frozen API contract, so every public "
        "parameter and return type must be annotated (signature drift "
        "then fails loudly)."
    )

    def applies_to(self, path: str) -> bool:
        return path in TYPED_PUBLIC_MODULES

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            public = not node.name.startswith("_") or node.name == "__init__"
            if not public:
                continue
            args = node.args
            params = (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            )
            for param in params:
                if param.arg in ("self", "cls"):
                    continue
                if param.annotation is None:
                    yield node, (
                        f"public function {node.name}(): parameter "
                        f"{param.arg!r} is unannotated"
                    )
            if node.returns is None:
                yield node, (
                    f"public function {node.name}(): missing return "
                    f"annotation"
                )


@register
class WallClockDatetimeRule(Rule):
    code = "RPL014"
    name = "wall-clock-datetime"
    severity = Severity.ERROR
    rationale = (
        "datetime.now()/utcnow()/today() are wall-clock, exactly like "
        "the time.time() RPL010 bans: subtracting two of them measures "
        "NTP slew, not elapsed work. Intervals come from "
        "time.perf_counter(); a timestamp that is genuinely metadata "
        "(bundle manifests, log lines) carries an inline pragma "
        "stating so."
    )

    def applies_to(self, path: str) -> bool:
        return _in_library(path)

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in WALLCLOCK_DATETIME_CALLS:
                    yield node, (
                        f"{name}() is wall-clock: use time.perf_counter() "
                        f"for intervals; if this is a metadata timestamp, "
                        f"suppress with a justification"
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date") and alias.asname:
                        # Renamed imports would dodge the dotted-name
                        # match above; keep the spelling canonical.
                        yield node, (
                            f"'from datetime import {alias.name} as "
                            f"{alias.asname}' hides wall-clock calls from "
                            f"this lint: import it unaliased"
                        )


@register
class PipelineInternalConstructionRule(Rule):
    code = "RPL015"
    name = "pipeline-internal-construction"
    severity = Severity.ERROR
    rationale = (
        "TreeDiscretizer and BitsetEngine are "
        "pipeline internals: the front doors (DivExplorer/HDivExplorer, "
        "ExploreSession, mine()) own config resolution, "
        "canonical result ordering and artifact caching. Direct "
        "construction outside repro.core silently skips those "
        "guarantees and drifts from the cold/warm bit-identity "
        "contract."
    )

    def applies_to(self, path: str) -> bool:
        # The internals may of course build each other; examples and
        # tests exercise them deliberately.
        return not (
            path.startswith("src/repro/core/")
            or path.startswith("tests/")
            or path.startswith("examples/")
        )

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            leaf = name.split(".")[-1]
            if leaf in PIPELINE_INTERNAL_CALLS:
                yield node, (
                    f"direct {leaf}() construction outside repro.core: "
                    f"go through ExploreSession / the explorers / "
                    f"mine() instead"
                )


@register
class CrashHookRule(Rule):
    code = "RPL018"
    name = "crash-hook-outside-bundle"
    severity = Severity.ERROR
    rationale = (
        "Crash capture has exactly one owner: repro.obs.bundle installs "
        "sys.excepthook and faulthandler scoped to a run bundle's "
        "active window, chains to the previous hook, and restores both "
        "on exit. A second installation elsewhere silently replaces the "
        "bundle's hook (or fights over the faulthandler output file), "
        "so failed runs stop producing crash.json — route crash "
        "handling through RunBundle instead."
    )

    def applies_to(self, path: str) -> bool:
        return _in_library(path) and path != CRASH_HOOK_OWNER

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if dotted_name(target) == "sys.excepthook":
                        yield node, (
                            "sys.excepthook assignment outside "
                            "repro.obs.bundle: crash capture has one "
                            "owner — use RunBundle (or its CrashCapture) "
                            "instead of installing a hook directly"
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None or not name.startswith("faulthandler."):
                    continue
                if name.split(".")[-1] in FAULTHANDLER_INSTALL_FUNCS:
                    yield node, (
                        f"{name}() outside repro.obs.bundle: the fault "
                        f"handler belongs to the active run bundle "
                        f"(fault.log) — wrap the run in RunBundle instead"
                    )


@register
class ProfilerHookRule(Rule):
    code = "RPL019"
    name = "profiler-hook-outside-cpuprof"
    severity = Severity.ERROR
    rationale = (
        "In-process profiling has exactly one owner: "
        "repro.obs.cpuprof's sampling profiler, which reads "
        "sys._current_frames() from its own thread and never touches "
        "the interpreter's tracing slots. sys.setprofile/sys.settrace "
        "(and their threading.* spellings) install per-bytecode "
        "callbacks that slow every frame, fight with debuggers and "
        "coverage, and leak process-global state across runs; a second "
        "_current_frames() reader would duplicate attribution logic "
        "the span registry already centralizes. Route profiling "
        "through ObsCollector.enable_cpu_profiling() instead."
    )

    def applies_to(self, path: str) -> bool:
        return _in_library(path) and path != CPUPROF_OWNER

    def check(self, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in PROFILER_HOOK_CALLS:
                yield node, (
                    f"{name}() outside repro.obs.cpuprof: in-process "
                    f"profiling has one owner — use "
                    f"ObsCollector.enable_cpu_profiling() (sampling, "
                    f"span-attributed) instead of interpreter trace "
                    f"hooks"
                )
