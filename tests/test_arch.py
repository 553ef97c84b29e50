"""Unit tests for reproarch (repro.devtools.arch).

Each check class is exercised on a seeded mini-repository under
``tmp_path`` carrying its own ``.reproarch.toml`` — one fixture that
must fire and one that must stay silent — plus the api-lock round-trip
and the reporters.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools.arch import (
    LOCK_FILENAME,
    SPEC_FILENAME,
    ArchRunner,
    ArchSpec,
    build_project,
)
from repro.devtools.arch.deprecations import current_pr
from repro.devtools.arch.graph import render_graph
from repro.devtools.arch.lockfile import check_lock, load_lock, write_lock
from repro.devtools.reporting import render_json, render_text

BASE_SPEC = """\
[layers]
repro = ["core"]
core = ["tabular"]
tabular = []
"""

#: The mini-repos' changelog: its highest entry makes the current PR 7.
BASE_CHANGES = "- PR 6: earlier work\n- PR 7: the latest entry\n"


def make_repo(
    tmp_path: Path,
    files: dict[str, str],
    spec: str = BASE_SPEC,
    changes: str | None = BASE_CHANGES,
):
    (tmp_path / SPEC_FILENAME).write_text(spec, encoding="utf-8")
    if changes is not None:
        (tmp_path / "CHANGES.md").write_text(changes, encoding="utf-8")
    base = {"src/repro/__init__.py": ""}
    for rel, source in {**base, **files}.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def run_arch(root: Path, check_lock: bool = False):
    spec = ArchSpec.load(root / SPEC_FILENAME)
    return ArchRunner(root=root, spec=spec).run(check_lock=check_lock)


def codes(report) -> set[str]:
    return {f.code for f in report.findings}


class TestLayering:
    def test_allowed_import_is_clean(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/tabular/__init__.py": "X = 1\n",
            "src/repro/core/__init__.py": "from repro.tabular import X\nY = X\n",
        })
        assert codes(run_arch(root)) == set()

    def test_forbidden_import_fires(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": "Y = 2\n",
            "src/repro/tabular/__init__.py": "from repro.core import Y\nZ = Y\n",
        })
        assert "RPA001" in codes(run_arch(root))

    def test_lazy_import_still_counts_for_layering(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": "Y = 2\n",
            "src/repro/tabular/__init__.py": (
                "def f():\n"
                "    from repro.core import Y\n"
                "    return Y\n"
            ),
        })
        assert "RPA001" in codes(run_arch(root))

    def test_undeclared_layer_fires(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/mystery/__init__.py": "A = 1\n",
        })
        assert "RPA001" in codes(run_arch(root))


class TestCycles:
    def test_toplevel_cycle_fires(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": "",
            "src/repro/core/a.py": "import repro.core.b\nA = 1\n",
            "src/repro/core/b.py": "import repro.core.a\nB = 1\n",
        })
        report = run_arch(root)
        assert "RPA002" in codes(report)
        [cycle] = [f for f in report.findings if f.code == "RPA002"]
        assert "repro.core.a" in cycle.message

    def test_lazy_import_breaks_the_cycle(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": "",
            "src/repro/core/a.py": "import repro.core.b\nA = 1\n",
            "src/repro/core/b.py": (
                "def f():\n"
                "    import repro.core.a\n"
                "    return repro.core.a.A\n"
            ),
        })
        assert "RPA002" not in codes(run_arch(root))


class TestExports:
    def test_dead_export_fires(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": (
                "def used():\n    return 1\n"
                "def unused():\n    return 2\n"
                '__all__ = ["used", "unused"]\n'
            ),
            "src/repro/__init__.py": "from repro.core import used\nX = used()\n",
        })
        report = run_arch(root)
        dead = [f for f in report.findings if f.code == "RPA003"]
        assert len(dead) == 1 and "unused" in dead[0].message

    def test_pure_reexport_is_not_a_use(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": (
                "def helper():\n    return 1\n"
                '__all__ = ["helper"]\n'
            ),
            "src/repro/__init__.py": (
                "from repro.core import helper\n"
                '__all__ = ["helper"]\n'
            ),
        })
        assert "RPA003" in codes(run_arch(root))

    def test_test_reference_keeps_export_alive(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": (
                "def helper():\n    return 1\n"
                '__all__ = ["helper"]\n'
            ),
            "tests/test_helper.py": (
                "from repro.core import helper\n"
                "def test_helper():\n    assert helper() == 1\n"
            ),
        })
        assert "RPA003" not in codes(run_arch(root))

    def test_exemption_silences_with_reason(self, tmp_path):
        spec = BASE_SPEC + textwrap.dedent("""
            [[exemptions.dead-export]]
            name = "repro.core:helper"
            reason = "kept for annotations"
        """)
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": (
                "def helper():\n    return 1\n"
                '__all__ = ["helper"]\n'
            ),
        }, spec=spec)
        assert "RPA003" not in codes(run_arch(root))

    def test_stale_exemption_warns(self, tmp_path):
        spec = BASE_SPEC + textwrap.dedent("""
            [[exemptions.dead-export]]
            name = "repro.core:gone"
            reason = "no longer exists"
        """)
        root = make_repo(tmp_path, {"src/repro/core/__init__.py": ""}, spec=spec)
        assert "RPA012" in codes(run_arch(root))

    def test_unresolved_export_fires(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": '__all__ = ["missing"]\n',
        })
        assert "RPA004" in codes(run_arch(root))

    def test_lazy_export_hint_resolves(self, tmp_path):
        spec = BASE_SPEC + textwrap.dedent("""
            [lazy-exports]
            "repro.core" = "repro.core.impl"
        """)
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": (
                '__all__ = ["lazy_thing"]\n'
                "def __getattr__(name):\n"
                "    from repro.core import impl\n"
                "    return getattr(impl, name)\n"
            ),
            "src/repro/core/impl.py": "def lazy_thing():\n    return 3\n",
            "tests/test_lazy.py": (
                "from repro.core import lazy_thing\n"
                "def test_it():\n    assert lazy_thing() == 3\n"
            ),
        }, spec=spec)
        assert "RPA004" not in codes(run_arch(root))

    def test_lazy_export_hint_list_tries_each_module(self, tmp_path):
        spec = BASE_SPEC + textwrap.dedent("""
            [lazy-exports]
            "repro.core" = ["repro.core.impl_a", "repro.core.impl_b"]
        """)
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": (
                '__all__ = ["thing_a", "thing_b"]\n'
                "def __getattr__(name):\n"
                "    from repro.core import impl_a, impl_b\n"
                "    for mod in (impl_a, impl_b):\n"
                "        if hasattr(mod, name):\n"
                "            return getattr(mod, name)\n"
                "    raise AttributeError(name)\n"
            ),
            "src/repro/core/impl_a.py": "def thing_a():\n    return 1\n",
            "src/repro/core/impl_b.py": "def thing_b():\n    return 2\n",
            "tests/test_lazy.py": (
                "from repro.core import thing_a, thing_b\n"
                "def test_it():\n    assert thing_a() + thing_b() == 3\n"
            ),
        }, spec=spec)
        assert "RPA004" not in codes(run_arch(root))


class TestApiLock:
    FILES = {
        "src/repro/core/__init__.py": (
            "def explore(table, outcome, k=5):\n    return []\n"
            '__all__ = ["explore"]\n'
        ),
        "tests/test_core.py": (
            "from repro.core import explore\n"
            "def test_explore():\n    assert explore(1, 2) == []\n"
        ),
    }

    def run_with_lock(self, root: Path):
        spec = ArchSpec.load(root / SPEC_FILENAME)
        return ArchRunner(root=root, spec=spec).run(check_lock=True)

    def test_missing_lockfile_fires(self, tmp_path):
        root = make_repo(tmp_path, self.FILES)
        assert "RPA005" in codes(self.run_with_lock(root))

    def test_lock_then_check_is_clean(self, tmp_path):
        root = make_repo(tmp_path, self.FILES)
        spec = ArchSpec.load(root / SPEC_FILENAME)
        project = build_project(root, spec)
        write_lock(project, root / LOCK_FILENAME)
        assert load_lock(root / LOCK_FILENAME) is not None
        report = self.run_with_lock(root)
        assert report.ok and "RPA005" not in codes(report)

    def test_signature_change_without_update_fires(self, tmp_path):
        root = make_repo(tmp_path, self.FILES)
        spec = ArchSpec.load(root / SPEC_FILENAME)
        write_lock(build_project(root, spec), root / LOCK_FILENAME)
        (root / "src/repro/core/__init__.py").write_text(
            "def explore(table, outcome, k=5, depth=None):\n    return []\n"
            '__all__ = ["explore"]\n',
            encoding="utf-8",
        )
        report = self.run_with_lock(root)
        drift = [f for f in report.findings if f.code == "RPA005"]
        assert drift and "explore" in drift[0].message
        assert "--update-lock" in drift[0].message or "lock" in drift[0].message

    def test_new_export_without_update_fires(self, tmp_path):
        root = make_repo(tmp_path, self.FILES)
        spec = ArchSpec.load(root / SPEC_FILENAME)
        write_lock(build_project(root, spec), root / LOCK_FILENAME)
        (root / "src/repro/core/__init__.py").write_text(
            "def explore(table, outcome, k=5):\n    return []\n"
            "def extra():\n    return 1\n"
            '__all__ = ["explore", "extra"]\n',
            encoding="utf-8",
        )
        project = build_project(root, ArchSpec.load(root / SPEC_FILENAME))
        findings = check_lock(project, root / LOCK_FILENAME)
        assert any("extra" in f.message for f in findings)


class TestConfigContract:
    CONFIG = """\
    import dataclasses

    @dataclasses.dataclass
    class ExploreConfig:
        alpha: float = 0.1
        beta: int = 2
        obs: object = None

        def to_dict(self):
            return {
                f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
                if f.name not in ("obs",)
            }

        @classmethod
        def from_dict(cls, data):
            return cls(**data)

        def fingerprint(self):
            return "x"

    _FIELD_NAMES = frozenset(
        f.name for f in dataclasses.fields(ExploreConfig)
    )
    _SERIALIZED_FIELDS = frozenset(_FIELD_NAMES - {"obs"})
    """
    CLI = """\
    from repro.core.config import ExploreConfig

    def _explore_config(args):
        return ExploreConfig.from_dict(
            {"alpha": args.alpha, "beta": args.beta}
        )
    """
    SPEC = BASE_SPEC + textwrap.dedent("""
        [[exemptions.config-field]]
        name = "obs"
        reason = "runtime collector"
    """)

    def repo(self, tmp_path, config=None, cli=None, spec=None):
        return make_repo(tmp_path, {
            "src/repro/core/__init__.py": "",
            "src/repro/core/config.py": config or self.CONFIG,
            "src/repro/cli.py": cli or self.CLI,
        }, spec=spec or self.SPEC)

    def test_consistent_contract_is_clean(self, tmp_path):
        assert "RPA006" not in codes(run_arch(self.repo(tmp_path)))

    def test_missing_cli_key_fires(self, tmp_path):
        cli = self.CLI.replace(', "beta": args.beta', "")
        report = run_arch(self.repo(tmp_path, cli=cli))
        hits = [f for f in report.findings if f.code == "RPA006"]
        assert hits and "beta" in hits[0].message

    def test_exclusion_skew_fires(self, tmp_path):
        config = self.CONFIG.replace('("obs",)', '("obs", "beta")')
        report = run_arch(self.repo(tmp_path, config=config))
        assert any(
            f.code == "RPA006" and "disagree" in f.message
            for f in report.findings
        )

    def test_unexempted_exclusion_fires(self, tmp_path):
        report = run_arch(self.repo(tmp_path, spec=BASE_SPEC))
        assert any(
            f.code == "RPA006" and "'obs'" in f.message
            for f in report.findings
        )


class TestObsNames:
    SRC = {
        "src/repro/core/__init__.py": (
            "def run(obs):\n"
            '    obs.count("mining.real_counter")\n'
            '    with obs.span("explore"):\n'
            "        pass\n"
        ),
    }

    def test_asserted_and_emitted_is_clean(self, tmp_path):
        root = make_repo(tmp_path, {
            **self.SRC,
            "tests/test_obs_use.py": (
                "def test_counts(obs):\n"
                '    assert obs.counter("mining.real_counter") > 0\n'
            ),
        })
        assert "RPA007" not in codes(run_arch(root))

    def test_asserted_never_emitted_fires(self, tmp_path):
        root = make_repo(tmp_path, {
            **self.SRC,
            "tests/test_obs_use.py": (
                "def test_counts(obs):\n"
                '    assert obs.counter("mining.phantom") > 0\n'
            ),
        })
        report = run_arch(root)
        hits = [f for f in report.findings if f.code == "RPA007"]
        assert hits and "mining.phantom" in hits[0].message

    def test_absence_assertion_is_skipped(self, tmp_path):
        root = make_repo(tmp_path, {
            **self.SRC,
            "tests/test_obs_use.py": (
                "def test_counts(obs):\n"
                '    assert obs.counter("mining.phantom") == 0\n'
            ),
        })
        assert "RPA007" not in codes(run_arch(root))

    def test_locally_emitted_name_is_in_scope(self, tmp_path):
        root = make_repo(tmp_path, {
            **self.SRC,
            "tests/test_obs_use.py": (
                "def test_counts(obs):\n"
                '    obs.count("test.only_local")\n'
                '    assert obs.counter("test.only_local") == 1\n'
            ),
        })
        assert "RPA007" not in codes(run_arch(root))


class TestSchemaVersions:
    def test_declared_version_is_clean(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": 'SCHEMA = "repro.obs/foo@2"\n',
            "benchmark_results/out.json": '{"schema": "repro.obs/foo@2"}\n',
        })
        assert "RPA008" not in codes(run_arch(root))

    def test_undeclared_version_fires(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": 'SCHEMA = "repro.obs/foo@2"\n',
            "tests/test_foo.py": 'EXPECTED = "repro.obs/foo@3"\n',
        })
        report = run_arch(root)
        assert any(
            f.code == "RPA008" and "foo@3" in f.message
            for f in report.findings
        )

    def test_stale_json_fixture_fires_but_jsonl_history_passes(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": (
                'OLD = "repro.obs/foo@1"\nNEW = "repro.obs/foo@2"\n'
            ),
            "benchmark_results/snap.json": '{"schema": "repro.obs/foo@1"}\n',
            "benchmark_results/hist.jsonl": '{"schema": "repro.obs/foo@1"}\n',
        })
        report = run_arch(root)
        stale = [f for f in report.findings if f.code == "RPA008"]
        assert len(stale) == 1 and "snap.json" in stale[0].path


class TestDeprecations:
    SHIM = (
        "import warnings\n"
        "def old(x):\n"
        '    warnings.warn("old is deprecated", DeprecationWarning)\n'
        "    return x\n"
    )

    def test_unregistered_shim_fires(self, tmp_path):
        root = make_repo(tmp_path, {"src/repro/core/legacy.py": self.SHIM,
                                    "src/repro/core/__init__.py": ""})
        report = run_arch(root)
        hits = [f for f in report.findings if f.code == "RPA009"]
        assert hits and "repro.core.legacy:old" in hits[0].message

    def spec_with(self, remove_by_pr: int) -> str:
        return BASE_SPEC + textwrap.dedent(f"""
            [[deprecations]]
            site = "repro.core.legacy:old"
            reason = "legacy entry point"
            remove_by_pr = {remove_by_pr}
        """)

    def test_registered_future_horizon_is_clean(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/legacy.py": self.SHIM,
            "src/repro/core/__init__.py": "",
        }, spec=self.spec_with(12))
        report = run_arch(root)
        assert report.ok
        assert not codes(report) & {"RPA009", "RPA010"}

    def test_overdue_shim_fires(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/legacy.py": self.SHIM,
            "src/repro/core/__init__.py": "",
        }, spec=self.spec_with(5))
        report = run_arch(root)
        hits = [f for f in report.findings if f.code == "RPA010"]
        assert hits and "PR 5" in hits[0].message

    def shim_repo(self, tmp_path, remove_by_pr, changes):
        return make_repo(tmp_path, {
            "src/repro/core/legacy.py": self.SHIM,
            "src/repro/core/__init__.py": "",
        }, spec=self.spec_with(remove_by_pr), changes=changes)

    def test_changelog_past_the_horizon_fires(self, tmp_path):
        changes = "- PR 39: one change\nPR 40 — a later one\n"
        report = run_arch(self.shim_repo(tmp_path, 35, changes))
        hits = [f for f in report.findings if f.code == "RPA010"]
        assert hits and "PR 35" in hits[0].message
        assert "CHANGES.md is 40" in hits[0].message

    def test_changelog_before_the_horizon_is_clean(self, tmp_path):
        # Only a line that begins with "PR <n>" numbers an entry.
        changes = "- PR 30: one change, due before PR 99\nsee PR 50\n"
        report = run_arch(self.shim_repo(tmp_path, 35, changes))
        assert not codes(report) & {"RPA009", "RPA010"}

    def test_no_changelog_means_pr_0(self, tmp_path):
        root = self.shim_repo(tmp_path, 1, changes=None)
        assert current_pr(root) == 0
        assert not codes(run_arch(root)) & {"RPA009", "RPA010"}

    def test_current_pr_key_is_rejected(self, tmp_path):
        (tmp_path / SPEC_FILENAME).write_text(
            "current_pr = 7\n" + BASE_SPEC, encoding="utf-8"
        )
        with pytest.raises(ValueError, match="current_pr"):
            ArchSpec.load(tmp_path / SPEC_FILENAME)

    def test_registration_without_site_fires(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": "",
        }, spec=self.spec_with(12))
        report = run_arch(root)
        hits = [f for f in report.findings if f.code == "RPA010"]
        assert hits and "no such warn site" in hits[0].message


class TestSpecAndReporting:
    def test_missing_spec_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ArchSpec.load(tmp_path / SPEC_FILENAME)

    def test_unknown_spec_key_raises(self, tmp_path):
        (tmp_path / SPEC_FILENAME).write_text("typo_key = 1\n")
        with pytest.raises(ValueError, match="typo_key"):
            ArchSpec.load(tmp_path / SPEC_FILENAME)

    def test_unknown_exemption_category_raises(self):
        with pytest.raises(ValueError, match="category"):
            ArchSpec.from_dict(
                {"exemptions": {"nonsense": [{"name": "x", "reason": "y"}]}}
            )

    def test_reporters_render_arch_reports(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/core/__init__.py": "Y = 2\n",
            "src/repro/tabular/__init__.py": "from repro.core import Y\nZ = Y\n",
        })
        report = run_arch(root)
        text = render_text(report, tool="reproarch")
        assert text.startswith("src/repro/tabular")
        assert "reproarch:" in text
        payload = render_json(report)
        assert '"RPA001"' in payload and '"tool": "reproarch"' in payload

    def test_graph_renders_text_and_dot(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/tabular/__init__.py": "X = 1\n",
            "src/repro/core/__init__.py": "from repro.tabular import X\nY = X\n",
        })
        spec = ArchSpec.load(root / SPEC_FILENAME)
        project = build_project(root, spec)
        text = render_graph(project)
        assert "core" in text and "tabular" in text
        dot = render_graph(project, fmt="dot")
        assert dot.startswith("digraph") and '"core" -> "tabular"' in dot
