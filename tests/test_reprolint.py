"""Unit tests for the reprolint static analyzer (repro.devtools).

Each rule is exercised on seeded fixture snippets — one that must fire
and one that must stay silent — plus coverage of path scoping, the
suppression pragmas, the baseline round-trip, the reporters and the
CLI exit-code contract.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools import Baseline, LintRunner
from repro.devtools.lint import main
from repro.devtools.model import Severity, all_rules, get_rule
from repro.devtools.reporting import render_json, render_text
from repro.devtools.suppressions import parse_suppressions

LIB_PATH = "src/repro/somemodule.py"


def lint(source: str, path: str = LIB_PATH) -> list:
    runner = LintRunner(root=Path("."))
    return runner.check_source(textwrap.dedent(source), path)


def codes(source: str, path: str = LIB_PATH) -> list[str]:
    return [f.code for f in lint(source, path)]


class TestRegistry:
    def test_thirteen_repo_rules_registered(self):
        rules = all_rules()
        assert len(rules) >= 13
        assert [r.code for r in rules] == sorted(r.code for r in rules)

    def test_codes_names_and_rationales_unique_and_set(self):
        rules = all_rules()
        assert len({r.code for r in rules}) == len(rules)
        assert len({r.name for r in rules}) == len(rules)
        for rule in rules:
            assert rule.rationale, rule.code
            assert rule.severity in (Severity.ERROR, Severity.WARNING)

    def test_get_rule(self):
        assert get_rule("RPL001").name == "forbidden-import"


class TestForbiddenImport:
    def test_flags_banned_imports(self):
        src = """\
        import pandas as pd
        from sklearn.tree import DecisionTreeClassifier
        import urllib.request
        """
        assert codes(src) == ["RPL001", "RPL001", "RPL001"]

    def test_allows_numpy_and_stdlib(self):
        assert codes("import numpy as np\nimport math\nimport json\n") == []


class TestGlobalRng:
    def test_flags_numpy_global_rng_calls(self):
        src = """\
        import numpy as np
        np.random.seed(0)
        xs = np.random.rand(5)
        """
        assert codes(src) == ["RPL002", "RPL002"]

    def test_flags_stdlib_random(self):
        assert codes("import random\nrandom.shuffle(xs)\n") == ["RPL002"]
        assert codes("from random import choice\n") == ["RPL002"]

    def test_allows_injected_generator(self):
        src = """\
        import numpy as np
        rng = np.random.default_rng(7)
        rng.shuffle(xs)
        g = np.random.Generator(np.random.SeedSequence(1).generate_state)
        """
        assert codes(src) == []


class TestMutableDefault:
    def test_flags_literals_and_constructors(self):
        src = """\
        def f(xs=[]):
            return xs

        def g(*, m={}, s=set()):
            return m, s
        """
        assert codes(src) == ["RPL003", "RPL003", "RPL003"]

    def test_allows_none_and_immutables(self):
        src = """\
        def f(xs=None, t=(), s="x", n=3):
            return xs
        """
        assert codes(src) == []


class TestBareExcept:
    def test_flags_bare_except(self):
        src = """\
        try:
            run()
        except:
            pass
        """
        assert codes(src) == ["RPL004"]

    def test_allows_typed_except(self):
        src = """\
        try:
            run()
        except ValueError:
            pass
        """
        assert codes(src) == []


class TestAssertInLibrary:
    SRC = "def f(x):\n    assert x > 0\n    return x\n"

    def test_flags_assert_in_src(self):
        assert codes(self.SRC) == ["RPL005"]

    def test_scoped_out_of_benchmarks(self):
        assert codes(self.SRC, path="benchmarks/bench_thing.py") == []


class TestFloatEquality:
    DIV_PATH = "src/repro/core/divergence.py"

    def test_flags_float_literal_comparison(self):
        assert codes("ok = x == 0.5\n", path=self.DIV_PATH) == ["RPL006"]
        assert codes("ok = x != 1.0\n", path=self.DIV_PATH) == ["RPL006"]

    def test_int_and_ordering_comparisons_fine(self):
        assert codes("ok = x == 0\nlt = x <= 0.5\n", path=self.DIV_PATH) == []

    def test_scoped_to_divergence_sensitive_modules(self):
        assert codes("ok = x == 0.5\n", path="src/repro/tabular/table.py") == []
        bitset = "src/repro/core/mining/bitset.py"
        assert codes("ok = x == 0.5\n", path=bitset) == ["RPL006"]


class TestFrozenMutation:
    def test_flags_setattr_backdoor_and_self_assignment(self):
        src = """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Cfg:
            x: int = 0

            def bump(self):
                object.__setattr__(self, "x", self.x + 1)

            def sneak(self):
                self.x = 5
        """
        assert codes(src) == ["RPL007", "RPL007"]

    def test_post_init_and_unfrozen_are_fine(self):
        src = """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Cfg:
            x: int = 0

            def __post_init__(self):
                object.__setattr__(self, "x", abs(self.x))

        @dataclass
        class Mutable:
            y: int = 0

            def bump(self):
                self.y += 1
        """
        assert codes(src) == []


class TestForkUnsafeState:
    def test_flags_mutable_globals_in_mp_modules(self):
        src = """\
        import multiprocessing

        _CACHE = {}
        _QUEUE: list = []
        """
        assert codes(src) == ["RPL008", "RPL008"]

    def test_none_sentinel_and_non_mp_modules_fine(self):
        mp_ok = "import multiprocessing\n_ENGINE = None\nLIMIT = 4\n"
        plain = "_CACHE = {}\n"
        assert codes(mp_ok) == []
        assert codes(plain) == []


class TestSetIteration:
    def test_flags_direct_set_iteration(self):
        src = """\
        for x in {1, 2, 3}:
            emit(x)
        ys = [f(y) for y in set(xs)]
        """
        assert codes(src) == ["RPL009", "RPL009"]

    def test_sorted_and_membership_fine(self):
        src = """\
        for x in sorted(set(xs)):
            emit(x)
        ok = x in set(xs)
        """
        assert codes(src) == []


class TestWallClockTiming:
    def test_flags_time_time(self):
        src = "import time\nstart = time.time()\n"
        assert codes(src) == ["RPL010"]
        assert codes("from time import time\n") == ["RPL010"]

    def test_perf_counter_fine(self):
        assert codes("import time\nstart = time.perf_counter()\n") == []


class TestUntypedPublicApi:
    CFG_PATH = "src/repro/core/config.py"

    def test_flags_unannotated_public_function(self):
        found = codes("def api(x):\n    return x\n", path=self.CFG_PATH)
        assert found == ["RPL012", "RPL012"]  # parameter + return

    def test_annotated_and_private_fine(self):
        src = """\
        def api(x: int) -> int:
            return x

        def _helper(y):
            return y
        """
        assert codes(src, path=self.CFG_PATH) == []

    def test_scoped_to_typed_modules(self):
        assert codes("def api(x):\n    return x\n") == []


class TestPrintInLibrary:
    def test_flags_print_in_library_code(self):
        src = """\
        def mine(x):
            print("debug:", x)
            return x
        """
        assert codes(src) == ["RPL013"]

    def test_cli_and_lint_renderer_allowlisted(self):
        src = "print('hello')\n"
        assert codes(src, path="src/repro/cli.py") == []
        assert codes(src, path="src/repro/devtools/lint.py") == []
        assert codes(src, path="src/repro/experiments/paper.py") == []

    def test_shadowed_or_method_print_fine(self):
        src = """\
        class Writer:
            def print(self, text):
                return text

        def render(w):
            return w.print("x")
        """
        assert codes(src) == []

    def test_not_applied_outside_library(self):
        assert codes("print('x')\n", path="benchmarks/bench_x.py") == []


class TestParseError:
    def test_unparseable_module_yields_rpl000(self):
        found = lint("def broken(:\n")
        assert [f.code for f in found] == ["RPL000"]
        assert found[0].severity is Severity.ERROR


class TestSuppressions:
    def test_same_line_pragma(self):
        src = "import time\nstart = time.time()  # reprolint: disable=RPL010\n"
        assert codes(src) == []

    def test_disable_next_line(self):
        src = (
            "import time\n"
            "# reprolint: disable-next-line=RPL010\n"
            "start = time.time()\n"
        )
        assert codes(src) == []

    def test_disable_file(self):
        src = (
            "# reprolint: disable-file=RPL010\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert codes(src) == []

    def test_wrong_code_does_not_suppress(self):
        src = "import time\nstart = time.time()  # reprolint: disable=RPL001\n"
        assert codes(src) == ["RPL010"]

    def test_multiple_codes_in_one_pragma(self):
        index = parse_suppressions(
            "x = 1  # reprolint: disable=RPL001, RPL010\n"
        )
        assert index.by_line[1] == {"RPL001", "RPL010"}


def _write_bad_module(root: Path) -> Path:
    pkg = root / "src" / "repro" / "badmod.py"
    pkg.parent.mkdir(parents=True, exist_ok=True)
    pkg.write_text(
        "import time\n"
        "def f(xs=[]):\n"
        "    assert xs\n"
        "    return time.time()\n",
        encoding="utf-8",
    )
    return pkg


class TestRunnerAndBaseline:
    def test_run_collects_sorted_findings(self, tmp_path):
        _write_bad_module(tmp_path)
        report = LintRunner(root=tmp_path).run([tmp_path / "src"])
        assert [f.code for f in report.findings] == [
            "RPL003", "RPL005", "RPL010",
        ]
        assert report.files_checked == 1
        assert not report.ok

    def test_baseline_round_trip_grandfathers_findings(self, tmp_path):
        _write_bad_module(tmp_path)
        first = LintRunner(root=tmp_path).run([tmp_path / "src"])
        baseline = Baseline.from_findings(first.findings)
        baseline.dump(tmp_path / ".reprolint.json")

        reloaded = Baseline.load(tmp_path / ".reprolint.json")
        second = LintRunner(root=tmp_path, baseline=reloaded).run(
            [tmp_path / "src"]
        )
        assert second.ok
        assert second.suppressed_baseline == len(first.findings)

    def test_fingerprints_survive_line_moves(self, tmp_path):
        path = _write_bad_module(tmp_path)
        first = LintRunner(root=tmp_path).run([tmp_path / "src"])
        path.write_text(
            "\n\n" + path.read_text(encoding="utf-8"), encoding="utf-8"
        )
        second = LintRunner(root=tmp_path).run([tmp_path / "src"])
        assert [f.fingerprint for f in first.findings] == [
            f.fingerprint for f in second.findings
        ]
        assert [f.line for f in first.findings] != [
            f.line for f in second.findings
        ]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "nope.json")) == 0

    def test_baseline_version_mismatch_rejected(self, tmp_path):
        bad = tmp_path / ".reprolint.json"
        bad.write_text('{"version": 99, "findings": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            Baseline.load(bad)


class TestReporters:
    def test_text_report_lists_findings_and_summary(self, tmp_path):
        _write_bad_module(tmp_path)
        report = LintRunner(root=tmp_path).run([tmp_path / "src"])
        text = render_text(report)
        assert "src/repro/badmod.py:2" in text
        assert "RPL003" in text
        assert "1 files" in text and "errors" in text

    def test_clean_text_report(self, tmp_path):
        report = LintRunner(root=tmp_path).run([])
        assert render_text(report).endswith("— clean")

    def test_json_report_round_trips(self, tmp_path):
        _write_bad_module(tmp_path)
        report = LintRunner(root=tmp_path).run([tmp_path / "src"])
        data = json.loads(render_json(report))
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert {f["code"] for f in data["findings"]} == {
            "RPL003", "RPL005", "RPL010",
        }
        assert all(f["fingerprint"] for f in data["findings"])


class TestCli:
    def test_exit_one_on_findings_then_zero_after_baseline(
        self, tmp_path, capsys
    ):
        _write_bad_module(tmp_path)
        argv = [str(tmp_path / "src"), "--root", str(tmp_path)]
        assert main(argv) == 1
        assert main(argv + ["--write-baseline"]) == 0
        assert main(argv) == 0
        assert main(argv + ["--no-baseline"]) == 1
        capsys.readouterr()

    def test_json_output_file(self, tmp_path, capsys):
        _write_bad_module(tmp_path)
        out = tmp_path / "reports" / "lint.json"
        code = main(
            [
                str(tmp_path / "src"),
                "--root", str(tmp_path),
                "--format", "json",
                "--output", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 1
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["ok"] is False

    def test_select_restricts_rules(self, tmp_path, capsys):
        _write_bad_module(tmp_path)
        code = main(
            [
                str(tmp_path / "src"),
                "--root", str(tmp_path),
                "--select", "RPL003",
                "--format", "json",
                "--output", str(tmp_path / "lint.json"),
            ]
        )
        capsys.readouterr()
        assert code == 1
        data = json.loads((tmp_path / "lint.json").read_text())
        assert {f["code"] for f in data["findings"]} == {"RPL003"}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPL012" in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "absent"), "--root", str(tmp_path)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_select_code_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(
                [str(tmp_path / "src"), "--root", str(tmp_path),
                 "--select", "RPL999"]
            )
        assert exc.value.code == 2
        capsys.readouterr()


class TestWallClockDatetime:
    def test_flags_datetime_now_and_friends(self):
        src = """\
        import datetime
        a = datetime.datetime.now()
        b = datetime.datetime.utcnow()
        c = datetime.date.today()
        """
        assert codes(src) == ["RPL014", "RPL014", "RPL014"]

    def test_flags_from_import_spelling(self):
        src = """\
        from datetime import datetime
        stamp = datetime.now()
        """
        assert codes(src) == ["RPL014"]

    def test_flags_aliased_import_that_would_dodge_the_match(self):
        src = "from datetime import datetime as dt\n"
        assert codes(src) == ["RPL014"]

    def test_constructing_datetimes_is_fine(self):
        src = """\
        from datetime import datetime, timezone, timedelta
        epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
        later = epoch + timedelta(seconds=5)
        parsed = datetime.fromisoformat("2026-01-01T00:00:00")
        """
        assert codes(src) == []

    def test_perf_counter_is_the_blessed_timer(self):
        src = """\
        import time
        start = time.perf_counter()
        elapsed = time.perf_counter() - start
        """
        assert codes(src) == []

    def test_scoped_to_library_code(self):
        src = "from datetime import datetime\nx = datetime.now()\n"
        assert codes(src, path="benchmarks/bench_x.py") == []
        assert codes(src, path="tests/test_x.py") == []

    def test_suppressible_for_metadata_timestamps(self):
        src = (
            "from datetime import datetime, timezone\n"
            "# reprolint: disable-next-line=RPL014\n"
            "stamp = datetime.now(timezone.utc).isoformat()\n"
        )
        assert codes(src) == []


class TestPipelineInternalConstruction:
    def test_flags_direct_internal_construction(self):
        src = """\
        from repro.core.discretize import TreeDiscretizer
        from repro.core.mining.bitset import BitsetEngine

        tree = TreeDiscretizer(0.1).fit(table, "age", outcome)
        engine = BitsetEngine(universe)
        """
        assert codes(src) == ["RPL015", "RPL015"]

    def test_flags_attribute_qualified_calls(self):
        src = """\
        import repro.core.mining.bitset as bitset
        engine = bitset.BitsetEngine(universe)
        """
        assert codes(src) == ["RPL015"]

    def test_front_doors_stay_callable(self):
        src = """\
        from repro import ExploreSession, HDivExplorer
        from repro.core.discretize import CombinedTreeDiscretizer
        from repro.core.mining.transactions import mine

        session = ExploreSession(table, outcome)
        result = session.explore(min_support=0.05)
        cold = HDivExplorer(min_support=0.05).explore(table, outcome)
        mined = mine(universe, 0.05, "bitset")
        combined = CombinedTreeDiscretizer(0.1).fit(table, outcome)
        """
        assert codes(src) == []

    def test_imports_alone_do_not_fire(self):
        src = """\
        from repro.core.discretize import TreeDiscretizer
        from repro.core.mining.bitset import BitsetEngine
        """
        assert codes(src) == []

    def test_core_tests_and_examples_are_exempt(self):
        src = """\
        from repro.core.discretize import TreeDiscretizer
        tree = TreeDiscretizer(0.1).fit(table, "age", outcome)
        """
        assert codes(src, path="src/repro/core/hexplorer.py") == []
        assert codes(src, path="tests/test_discretize.py") == []
        assert codes(src, path="examples/custom_tree.py") == []
        assert codes(src, path="benchmarks/bench_x.py") == ["RPL015"]

    def test_suppressible_with_justification(self):
        src = (
            "from repro.core.mining.bitset import BitsetEngine\n"
            "# reprolint: disable-next-line=RPL015 (cache probe)\n"
            "engine = BitsetEngine(universe)\n"
        )
        assert codes(src) == []


class TestCrashHook:
    def test_flags_excepthook_assignment_and_faulthandler(self):
        src = """\
        import faulthandler
        import sys

        def arm(hook):
            sys.excepthook = hook
            faulthandler.enable()
            faulthandler.register(10)
        """
        assert codes(src) == ["RPL018", "RPL018", "RPL018"]

    def test_non_installing_faulthandler_calls_stay_silent(self):
        src = """\
        import faulthandler

        def disarm():
            faulthandler.disable()
            return faulthandler.is_enabled()
        """
        assert codes(src) == []

    def test_bundle_module_and_tests_are_exempt(self):
        src = """\
        import sys

        def arm(hook):
            sys.excepthook = hook
        """
        assert codes(src, path="src/repro/obs/bundle.py") == []
        assert codes(src, path="tests/test_x.py") == []
        assert codes(src) == ["RPL018"]


class TestProfilerHook:
    def test_flags_trace_hooks_and_frame_reader(self):
        src = """\
        import sys
        import threading

        def hook(frame, event, arg):
            return None

        def profile_everything():
            sys.setprofile(hook)
            sys.settrace(hook)
            threading.setprofile(hook)
            threading.settrace(hook)
            return sys._current_frames()
        """
        assert codes(src) == ["RPL019"] * 5

    def test_other_sys_and_threading_calls_stay_silent(self):
        src = """\
        import sys
        import threading

        def fine():
            sys.setrecursionlimit(10_000)
            sys.settrace  # attribute access, not a call
            return threading.get_ident()
        """
        assert codes(src) == []

    def test_cpuprof_owner_and_tests_are_exempt(self):
        src = """\
        import sys

        def sample():
            return sys._current_frames()
        """
        assert codes(src, path="src/repro/obs/cpuprof.py") == []
        assert codes(src, path="tests/test_x.py") == []
        assert codes(src) == ["RPL019"]

    def test_pragma_suppresses(self):
        src = (
            "import sys\n"
            "frames = sys._current_frames()"
            "  # reprolint: disable=RPL019\n"
        )
        assert codes(src) == []
