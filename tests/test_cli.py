"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.datasets import german
from repro.tabular import write_csv


@pytest.fixture(scope="module")
def german_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "german.csv"
    write_csv(german(n_rows=400).table, path)
    return str(path)


def test_datasets_lists_all(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("compas", "folktables", "synthetic-peak", "wine"):
        assert name in out


def test_generate(tmp_path, capsys):
    out_path = tmp_path / "peak.csv"
    assert main(
        ["generate", "synthetic-peak", "--out", str(out_path), "--rows", "200"]
    ) == 0
    assert out_path.exists()
    assert "200 rows" in capsys.readouterr().out


def test_explore_hierarchical(german_csv, capsys):
    code = main(
        [
            "explore", german_csv, "--kind", "error",
            "--y-true", "label", "--y-pred", "pred",
            "--support", "0.2", "--top", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hierarchical exploration" in out
    assert "Δ=" in out


def test_explore_n_jobs_warns_and_prints_serial_output(german_csv, capsys):
    args = [
        "explore", german_csv, "--kind", "error",
        "--y-true", "label", "--y-pred", "pred",
        "--support", "0.2", "--top", "5",
    ]
    assert main(args) == 0
    serial = capsys.readouterr().out.splitlines()
    with pytest.warns(DeprecationWarning, match="n_jobs"):
        assert main(args + ["--n-jobs", "2"]) == 0
    deprecated = capsys.readouterr().out.splitlines()
    # Only the headline's elapsed seconds may differ.
    assert deprecated[0].rsplit(",", 1)[0] == serial[0].rsplit(",", 1)[0]
    assert deprecated[1:] == serial[1:]


def test_explore_rejects_negative_top(german_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "explore", german_csv, "--kind", "error",
                "--y-true", "label", "--y-pred", "pred",
                "--support", "0.2", "--top", "-1",
            ]
        )
    assert exc.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_explore_base(german_csv, capsys):
    code = main(
        [
            "explore", german_csv, "--kind", "error",
            "--y-true", "label", "--y-pred", "pred",
            "--support", "0.2", "--base", "--top", "2",
        ]
    )
    assert code == 0
    assert "base (leaf items)" in capsys.readouterr().out


def test_discretize(german_csv, capsys):
    code = main(
        [
            "discretize", german_csv, "--attribute", "age",
            "--kind", "error", "--y-true", "label", "--y-pred", "pred",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("age=*")


def test_discretize_rejects_categorical(german_csv):
    with pytest.raises(SystemExit):
        main(
            [
                "discretize", german_csv, "--attribute", "housing",
                "--kind", "error", "--y-true", "label", "--y-pred", "pred",
            ]
        )


def test_numeric_kind_requires_column(german_csv):
    with pytest.raises(SystemExit):
        main(["explore", german_csv, "--kind", "numeric"])


def test_rate_kind_requires_labels(german_csv):
    with pytest.raises(SystemExit):
        main(["explore", german_csv, "--kind", "fpr"])


def test_explore_numeric_outcome(german_csv, capsys):
    code = main(
        [
            "explore", german_csv, "--kind", "numeric",
            "--column", "credit_amount", "--support", "0.2", "--top", "2",
        ]
    )
    assert code == 0
    assert "frequent subgroups" in capsys.readouterr().out


def test_explore_progress_and_run_log(german_csv, tmp_path, capsys):
    from repro.obs.runlog import read_run_log, validate_run_log

    log = tmp_path / "run.jsonl"
    code = main(
        [
            "explore", german_csv, "--kind", "error",
            "--y-true", "label", "--y-pred", "pred",
            "--support", "0.2", "--top", "3",
            "--progress", "--run-log", str(log),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "wrote run log to" in captured.out
    # Progress lines render on stderr, ending with the finished form.
    assert "done in" in captured.err
    records = read_run_log(log)
    assert validate_run_log(records) == []
    kinds = {r["kind"] for r in records[1:]}
    assert {"span_open", "span_close", "progress"} <= kinds


def test_explore_deadline_cancels_with_exit_3(german_csv, tmp_path, capsys):
    from repro.obs.runlog import read_run_log, validate_run_log

    log = tmp_path / "cancelled.jsonl"
    code = main(
        [
            "explore", german_csv, "--kind", "error",
            "--y-true", "label", "--y-pred", "pred",
            "--support", "0.2",
            "--deadline", "0.000001", "--run-log", str(log),
        ]
    )
    assert code == 3
    assert "run cancelled" in capsys.readouterr().err
    # The partial run log is valid and records the cancellation (the
    # root span unwind still appends its counters snapshot after it).
    records = read_run_log(log)
    assert validate_run_log(records) == []
    assert "cancelled" in {r["kind"] for r in records[1:]}


def test_explore_deadline_generous_budget_completes(german_csv, capsys):
    code = main(
        [
            "explore", german_csv, "--kind", "error",
            "--y-true", "label", "--y-pred", "pred",
            "--support", "0.2", "--top", "3", "--deadline", "600",
        ]
    )
    assert code == 0
    assert "hierarchical exploration" in capsys.readouterr().out


def _sweep_args(csv, param, values):
    return [
        "sweep", csv, "--kind", "error",
        "--y-true", "label", "--y-pred", "pred",
        "--support", "0.2", "--param", param, "--values", values,
    ]


@pytest.mark.parametrize(
    "param,values,bad",
    [
        ("polarity", "true,tru", "tru"),
        ("max_length", "2,2.5", "2.5"),
        ("min_support", "0.2,abc", "abc"),
    ],
)
def test_sweep_rejects_unparseable_values(
    german_csv, capsys, param, values, bad
):
    with pytest.raises(SystemExit) as exc:
        main(_sweep_args(german_csv, param, values))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro sweep")
    assert f"cannot parse '{bad}' as {param}" in err


def test_sweep_polarity_accepts_boolean_words(german_csv, capsys):
    assert main(_sweep_args(german_csv, "polarity", "TRUE,no,Yes,0")) == 0
    points = [
        line.split(":")[0] for line in capsys.readouterr().out.splitlines()
        if line.startswith("polarity=")
    ]
    assert points == [
        "polarity=True", "polarity=False", "polarity=True", "polarity=False"
    ]


def test_sweep_prints_cache_traffic_only_when_measured(
    german_csv, tmp_path, capsys
):
    args = _sweep_args(german_csv, "min_support", "0.2,0.3")
    assert main(args) == 0
    assert "cache" not in capsys.readouterr().out
    assert main(args + ["--trace", str(tmp_path / "trace.json")]) == 0
    points = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("min_support=")
    ]
    # The first point fills the session cache; the second derives from
    # the counters mined for the first.
    first = re.search(r"cache (\d+) hits / (\d+) misses$", points[0])
    second = re.search(r"cache (\d+) hits / (\d+) misses$", points[1])
    assert first and int(first[1]) == 0 and int(first[2]) > 0
    assert second and int(second[1]) > 0 and int(second[2]) == 0
