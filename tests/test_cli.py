"""Tests for the command-line interface."""

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
