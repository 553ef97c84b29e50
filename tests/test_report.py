"""Tests for the exploration report."""

import pytest

from repro.core.hexplorer import HDivExplorer
from repro.core.report import exploration_report


@pytest.fixture(scope="module")
def explored_pocket():
    import numpy as np

    from repro.tabular import Table

    rng = np.random.default_rng(5)
    n = 3000
    x = rng.uniform(-5, 5, n)
    cat = rng.choice(["a", "b"], n)
    p = np.where((x > 0) & (x <= 2) & (cat == "b"), 0.5, 0.05)
    o = (rng.uniform(size=n) < p).astype(float)
    table = Table({"x": x, "cat": cat})
    explorer = HDivExplorer(min_support=0.05, tree_support=0.1)
    result = explorer.explore(table, o)
    return result, explorer.last_hierarchies_


def test_report_sections(explored_pocket):
    result, hierarchies = explored_pocket
    text = exploration_report(result, hierarchies=hierarchies)
    assert "dataset statistic" in text
    assert "top positive-divergence subgroups" in text
    assert "top negative-divergence subgroups" in text
    assert "globally most influential items" in text
    assert "item hierarchies:" in text
    assert "x=*" in text  # rendered hierarchy root


def test_report_respects_k(explored_pocket):
    result, _ = explored_pocket
    one = exploration_report(result, k=1)
    five = exploration_report(result, k=5)
    assert len(five.splitlines()) > len(one.splitlines())


def test_report_scale(explored_pocket):
    result, _ = explored_pocket
    text = exploration_report(result, scale=1000.0)
    assert "scale: 1/1000" in text


def test_report_redundancy_pruning_shrinks(explored_pocket):
    result, _ = explored_pocket
    pruned = exploration_report(result, redundancy_epsilon=0.5)
    assert "top positive-divergence subgroups" in pruned


def test_report_validates_k(explored_pocket):
    result, _ = explored_pocket
    with pytest.raises(ValueError):
        exploration_report(result, k=0)


def test_cli_report(tmp_path, capsys):
    from repro.cli import main
    from repro.datasets import german
    from repro.tabular import write_csv

    path = tmp_path / "german.csv"
    write_csv(german(n_rows=400).table, path)
    code = main(
        [
            "report", str(path), "--kind", "error",
            "--y-true", "label", "--y-pred", "pred",
            "--support", "0.2", "--top", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Divergence report" in out
    assert "significant at FDR" in out
