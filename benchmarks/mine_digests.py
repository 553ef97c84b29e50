"""Byte digests of ``mine()`` over a fixed sweep of dataset settings.

A change to the mining engine that must not change its output is
checked by running this script on the old and the new tree and
comparing the two outputs line by line. It prints one line per
setting: the itemset count, then a sha256 over

* the shape, dtype and bytes of the ``ids``, ``count``, ``n``,
  ``total`` and ``total_sq`` columns, and
* the sorted ``mining.*`` and ``polarity.*`` counters, the per-level
  ones included.

The settings are perfbench's four query shapes, the Fig-2 cells at
s=0.05 (bench sizes), folktables at 40,000 rows with and without
polarity pruning, and adult and compas. Each universe is built like a
cold H-DivExplorer query: tree discretization at ``tree_support=0.1``
of the continuous attributes without a predefined hierarchy, then the
generalized universe.

BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is already
set: with two, folktables' numeric ``total`` bytes differ from a
one-thread run, so the digests of two trees are comparable only at one
thread count.

Usage::

    PYTHONPATH=src python benchmarks/mine_digests.py   # or: make mine-digests
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from repro import ExploreConfig, HDivExplorer, HierarchySet  # noqa: E402
from repro.core.mining import generalized_universe, mine  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.obs import ObsCollector  # noqa: E402

#: ``(dataset, rows, ((min_support, polarity), ...))``.
SETTINGS = (
    ("german", 1_000, ((0.1, False), (0.05, False))),
    ("folktables", 195_665, ((0.1, False),)),
    ("wine", 5_000, ((0.1, True), (0.05, False))),
    ("intentions", 6_000, ((0.1, False), (0.15, False), (0.05, False))),
    ("bank", 12_000, ((0.05, False),)),
    ("folktables", 40_000, ((0.1, False), (0.1, True))),
    ("adult", 12_000, ((0.05, False),)),
    ("compas", 6_172, ((0.05, False),)),
)

COLUMNS = ("ids", "count", "n", "total", "total_sq")
COUNTER_PREFIXES = ("mining.", "polarity.")


def build_universe(dataset: str, rows: int):
    """The generalized universe of a cold query over ``dataset``."""
    ds = load_dataset(dataset, n_rows=rows)
    table = ds.features()
    outcome = ds.outcome().values(ds.table)
    gamma = HierarchySet(ds.hierarchies)
    continuous = [a for a in table.continuous_names if a not in gamma]
    explorer = HDivExplorer(ExploreConfig(tree_support=0.1))
    for hierarchy in explorer.discretize(table, outcome, continuous):
        gamma.add(hierarchy)
    return generalized_universe(table, outcome, gamma)


def digest(mined, counters: dict) -> str:
    """sha256 over the mined columns and the mining counters."""
    h = hashlib.sha256()
    for name in COLUMNS:
        column = np.ascontiguousarray(getattr(mined, name))
        h.update(f"{name} {column.shape} {column.dtype}\n".encode())
        h.update(column.tobytes())
    for name, value in sorted(counters.items()):
        if name.startswith(COUNTER_PREFIXES):
            h.update(f"{name}={value!r}\n".encode())
    return h.hexdigest()


def main() -> int:
    for dataset, rows, queries in SETTINGS:
        universe = build_universe(dataset, rows)
        for min_support, polarity in queries:
            obs = ObsCollector()
            mined = mine(universe, min_support, obs=obs, polarity=polarity)
            print(
                f"{dataset} rows={rows} s={min_support} "
                f"polarity={'on' if polarity else 'off'} "
                f"itemsets={len(mined)} sha256={digest(mined, obs.counters)}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
