"""Byte digests of ``mine()`` and of cold explorer runs over a fixed sweep.

A change that must not change the pipeline's output is checked by
running this script on the old and the new tree and comparing the two
outputs line by line. Each setting prints three lines:

* ``mine``: the itemset count, then a sha256 over the shape, dtype and
  bytes of the ``ids``, ``count``, ``n``, ``total`` and ``total_sq``
  columns, and the sorted ``mining.*`` and ``polarity.*`` counters,
  the per-level ones included;
* ``explore``: the subgroup count of a cold
  ``HDivExplorer(config).explore(...)``, then a sha256 over the shape,
  dtype and bytes of the result's ``ids``, ``count``, ``support``,
  ``mean``, ``divergence`` and ``t`` columns, the items of its Γ
  (every hierarchy, roots included, thresholds by their exact repr),
  and the sorted ``mining.*``, ``polarity.*`` and ``discretize.*``
  counters;
* ``derive``: an ``ExploreSession`` explores at the setting's support
  ``s``, then at ``min(1.0, 2·s)``, which it derives from the first
  result without mining; the subgroup count of that second result,
  then a sha256 over the same six columns and the second call's sorted
  ``mining.*``, ``polarity.*`` and ``session.*`` counters.

The settings are perfbench's four query shapes, the Fig-2 cells at
s=0.05 (bench sizes), folktables at 40,000 rows with and without
polarity pruning, and adult and compas. ``mine`` runs over the
universe of ``ExploreSession(...).universe(0.1, "divergence")``: tree
discretization at ``tree_support=0.1`` of the continuous attributes
without a predefined hierarchy, then the generalized universe, as a
cold H-DivExplorer query builds it.

``benchmarks/work_counters.py`` (``make counter-gate``) runs the same
settings through :func:`cold_explore` and :func:`session_derive` and
prints their counters in the clear instead of hashing them.

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

from repro import ExploreConfig, ExploreSession, HDivExplorer  # noqa: E402
from repro.core.mining import mine  # noqa: E402
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

MINED_COLUMNS = ("ids", "count", "n", "total", "total_sq")
RESULT_COLUMNS = ("ids", "count", "support", "mean", "divergence", "t")
MINE_COUNTERS = ("mining.", "polarity.")
EXPLORE_COUNTERS = ("mining.", "polarity.", "discretize.")
DERIVE_COUNTERS = ("mining.", "polarity.", "session.")


def digest(
    columnar, columns: tuple[str, ...], counters: dict,
    prefixes: tuple[str, ...], lines: tuple[str, ...] = (),
) -> str:
    """sha256 over named columns, extra lines and prefixed counters."""
    h = hashlib.sha256()
    for name in columns:
        column = np.ascontiguousarray(getattr(columnar, name))
        h.update(f"{name} {column.shape} {column.dtype}\n".encode())
        h.update(column.tobytes())
    for line in lines:
        h.update(f"{line}\n".encode())
    for name, value in sorted(counters.items()):
        if name.startswith(prefixes):
            h.update(f"{name}={value!r}\n".encode())
    return h.hexdigest()


def gamma_lines(gamma) -> tuple[str, ...]:
    """Every item of Γ, thresholds by their exact float repr."""
    return tuple(
        f"{item!r} {getattr(item, 'low', '')!r} {getattr(item, 'high', '')!r}"
        for item in gamma.all_items(include_roots=True)
    )


def setting_label(
    dataset: str, rows: int, min_support: float, polarity: bool
) -> str:
    return (
        f"{dataset} rows={rows} s={min_support} "
        f"polarity={'on' if polarity else 'off'}"
    )


def load(dataset: str, rows: int) -> tuple:
    """``(features, outcome values, hierarchies)`` of one setting."""
    ds = load_dataset(dataset, n_rows=rows)
    return ds.features(), ds.outcome().values(ds.table), ds.hierarchies


def cold_explore(data: tuple, min_support: float, polarity: bool):
    """A cold ``HDivExplorer`` query: ``(result, explorer, collector)``."""
    table, outcome, hierarchies = data
    obs = ObsCollector()
    explorer = HDivExplorer(
        ExploreConfig(min_support=min_support, polarity=polarity, obs=obs)
    )
    return explorer.explore(table, outcome, hierarchies), explorer, obs


def session_derive(data: tuple, min_support: float, polarity: bool):
    """A session query at ``min(1.0, 2·s)``, derived from the one mined
    at ``s``: ``(result, collector of the second query)``."""
    table, outcome, hierarchies = data
    session = ExploreSession(table, outcome, hierarchies=hierarchies)
    session.explore(min_support=min_support, polarity=polarity)
    obs = ObsCollector()
    derived = session.explore(ExploreConfig(
        min_support=min(1.0, 2 * min_support), polarity=polarity, obs=obs,
    ))
    return derived, obs


def main() -> int:
    for dataset, rows, queries in SETTINGS:
        data = load(dataset, rows)
        table, outcome, hierarchies = data
        universe = ExploreSession(
            table, outcome, hierarchies=hierarchies
        ).universe(0.1, "divergence")
        for min_support, polarity in queries:
            label = setting_label(dataset, rows, min_support, polarity)
            obs = ObsCollector()
            mined = mine(universe, min_support, obs=obs, polarity=polarity)
            sha = digest(mined, MINED_COLUMNS, obs.counters, MINE_COUNTERS)
            print(f"{label} itemsets={len(mined)} sha256={sha}", flush=True)

            result, explorer, obs = cold_explore(data, min_support, polarity)
            sha = digest(
                result, RESULT_COLUMNS, obs.counters, EXPLORE_COUNTERS,
                gamma_lines(explorer.last_hierarchies_),
            )
            print(
                f"{label} explore subgroups={len(result)} sha256={sha}",
                flush=True,
            )

            derived, obs = session_derive(data, min_support, polarity)
            sha = digest(derived, RESULT_COLUMNS, obs.counters, DERIVE_COUNTERS)
            print(
                f"{label} derive subgroups={len(derived)} sha256={sha}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
