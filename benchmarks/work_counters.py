"""The exact work the pipeline does over ``mine_digests.py``'s sweep.

For every setting of :data:`mine_digests.SETTINGS` this runs the same
two queries as ``make mine-digests``: a cold ``HDivExplorer`` query and
an ``ExploreSession`` query derived at ``min(1.0, 2·s)`` from the one
mined at ``s``. For each it prints the subgroup count and then every
``mining.*``, ``polarity.*``, ``discretize.*`` and ``session.*``
counter, one sorted ``name=value`` per line:

    german rows=1000 s=0.1 polarity=off explore subgroups=…
    german rows=1000 s=0.1 polarity=off explore mining.candidates=…

The output holds integers only, so it is the same on every host.
``benchmark_results/work_counters.txt`` holds it, and ``make
counter-gate`` diffs a fresh run against that file: tree splits tried,
candidates and pruned pairs per lattice level, cache hits — any change
in the work done fails the gate and names the counter. A change that
alters the work on purpose regenerates the file and says why.

Usage::

    PYTHONPATH=src python benchmarks/work_counters.py   # or: make counter-gate
"""

from __future__ import annotations

# Imported first: it pins BLAS to one thread before numpy loads.
from mine_digests import (
    SETTINGS,
    cold_explore,
    load,
    session_derive,
    setting_label,
)

COUNTERS = ("mining.", "polarity.", "discretize.", "session.")


def work_lines(label: str, subgroups: int, counters: dict) -> list[str]:
    """The subgroup count, then the gated counters, one per line."""
    return [f"{label} subgroups={subgroups}"] + [
        f"{label} {name}={counters[name]}"
        for name in sorted(counters)
        if name.startswith(COUNTERS)
    ]


def main() -> int:
    for dataset, rows, queries in SETTINGS:
        data = load(dataset, rows)
        for min_support, polarity in queries:
            label = setting_label(dataset, rows, min_support, polarity)
            result, _, obs = cold_explore(data, min_support, polarity)
            lines = work_lines(f"{label} explore", len(result), obs.counters)
            derived, obs = session_derive(data, min_support, polarity)
            lines += work_lines(f"{label} derive", len(derived), obs.counters)
            print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
