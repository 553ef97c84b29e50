"""Workloads, inputs, output checks, timing and layer tracing for perfbench.

A workload is one H-DivExplorer query shape over one generated dataset.
One operation is one user query followed by ``top_k(10)``:

* a cold workload runs ``HDivExplorer(ExploreConfig(...)).explore``;
* a warm workload (``fill`` set) binds one :class:`ExploreSession`,
  fills its cache once during set-up and then runs
  ``session.explore(ExploreConfig(...))``.

Query configs never name ``backend`` or ``n_jobs``: the benchmark
measures what a user gets by default.

Each dataset is generated once at its generator's default seed and the
benchmark seed only permutes its rows. Generator seeds change the lattice
itself (german at s=0.1: 56,846 to 67,375 subgroups over seeds 23-25),
which would put a ±10 % work difference between runs; a row permutation
changes every input array but leaves the subgroups, their counts and
(up to float summation order) their divergences unchanged, so one
golden file checks every seed.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro import ExploreConfig, ExploreSession, HDivExplorer, HierarchySet
from repro.core.explorer import results_from_mined
from repro.core.mining import generalized_universe, mine
from repro.core.outcomes import coerce_outcome
from repro.core.polarity import mine_with_polarity
from repro.core.results import ResultSet, SubgroupResult
from repro.datasets import load_dataset
from repro.obs import ObsCollector
from repro.tabular import Table

TOP_K = 10

#: Relative tolerance on divergences checked against the golden file: a
#: different engine may sum floats in another order.
DIVERGENCE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``query`` and ``fill`` are :class:`ExploreConfig` fields. ``fill``
    is set on warm workloads: the session cache is filled with it during
    set-up. ``budget_s`` is the expected time of one query; a query
    taking more than three times as long counts as failed.
    """

    name: str
    dataset: str
    n_rows: int
    quick_rows: int
    query: dict
    budget_s: float
    fill: dict | None = None

    def quick(self) -> "Workload":
        """The workload shrunk for a fast self-check: fewer rows, and
        itemsets capped at two items (small tables have deep lattices)."""
        cap = {"max_length": 2}
        return replace(
            self, n_rows=self.quick_rows, query={**self.query, **cap},
            fill=None if self.fill is None else {**self.fill, **cap},
        )

    def cold_fields(self) -> dict:
        """Config of the cold pipeline this workload pays for.

        A cold query for cold workloads; the session fill for warm ones.
        """
        return self.fill if self.fill is not None else self.query


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Deepest lattice per row of the Fig-2 datasets: mining and
        # result materialization do nearly all the work.
        Workload(
            "german-deep", "german", 1_000, 300,
            {"min_support": 0.1, "tree_support": 0.1}, budget_s=5.0,
        ),
        # The paper's row count with a numeric outcome: mining over
        # 195k-row covers; the largest set-up and memory.
        Workload(
            "folktables-paper", "folktables", 195_665, 3_000,
            {"min_support": 0.1}, budget_s=10.0,
        ),
        # Fig-4 setting, the only polarity-pruning workload; 11 trees give
        # discretization its largest share.
        Workload(
            "wine-polarity", "wine", 5_000, 800,
            {"min_support": 0.1, "polarity": True}, budget_s=1.5,
        ),
        # Read side of the session cache: queries derive from counters
        # mined at a lower support and do no mining.
        Workload(
            "intentions-warm", "intentions", 6_000, 800,
            {"min_support": 0.15}, budget_s=0.5, fill={"min_support": 0.1},
        ),
    )
}


@dataclass
class Inputs:
    """What the program receives: explorable features, outcome values and
    predefined hierarchies; plus when each was made (perf_counter stamps
    of the start, the end of generation and the end of the outcome)."""

    table: Table
    outcome: np.ndarray
    hierarchies: HierarchySet
    stamps: tuple[float, float, float]


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Generate the dataset and permute its rows with ``seed``."""
    t0 = time.perf_counter()
    ds = load_dataset(w.dataset, n_rows=w.n_rows)
    table = ds.table.shuffle(np.random.default_rng(seed))
    t1 = time.perf_counter()
    outcome = ds.outcome().values(table)
    t2 = time.perf_counter()
    return Inputs(
        table.project(ds.feature_names), outcome, ds.hierarchies, (t0, t1, t2)
    )


def cold_query(
    fields: dict, inputs: Inputs, obs: ObsCollector | None = None
) -> tuple[ResultSet, list[SubgroupResult]]:
    """One cold H-DivExplorer query and its top-k."""
    extra = {"obs": obs} if obs is not None else {}
    result = HDivExplorer(ExploreConfig(**fields, **extra)).explore(
        inputs.table, inputs.outcome, inputs.hierarchies
    )
    return result, result.top_k(TOP_K)


def bind_session(w: Workload, inputs: Inputs) -> tuple[ExploreSession, ResultSet]:
    """Bind a session to the inputs and fill its cache with ``w.fill``."""
    session = ExploreSession(
        inputs.table, inputs.outcome, hierarchies=inputs.hierarchies
    )
    return session, session.explore(ExploreConfig(**w.cold_fields()))


def run_query(
    w: Workload, inputs: Inputs, session: ExploreSession | None
) -> tuple[ResultSet, list[SubgroupResult]]:
    """One benchmark operation: a user query and its top-k."""
    if session is None:
        return cold_query(w.query, inputs)
    result = session.explore(ExploreConfig(**w.query))
    return result, result.top_k(TOP_K)


# -- output checks ----------------------------------------------------------


def fingerprint(
    result: ResultSet, top: list[SubgroupResult], full: bool = True
) -> dict:
    """Subgroup count, top-k, and (``full``) a digest of every subgroup."""
    fp: dict = {
        "subgroups": len(result),
        "top10": [[str(r.itemset), r.count, r.divergence] for r in top],
    }
    if full:
        lines = sorted(f"{r.itemset}\t{r.count}" for r in result)
        fp["digest"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return fp


def mismatches(expected: dict, got: dict, rtol: float = DIVERGENCE_RTOL) -> list[str]:
    """Differences between two fingerprints; the digest only if both have one."""
    errors = []
    if got["subgroups"] != expected["subgroups"]:
        errors.append(
            f"subgroups {got['subgroups']} != expected {expected['subgroups']}"
        )
    if "digest" in got and "digest" in expected and got["digest"] != expected["digest"]:
        errors.append("subgroup digest differs")
    if len(got["top10"]) != len(expected["top10"]):
        errors.append("top-k length differs")
    for rank, (g, e) in enumerate(zip(got["top10"], expected["top10"]), 1):
        if g[:2] != e[:2] or not math.isclose(g[2], e[2], rel_tol=rtol, abs_tol=0.0):
            errors.append(f"top-{rank}: {g} != expected {e}")
    return errors


# -- timing -----------------------------------------------------------------


class SpeedProbe:
    """Measures how fast the CPU runs this process, 100 times a second.

    On a shared host the same query runs up to 1.6 times slower while a
    neighbour loads the core, in spells lasting seconds to minutes, so
    raw wall times of one commit spread by 20-40 % between runs. A
    SIGALRM handler spins a fixed pure-Python loop every 10 ms (0.3 %
    of the time) and records how long it took. :meth:`seconds` scales a
    wall-clock interval by the reference spin time over the mean spin
    time inside it: the interval's length at reference CPU speed.
    """

    INTERVAL_S = 0.01
    SPIN = 1000
    #: Spin time the reported seconds are scaled to (an unloaded core of
    #: the 2-vCPU Xeon box the baseline was measured on).
    REFERENCE_SPIN_S = 3.0e-5

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spins: list[float] = []

    def _sample(self, signum: int, frame: object) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(self.SPIN):
            x += i
        self.spins.append(time.perf_counter() - t0)
        self.times.append(t0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Reference over measured CPU speed during ``[start, end]``.

        The slowest 5 % of spins are dropped: a spin the scheduler
        interrupted says nothing about the core's speed. An interval
        without samples uses the 50 before it.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        window = sorted(self.spins[lo:hi] or self.spins[max(0, lo - 50):lo])
        if not window:
            return 1.0
        kept = window[: max(1, int(len(window) * 0.95))]
        return self.REFERENCE_SPIN_S / statistics.fmean(kept)

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` at reference CPU speed."""
        return (end - start) * self.factor(start, end)


# -- layer tracing ----------------------------------------------------------


class Tracer:
    """Spans recorded from outside the program, around each layer call.

    Spans (name, start, end, parent, query id) are kept in memory and
    exported as a Chrome trace when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, query: int) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "query": query,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": math.nan,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, query: int) -> dict[str, float]:
        """Per span name: duration minus the duration of child spans."""
        spans = [s for s in self.spans if s["query"] == query]
        own = {s["id"]: s["end"] - s["start"] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        times: dict[str, float] = {}
        for s in spans:
            times[s["name"]] = times.get(s["name"], 0.0) + own[s["id"]]
        return times

    def root(self, query: int) -> tuple[float, float]:
        """Start and end of the query's outermost span."""
        s = next(
            s for s in self.spans if s["query"] == query and s["parent"] is None
        )
        return s["start"], s["end"]

    def chrome_trace(self) -> dict:
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": s["name"],
                    "ph": "X",
                    "ts": (s["start"] - self._t0) * 1e6,
                    "dur": (s["end"] - s["start"]) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "query": s["query"], "id": s["id"], "parent": s["parent"]
                    },
                }
                for s in self.spans
            ],
        }


#: The layers a traced query is decomposed into, in pipeline order.
LAYERS = ("discretize", "encode", "mine", "results", "rank")


def traced_query(
    fields: dict, inputs: Inputs, tracer: Tracer, query: int
) -> tuple[ResultSet, list[SubgroupResult], dict]:
    """The cold pipeline of ``HDivExplorer.explore``, one public call per layer.

    Mirrors the explorer: discretize the continuous attributes the
    predefined hierarchies do not cover, encode the generalized universe,
    mine (with polarity pruning if configured), materialize the results
    and rank them. Returns the result, its top-k and the work sizes.
    """
    cfg = ExploreConfig(**fields)
    explorer = HDivExplorer(cfg)
    with tracer.span("query", query):
        outcome = coerce_outcome(inputs.outcome)
        gamma = HierarchySet(inputs.hierarchies)
        continuous = [a for a in inputs.table.continuous_names if a not in gamma]
        with tracer.span("discretize", query):
            trees = explorer.discretize(inputs.table, outcome, continuous)
        for h in trees:
            gamma.add(h)
        with tracer.span("encode", query):
            universe = generalized_universe(inputs.table, outcome, gamma)
        miner = mine_with_polarity if cfg.polarity else mine
        with tracer.span("mine", query):
            mined = miner(
                universe, cfg.min_support, cfg.backend, cfg.max_length,
                n_jobs=cfg.n_jobs,
            )
        with tracer.span("results", query):
            result = results_from_mined(universe, mined, 0.0)
        with tracer.span("rank", query):
            top = result.top_k(TOP_K)
    sizes = {
        "nodes": sum(len(h) for h in trees),
        "items": universe.n_items(),
        "rows": universe.n_rows,
        "itemsets": len(mined),
    }
    return result, top, sizes
