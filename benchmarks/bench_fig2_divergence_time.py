"""Figure 2 — max divergence (a) and execution time (b), base vs hier.

Beyond the paper's table this bench exercises the full telemetry
pipeline: the sweep runs under an :class:`repro.obs.ObsCollector`
(``figure2.<dataset>`` spans with the explorers' ``discretize`` /
``mine`` / ``bitset`` spans nested beneath), and a serial-vs-``n_jobs=4``
parity phase asserts the merged worker counters and the result
ranking are identical. The whole registry lands in
``benchmark_results/BENCH_fig2_divergence_time.json``.
"""

from conftest import RESULTS_DIR, run_once

from repro.core.config import ExploreConfig
from repro.core.hexplorer import HDivExplorer
from repro.experiments import render_table
from repro.experiments.figures import FIGURE2_DATASETS, figure2
from repro.obs import EventStream, ObsCollector, event_counts, write_chrome_trace

PARITY_SUPPORT = 0.1


def _hierarchical_run(ctx, n_jobs):
    """Compas hierarchical exploration with a private collector.

    The collector streams events so the parity phase can also compare
    the deterministic event counts across ``n_jobs``.
    """
    obs = ObsCollector(events=EventStream())
    config = ExploreConfig(
        min_support=PARITY_SUPPORT, n_jobs=n_jobs, obs=obs,
    )
    result = HDivExplorer(config).explore(
        ctx.features, ctx.outcomes, hierarchies=ctx.dataset.hierarchies,
    )
    ranking = [
        (str(r.itemset), round(r.divergence, 12))
        for r in result.top_k(50, by="abs_divergence")
    ]
    return ranking, dict(obs.counters), obs


def test_figure2(benchmark, emit, sweep_contexts):
    obs = ObsCollector()
    headers, rows = run_once(
        benchmark, figure2, contexts=sweep_contexts, obs=obs
    )
    emit_text = render_table(
        headers, rows,
        "Figure 2: max |divergence| and time, base vs hierarchical "
        "(st=0.1, divergence criterion)",
    )
    # (a) Hierarchical always finds at least the base divergence.
    for name, s, base_d, hier_d, _tb, _th in rows:
        assert hier_d >= base_d - 1e-9, f"{name} s={s}"
    # On a majority of (dataset, support) cells the hierarchy strictly
    # wins, as in the paper's Figure 2a.
    strict = sum(1 for r in rows if r[3] > r[2] + 1e-9)
    assert strict >= len(rows) // 2
    # (b) Hierarchical exploration costs more time overall.
    total_base = sum(r[4] for r in rows)
    total_hier = sum(r[5] for r in rows)
    assert total_hier > total_base
    assert {r[0] for r in rows} == set(FIGURE2_DATASETS)

    # -- telemetry: nested spans and nonzero core counters ---------------
    span_names = {s.name for root in obs.roots for s in root.walk()}
    for expected in ("figure2.compas", "discretize", "mine", "bitset"):
        assert expected in span_names, expected
    assert obs.counter("mining.candidates") > 0
    assert obs.counter("mining.support_pruned") > 0
    assert obs.counter("discretize.splits_accepted") > 0

    # -- parity: n_jobs=4 merges to the serial counters and ranking ------
    serial_rank, serial_counters, serial_obs = _hierarchical_run(
        sweep_contexts["compas"], n_jobs=1
    )
    par_rank, par_counters, par_obs = _hierarchical_run(
        sweep_contexts["compas"], n_jobs=4
    )
    assert par_counters == serial_counters
    assert par_rank == serial_rank
    # Deterministic event counts are n_jobs-independent too.
    assert event_counts(par_obs.events) == event_counts(serial_obs.events)

    # -- Chrome trace of the parallel run: one track per worker ----------
    trace = write_chrome_trace(
        RESULTS_DIR / "BENCH_fig2_parity_n4.trace.json",
        events=par_obs.events, name="fig2_parity_n4",
    )
    worker_tids = {
        e["tid"] for e in trace["traceEvents"]
        if e.get("ph") == "X" and e["tid"] > 0
    }
    assert worker_tids and worker_tids <= {1, 2, 3, 4}

    emit(
        "fig2_divergence_time",
        emit_text,
        obs=obs,
        config={
            "datasets": list(FIGURE2_DATASETS),
            "supports": [r[1] for r in rows[: len(rows) // len(FIGURE2_DATASETS)]],
            "tree_support": 0.1,
            "criterion": "divergence",
            "parity_support": PARITY_SUPPORT,
        },
        extra={"parity_n_jobs": [1, 4], "parity_top_k": 50},
        # The 7-dataset sweep yields hundreds of depth-3 mining spans;
        # keep the checked-in fixture at the per-dataset phase level.
        max_span_depth=2,
    )
