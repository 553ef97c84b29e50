"""Warm-start support sweep vs the cold per-point loop.

The payoff bench for :class:`repro.core.session.ExploreSession`: a
4-point ``min_support`` sweep on the Figure-2 compas workload, run
once as four cold ``run_hierarchical`` calls and once through the
warm session. Asserts the per-point ResultSets are bit-identical
(same subgroups, same floats, same order) and that the warm sweep is
at least :data:`MIN_SPEEDUP` times faster — the first point pays the
full pipeline, the later points reuse cached trees/universe and
filter-derive from the cached mined result.
"""

import time

from conftest import run_once

from repro.experiments import (
    DEFAULT_SUPPORTS,
    render_table,
    run_hierarchical,
    support_sweep,
)
from repro.experiments.sweeps import sweep_rows
from repro.obs import ObsCollector

MIN_SPEEDUP = 2.0


def _exact_rows(result):
    """Every subgroup as exact-repr tuples (nan-safe bit-identity probe)."""
    return [
        (
            str(r.itemset),
            r.count,
            r.length,
            repr(r.support),
            repr(r.mean),
            repr(r.divergence),
            repr(r.t),
        )
        for r in result
    ]


def _cold_loop(ctx):
    results, seconds = [], []
    for support in DEFAULT_SUPPORTS:
        t0 = time.perf_counter()
        results.append(run_hierarchical(ctx, support))
        seconds.append(time.perf_counter() - t0)
    return results, seconds


def test_sweep_min_support(benchmark, emit, compas_ctx):
    obs = ObsCollector()
    cold_results, cold_seconds = _cold_loop(compas_ctx)
    sweep = run_once(
        benchmark, support_sweep, compas_ctx, DEFAULT_SUPPORTS, obs=obs
    )

    # Hard invariant: warm == cold, bit for bit, point by point.
    assert len(sweep) == len(cold_results)
    for point, cold in zip(sweep, cold_results):
        assert _exact_rows(point.result) == _exact_rows(cold), point.value

    # Warm artifacts actually flowed: the first point misses, every
    # later point is served from the caches.
    assert sweep.points[0].cache_misses > 0
    for point in sweep.points[1:]:
        assert point.cache_misses == 0, point.value
        assert point.cache_hits > 0, point.value

    cold_total = sum(cold_seconds)
    speedup = cold_total / sweep.elapsed_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"warm sweep {sweep.elapsed_seconds:.3f}s vs cold "
        f"{cold_total:.3f}s = {speedup:.1f}x < {MIN_SPEEDUP}x"
    )

    headers = ["support", "subgroups", "max |div|", "warm s", "cold s"]
    rows = [
        row + (round(cold_s, 4),)
        for row, cold_s in zip(sweep_rows(sweep), cold_seconds)
    ]
    text = render_table(
        headers, rows,
        f"Support sweep (compas, hierarchical): warm session vs cold loop "
        f"— {speedup:.1f}x",
    )
    emit(
        "sweep_min_support",
        text,
        obs=obs,
        config={
            "dataset": "compas",
            "supports": list(DEFAULT_SUPPORTS),
            "tree_support": 0.1,
            "criterion": "divergence",
        },
        extra={
            "cold_seconds": round(cold_total, 4),
            "warm_seconds": round(sweep.elapsed_seconds, 4),
            "speedup": round(speedup, 2),
            "cache_hits": sum(p.cache_hits for p in sweep),
            "cache_misses": sum(p.cache_misses for p in sweep),
        },
    )
