"""One-shot regeneration of every paper artifact.

``python -m repro.experiments.paper`` prints all tables and figures in
paper order; ``--fast`` shrinks dataset sizes and sweeps for a quick
smoke pass (~1 minute), ``--out DIR`` also writes each artifact to a
file. The pytest benchmarks in ``benchmarks/`` remain the canonical,
shape-asserting reproduction; this runner is for interactive use.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments import figures as F
from repro.experiments.harness import load_context
from repro.experiments.tables import render_table
from repro.obs import ObsCollector


def _artifacts(fast: bool):
    """Yield (name, callable) pairs in paper order."""
    if fast:
        sizes = {"compas": 2_000, "synthetic-peak": 2_500, "folktables": 4_000}
        supports = (0.1, 0.2)
        t34_supports = (0.05, 0.025)
        datasets = ("compas", "german", "synthetic-peak")
        contexts = {
            "compas": load_context("compas", n_rows=sizes["compas"]),
            "german": load_context("german"),
            "synthetic-peak": load_context(
                "synthetic-peak", n_rows=sizes["synthetic-peak"]
            ),
        }
        folk = load_context("folktables", n_rows=sizes["folktables"])
    else:
        supports = F.DEFAULT_SUPPORTS
        t34_supports = F.TABLE3_SUPPORTS
        datasets = F.FIGURE2_DATASETS
        contexts = {name: load_context(name) for name in datasets}
        folk = load_context("folktables")
    compas = contexts["compas"]
    peak = contexts["synthetic-peak"]

    yield "table1", lambda: render_table(
        *F.table1(compas), title="Table I: compas FPR by subgroup"
    )
    yield "figure1", lambda: "Figure 1: #prior tree\n" + F.figure1(compas)
    yield "table2", lambda: render_table(
        *F.table2(), title="Table II: dataset characteristics"
    )
    yield "table3", lambda: render_table(
        *F.table3(t34_supports, ctx=compas),
        title="Table III: compas top itemsets",
    )
    yield "table4", lambda: render_table(
        *F.table4(t34_supports, ctx=folk),
        title="Table IV: folktables top itemsets",
    )
    yield "figure2", lambda: render_table(
        *F.figure2(datasets, supports, contexts=contexts),
        title="Figure 2: max |divergence| and time",
    )
    yield "figure3a", lambda: render_table(
        *F.figure3a(supports, ctx=folk), title="Figure 3a: folktables"
    )
    yield "figure3b", lambda: render_table(
        *F.figure3b(datasets, supports, contexts=contexts),
        title="Figure 3b: divergence vs entropy criteria",
    )
    yield "figure4", lambda: render_table(
        *F.figure4(datasets, supports, contexts=contexts),
        title="Figure 4: polarity pruning",
    )
    yield "figure5", lambda: render_table(
        *F.figure5(ctx=peak), title="Figure 5: synthetic-peak ranges"
    )
    yield "figure6", lambda: render_table(
        *F.figure6(ctx=peak), title="Figure 6: Slice Finder"
    )
    yield "figure7", lambda: render_table(
        *F.figure7(supports=(0.025, 0.05), ctx=peak),
        title="Figure 7: quantile vs hierarchy",
    )
    yield "figure8", lambda: render_table(
        *F.figure8(
            st_values=(0.025, 0.05, 0.1, 0.2),
            contexts={"compas": compas, "synthetic-peak": peak},
        ),
        title="Figure 8: sensitivity to st",
    )
    yield "sliceline", lambda: render_table(
        *F.sliceline_comparison(supports=(0.05,), ctx=peak),
        title="Section VI-G: SliceLine comparison",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate every paper table/figure"
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="small datasets and sweeps (~1 minute smoke pass)",
    )
    parser.add_argument("--out", type=Path, help="also write files here")
    parser.add_argument(
        "--only", nargs="*", help="artifact names to run (default: all)"
    )
    args = parser.parse_args(argv)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    obs = ObsCollector()
    for name, build in _artifacts(args.fast):
        if args.only and name not in args.only:
            continue
        with obs.span(f"artifact.{name}") as span:
            text = build()
        print(f"\n{'=' * 72}\n{text}\n[{name}: {span.elapsed_seconds:.1f}s]")
        if args.out:
            (args.out / f"{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
