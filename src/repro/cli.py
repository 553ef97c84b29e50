"""Command-line interface.

Usage examples::

    # list bundled dataset generators
    python -m repro.cli datasets

    # write a generated dataset to CSV
    python -m repro.cli generate compas --out compas.csv

    # hierarchical exploration of a CSV with an error outcome
    python -m repro.cli explore data.csv --kind error \\
        --y-true label --y-pred pred --support 0.05 --top 10

    # same, with observability: span trace + metrics registry as JSON
    python -m repro.cli hexplore data.csv --kind error \\
        --y-true label --y-pred pred \\
        --trace trace.json --metrics-out metrics.json

    # show the discretization hierarchy of one attribute
    python -m repro.cli discretize data.csv --attribute age \\
        --kind error --y-true label --y-pred pred

    # sweep one knob over a warm ExploreSession (artifacts cached
    # across the points; discretization/encoding happen once)
    python -m repro.cli sweep data.csv --kind error \\
        --y-true label --y-pred pred \\
        --param min_support --values 0.05,0.1,0.15,0.2
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.core.config import ExploreConfig
from repro.core.mining.transactions import BACKENDS, RETIRED_BACKENDS
from repro.obs.events import RunCancelled
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.session import ExploreSession
from repro.core.outcomes import (
    Outcome,
    accuracy_outcome,
    error_rate,
    false_negative_rate,
    false_positive_rate,
    numeric_outcome,
)
from repro.tabular import Table, read_csv


def _build_outcome(args) -> Outcome:
    kind = args.kind
    if kind == "numeric":
        if not args.column:
            raise SystemExit("--column is required for --kind numeric")
        return numeric_outcome(args.column)
    if not args.y_true or not args.y_pred:
        raise SystemExit(f"--y-true and --y-pred are required for --kind {kind}")
    factory = {
        "error": error_rate,
        "accuracy": accuracy_outcome,
        "fpr": lambda t, p: false_positive_rate(t, p, args.positive),
        "fnr": lambda t, p: false_negative_rate(t, p, args.positive),
    }[kind]
    return factory(args.y_true, args.y_pred)


def _feature_table(table: Table, args) -> Table:
    drop = [
        c
        for c in (args.y_true, args.y_pred, args.column)
        if c and c in table
    ]
    return table.drop(drop) if drop else table


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_outcome_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kind",
        choices=["error", "accuracy", "fpr", "fnr", "numeric"],
        default="error",
        help="outcome whose divergence to analyse",
    )
    parser.add_argument("--y-true", help="ground-truth label column")
    parser.add_argument("--y-pred", help="prediction column")
    parser.add_argument(
        "--positive", default="1", help="positive class label (rates)"
    )
    parser.add_argument(
        "--column", help="numeric outcome column (for --kind numeric)"
    )


def cmd_datasets(_args) -> int:
    from repro.datasets import dataset_names, load_dataset

    for name in dataset_names():
        ds = load_dataset(name, n_rows=64)
        print(f"{name:16s} {ds.description}")
    return 0


def cmd_generate(args) -> int:
    from repro.datasets import load_dataset
    from repro.tabular import write_csv

    kwargs = {}
    if args.rows:
        kwargs["n_rows"] = args.rows
    if args.seed is not None:
        kwargs["seed"] = args.seed
    ds = load_dataset(args.name, **kwargs)
    write_csv(ds.table, args.out)
    print(f"wrote {ds.table.n_rows} rows of {ds.name!r} to {args.out}")
    return 0


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """The shared "observability" option group.

    One definition for every exploring subcommand (``explore``,
    ``hexplore``, ``sweep``), so the flags stay spelled, documented,
    and defaulted identically everywhere.
    """
    g = parser.add_argument_group(
        "observability",
        "opt-in tracing, profiling, live progress, and run capture "
        "(none of these changes mined results)",
    )
    g.add_argument(
        "--trace", metavar="FILE",
        help="write the hierarchical span trace as JSON",
    )
    g.add_argument(
        "--metrics-out", metavar="FILE", dest="metrics_out",
        help="write the metrics registry (counters/gauges) as JSON",
    )
    g.add_argument(
        "--profile-memory", action="store_true", dest="profile_memory",
        help="track tracemalloc peak allocations per span "
        "(slows the run; timings are not comparable)",
    )
    g.add_argument(
        "--profile-cpu", action="store_true", dest="profile_cpu",
        help="attach the sampling CPU profiler: spans gain sampled "
        "self-time and hot-function attributes; bundles gain "
        "cpuprof.json (export flamegraphs with "
        "python -m repro.obs.cpuprof export)",
    )
    g.add_argument(
        "--sample-hz", type=float, default=97.0, dest="sample_hz",
        metavar="HZ",
        help="sampling rate for --profile-cpu (default 97 Hz; prime, "
        "to dodge lockstep with periodic work)",
    )
    g.add_argument(
        "--progress", action="store_true",
        help="render throttled per-phase progress lines with ETA "
        "on stderr while the run streams events",
    )
    g.add_argument(
        "--run-log", metavar="FILE", dest="run_log",
        help="append the structured event stream to FILE as "
        "schema-tagged JSONL (replay with python -m repro.obs.tail)",
    )
    g.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="cancel the run cooperatively after SECONDS "
        "(checked at phase boundaries and mining step slices)",
    )
    g.add_argument(
        "--bundle", metavar="DIR",
        help="capture the run into a forensics bundle directory "
        "(manifest, run log, trace, metrics; "
        "cpuprof.json with --profile-cpu; crash.json for "
        "failed/cancelled runs — inspect with "
        "python -m repro.obs.doctor, compare with "
        "python -m repro.obs.diff)",
    )


def _build_obs(args):
    """An ObsCollector when an observability flag asked for one.

    ``--trace``/``--metrics-out``/``--profile-memory``/``--profile-cpu``
    want the span tree and metrics registry; ``--progress``/
    ``--run-log``/``--deadline``/``--bundle`` additionally want a live
    event stream, with a throttled TTY renderer and/or an append-only
    JSONL run log as sinks (``--deadline`` alone still streams: the
    cancellation event must land somewhere inspectable; a bundle
    attaches its own run-log sink inside the explorer's bundle scope).
    """
    want_events = bool(
        getattr(args, "progress", False)
        or getattr(args, "run_log", None)
        or getattr(args, "bundle", None)
        or getattr(args, "deadline", None) is not None
    )
    if not (
        getattr(args, "trace", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "profile_memory", False)
        or getattr(args, "profile_cpu", False)
        or want_events
    ):
        return None
    from repro.obs import ObsCollector

    if not want_events:
        return ObsCollector()
    from repro.obs import EventStream, JsonlRunLog, ProgressRenderer

    sinks = []
    if getattr(args, "run_log", None):
        meta = {"command": getattr(args, "command", None), "csv": args.csv}
        sinks.append(JsonlRunLog(args.run_log, meta=meta))
    if getattr(args, "progress", False):
        sinks.append(ProgressRenderer())
    return ObsCollector(events=EventStream(sinks=sinks))


def _write_obs(args, obs) -> None:
    """Write the trace / metrics files requested on the command line."""
    if obs is None:
        return
    if getattr(args, "profile_memory", False):
        obs.stop_memory_profiling()
        if obs.mem_peaks:
            print("peak memory (tracemalloc, per span path):")
            for name in sorted(obs.mem_peaks):
                print(f"  {name:<40s} {obs.mem_peaks[name] / 1024.0:10.1f} KiB")
        rss = obs.gauges.get("mem.rss_max_kb")
        if rss is not None:
            print(f"  {'process rss high-water':<40s} {rss:10.1f} KiB")
    cpu = getattr(obs, "cpu", None)
    if cpu is not None and cpu.samples_total:
        print(
            f"cpu profile ({cpu.samples_total} samples at "
            f"{cpu.sample_hz:g} Hz; hottest functions by self time):"
        )
        for name, seconds in cpu.top_functions():
            print(f"  {name:<56s} {seconds:8.3f} s")
    from repro.obs import write_metrics, write_trace

    if args.trace:
        write_trace(obs, args.trace)
        print(f"wrote span trace to {args.trace}")
    if args.metrics_out:
        write_metrics(obs, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    events = getattr(obs, "events", None)
    if events is not None:
        events.close()
        if getattr(args, "run_log", None):
            print(f"wrote run log to {args.run_log}")
    if getattr(args, "bundle", None):
        print(f"wrote run bundle to {args.bundle}")


def _explore_config(args, obs=None) -> ExploreConfig:
    """The shared exploration configuration from parsed CLI flags.

    Routed through :meth:`ExploreConfig.from_dict` — the flag dict is
    exactly a serialized config, so the CLI round-trips fingerprints
    and a misspelled key raises instead of silently defaulting.
    """
    return ExploreConfig.from_dict(
        {
            "min_support": args.support,
            "tree_support": args.tree_support,
            "criterion": args.criterion,
            "backend": getattr(args, "backend", "bitset"),
            "polarity": getattr(args, "polarity", False),
            "max_length": getattr(args, "max_length", None),
            "n_jobs": getattr(args, "n_jobs", 1),
        },
        obs=obs,
        profile_memory=getattr(args, "profile_memory", False) and obs is not None,
        deadline_s=getattr(args, "deadline", None),
        bundle_dir=getattr(args, "bundle", None),
        profile_cpu=getattr(args, "profile_cpu", False),
        sample_hz=getattr(args, "sample_hz", 97.0),
    )


def _print_result(result, args, mode: str) -> None:
    headline = result.summary()
    print(
        f"{mode} exploration: {headline['n_subgroups']} frequent subgroups, "
        f"f(D)={headline['global_mean']:.4f}, "
        f"{headline['elapsed_seconds']:.2f}s"
    )
    for row in result.to_rows(args.top, by=args.rank_by, min_t=args.min_t):
        t = "nan" if math.isnan(row["t"]) else f"{row['t']:.1f}"
        print(
            f"  {row['itemset']}  sup={row['support']:.3f}  "
            f"Δ={row['divergence']:+.3f}  t={t}"
        )


def cmd_explore(args) -> int:
    table = read_csv(args.csv)
    outcome = _build_outcome(args)
    values = outcome.values(table)
    features = _feature_table(table, args)
    obs = _build_obs(args)
    config = _explore_config(args, obs=obs)
    if args.base:
        session = ExploreSession(features, values, obs=obs)
        explorer = DivExplorer(config)
        result = explorer.explore(
            features,
            values,
            continuous_items={
                a: session.tree(
                    a, args.tree_support, args.criterion
                ).leaf_items()
                for a in features.continuous_names
            },
        )
        mode = "base (leaf items)"
    else:
        explorer = HDivExplorer(config)
        result = explorer.explore(features, values)
        mode = "hierarchical"
    _print_result(result, args, mode)
    _write_obs(args, obs)
    return 0


def cmd_report(args) -> int:
    from repro.core.report import exploration_report

    table = read_csv(args.csv)
    outcome = _build_outcome(args)
    values = outcome.values(table)
    features = _feature_table(table, args)
    obs = None
    if args.verbose:
        from repro.obs import ObsCollector

        obs = ObsCollector()
    explorer = HDivExplorer(_explore_config(args, obs=obs))
    result = explorer.explore(features, values)
    print(
        exploration_report(
            result,
            title=f"Divergence report: {args.csv} ({outcome.name})",
            k=args.top,
            min_t=args.min_t,
            fdr_alpha=args.fdr_alpha,
            hierarchies=explorer.last_hierarchies_,
            verbose=args.verbose,
        )
    )
    return 0


def cmd_discretize(args) -> int:
    table = read_csv(args.csv)
    outcome = _build_outcome(args)
    values = outcome.values(table)
    features = _feature_table(table, args)
    if args.attribute not in features.continuous_names:
        raise SystemExit(
            f"{args.attribute!r} is not a continuous column of {args.csv}"
        )
    session = ExploreSession(
        features, values, continuous_attributes=[args.attribute]
    )
    tree = session.tree(args.attribute, args.tree_support, args.criterion)
    print(tree.render())
    return 0


def _polarity_value(text: str) -> bool:
    word = text.lower()
    if word in ("true", "yes", "1"):
        return True
    if word in ("false", "no", "0"):
        return False
    raise ValueError("expected one of true/false/yes/no/1/0")


#: How a --values entry is parsed, per swept parameter (default: str).
_SWEEP_VALUE_PARSERS = {
    "min_support": float,
    "tree_support": float,
    "max_length": lambda text: None if text.lower() == "none" else int(text),
    "polarity": _polarity_value,
    "n_jobs": int,
}


def _sweep_points(args) -> list:
    """The parsed --values; an entry that does not parse is a usage error."""
    parse = _SWEEP_VALUE_PARSERS.get(args.param, str)
    points = []
    for text in args.values.split(","):
        try:
            points.append(parse(text))
        except ValueError as exc:
            args.usage_error(
                f"--values: cannot parse {text!r} as {args.param}: {exc}"
            )
    return points


def cmd_sweep(args) -> int:
    points = _sweep_points(args)
    table = read_csv(args.csv)
    outcome = _build_outcome(args)
    values = outcome.values(table)
    features = _feature_table(table, args)
    obs = _build_obs(args)
    config = _explore_config(args, obs=obs)
    with ExploreSession(features, values, obs=obs) as session:
        sweep = session.sweep(args.param, points, config)
    print(
        f"sweep over {args.param}: {len(sweep)} points, "
        f"{sweep.elapsed_seconds:.2f}s total"
    )
    for pt in sweep:
        headline = pt.result.summary()
        top = pt.result.to_rows(1, by=args.rank_by, min_t=args.min_t)
        best = (
            f"  best: {top[0]['itemset']}  Δ={top[0]['divergence']:+.3f}"
            if top else "  (no subgroups)"
        )
        # Cache traffic is counted on the collector: without an enabled
        # one the session measures nothing, so print nothing.
        cache = (
            f", cache {pt.cache_hits} hits / {pt.cache_misses} misses"
            if config.obs.enabled else ""
        )
        print(
            f"{args.param}={pt.value}: "
            f"{headline['n_subgroups']} subgroups, "
            f"{pt.elapsed_seconds:.3f}s{cache}"
        )
        print(best)
    _write_obs(args, obs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="H-DivExplorer: hierarchical anomalous subgroup discovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list bundled dataset generators")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("generate", help="write a generated dataset to CSV")
    p.add_argument("name")
    p.add_argument("--out", required=True)
    p.add_argument("--rows", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_generate)

    def add_explore_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("csv")
        _add_outcome_flags(p)
        p.add_argument("--support", type=float, default=0.05)
        p.add_argument("--tree-support", type=float, default=0.1)
        p.add_argument(
            "--criterion",
            choices=["divergence", "entropy"],
            default="divergence",
        )
        p.add_argument(
            "--backend", choices=list(BACKENDS + RETIRED_BACKENDS),
            default="bitset",
            help="deprecated: the bitset engine is the only miner",
        )
        p.add_argument(
            "--n-jobs", type=int, default=1, dest="n_jobs",
            help="deprecated: mining is serial; values other than 1 "
            "warn and are ignored",
        )
        p.add_argument(
            "--max-length", type=int, default=None, dest="max_length",
            help="cap itemset length of mined subgroups (default: no cap)",
        )
        p.add_argument("--polarity", action="store_true")
        p.add_argument("--top", type=_non_negative_int, default=10)
        p.add_argument(
            "--rank-by",
            choices=[
                "abs_divergence", "divergence", "neg_divergence", "support"
            ],
            default="abs_divergence",
        )
        p.add_argument("--min-t", type=float, default=0.0)
        _add_observability_flags(p)

    p = sub.add_parser("explore", help="find divergent subgroups in a CSV")
    add_explore_flags(p)
    p.add_argument(
        "--base", action="store_true",
        help="non-hierarchical exploration over tree leaves",
    )
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser(
        "hexplore",
        help="hierarchical exploration (explicit spelling of `explore`)",
    )
    add_explore_flags(p)
    p.set_defaults(fn=cmd_explore, base=False)

    p = sub.add_parser(
        "sweep",
        help="explore once per value of one knob over a warm session",
    )
    add_explore_flags(p)
    p.add_argument(
        "--param", required=True,
        choices=sorted(ExploreConfig().to_dict()),
        help="the ExploreConfig field to vary",
    )
    p.add_argument(
        "--values", required=True,
        help="comma-separated values for --param (e.g. 0.05,0.1,0.2; "
        "polarity takes true/false/yes/no/1/0, max_length takes none)",
    )
    p.set_defaults(fn=cmd_sweep, usage_error=p.error)

    p = sub.add_parser(
        "report", help="full divergence report for a CSV (hierarchical)"
    )
    p.add_argument("csv")
    _add_outcome_flags(p)
    p.add_argument("--support", type=float, default=0.05)
    p.add_argument("--tree-support", type=float, default=0.1)
    p.add_argument(
        "--criterion", choices=["divergence", "entropy"], default="divergence"
    )
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--min-t", type=float, default=2.0)
    p.add_argument("--fdr-alpha", type=float, default=0.05)
    p.add_argument(
        "--verbose", action="store_true",
        help="append the observability section (phase timings, counters)",
    )
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "discretize", help="print one attribute's discretization hierarchy"
    )
    p.add_argument("csv")
    p.add_argument("--attribute", required=True)
    _add_outcome_flags(p)
    p.add_argument("--tree-support", type=float, default=0.1)
    p.add_argument(
        "--criterion", choices=["divergence", "entropy"], default="divergence"
    )
    p.set_defaults(fn=cmd_discretize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RunCancelled as exc:
        # The run log (if any) already holds the partial event stream
        # including the terminal "cancelled" event — each line is
        # flushed as it is written.
        print(f"run cancelled: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
