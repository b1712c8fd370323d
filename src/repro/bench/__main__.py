"""``python -m repro.bench`` — the benchmark CLI.

Examples
--------
Run the standard suite and write ``BENCH_core.json`` in the current
directory (run it from the repo root to update the tracked trajectory)::

    python -m repro.bench

The tiny CI smoke run (seconds, all five families, validation on)::

    python -m repro.bench --smoke

Benchmark a subset of families with more repetitions::

    python -m repro.bench --families gnp,powerlaw --repetitions 5

The thousands-of-nodes suite (sampled naive baseline), on top of the
default one, with hub indexes cached on disk between runs::

    python -m repro.bench --scale default,large --index-cache .bench-index-cache

The huge-scale tier — road-network-like lattices in the 10^4–10^5-node
range, sampled naive baseline, ``"auto"`` hub budgets, and (with a
workers axis) shared-memory graph transport into the workers::

    python -m repro.bench --scale huge --workers 1,2

A real dataset file (SNAP/KONECT edge list, DIMACS ``.gr`` or repro
JSON; format auto-detected) instead of the synthetic suite::

    python -m repro.bench --dataset roadNet-PA.txt --workers 1,2

The worker-process scaling axis: time every algorithm in-process *and*
through a 2-worker shard pool (extra rows keyed ``name@w2``, each checked
rank-identical against its sequential reference)::

    python -m repro.bench --workers 1,2

Exit status is non-zero when any algorithm disagrees with the naive
baseline (or, on sampled large-scale workloads, the exact-rank spot
checks).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.harness import run_suite
from repro.bench.report import (
    DEFAULT_REPORT_NAME,
    build_report,
    render_table,
    write_report,
)
from repro.bench.workloads import WORKLOAD_FAMILIES, build_suite, dataset_workload
from repro.errors import CrossValidationError, DatasetError, WorkloadError


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "Benchmark the four reverse k-ranks algorithms "
            "(naive/static/dynamic/indexed) on seeded synthetic workloads "
            "and write the BENCH_core.json trajectory report."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI-sized workloads, 1 repetition, no warmup",
    )
    parser.add_argument(
        "--scale",
        default=None,
        help=(
            "workload scale(s): smoke, default, large, huge, or a "
            "comma-separated combination like default,large (default: "
            "default; overrides --smoke when both are given)"
        ),
    )
    parser.add_argument(
        "--dataset",
        default=None,
        metavar="PATH",
        help=(
            "benchmark a real dataset file instead of the synthetic suite: "
            "a SNAP/KONECT edge list, DIMACS .gr or repro JSON document "
            "(format auto-detected; large graphs get a sampled naive "
            "baseline and 'auto' hub budgets)"
        ),
    )
    parser.add_argument(
        "--directed",
        action="store_true",
        help="with --dataset: interpret the dataset's edges as directed",
    )
    parser.add_argument(
        "--index-cache",
        default=None,
        metavar="DIR",
        help=(
            "directory for hub-index save/load: the indexed algorithm "
            "loads a cached index when fresh and builds+saves otherwise"
        ),
    )
    parser.add_argument(
        "--workers",
        default="1",
        metavar="N[,M...]",
        help=(
            "worker-process axis: one value (e.g. 2) times every batch "
            "through that many sharded worker processes; a comma list "
            "(e.g. 1,2) times each value, keying extra rows name@wN "
            "(default: 1, in-process)"
        ),
    )
    parser.add_argument(
        "--worker-context",
        default=None,
        choices=("fork", "spawn", "forkserver"),
        help=(
            "multiprocessing start method for parallel passes "
            "(default: the platform default)"
        ),
    )
    parser.add_argument(
        "--stats",
        default="per-query",
        choices=("per-query", "aggregate", "none"),
        help=(
            "batch stats mode for parallel passes: per-query ships full "
            "QueryStats per query, aggregate one merged QueryStats per "
            "shard, none drops stats entirely — aggregate/none shrink the "
            "per-query IPC bytes the name@wN rows report (default: "
            "per-query)"
        ),
    )
    parser.add_argument(
        "--mutation-rate",
        type=float,
        default=0.0,
        metavar="R",
        help=(
            "mixed update/query axis: each timed repetition of the extra "
            "name@mut rows first applies max(1, round(R * num_queries)) "
            "seeded graph updates through engine.apply_updates (CSR "
            "delta-overlay + in-place hub-index repair + live pool sync) "
            "and then the query batch; the final overlay-path answers are "
            "validated bit-identically against a from-scratch recompile "
            "(default: 0, no mutation pass)"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "trace the timed batches: each report row gains a "
            "trace_summary (top spans by inclusive time) from its last "
            "timed batch; adds span bookkeeping to the timed windows, so "
            "use for attribution, not for comparing against untraced runs"
        ),
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "write each row's full span tree there as "
            "{workload}-{row}.trace.json (implies --trace)"
        ),
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_REPORT_NAME,
        help=f"report path (default: {DEFAULT_REPORT_NAME})",
    )
    parser.add_argument(
        "--families",
        default=None,
        help=(
            "comma-separated workload families to run "
            f"(default: all of {','.join(WORKLOAD_FAMILIES)})"
        ),
    )
    parser.add_argument(
        "--repetitions", type=int, default=None,
        help="timed repetitions per algorithm (default: 3, smoke: 1)",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="untimed warmup batches per algorithm (default: 1, smoke: 0)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload generator seed (default: 0)"
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip in-run cross-validation against naive (not recommended)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress and table output"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parse_args(argv)
    if args.scale is not None:
        scale = args.scale
    else:
        scale = "smoke" if args.smoke else "default"
    # Repetition/warmup defaults follow the *resolved* scale: --scale
    # overrides --smoke wholesale, so `--smoke --scale default` must not
    # inherit smoke's cold single-repetition timings (warmup pre-warms the
    # hub index; without it the indexed rows time the cold build path).
    smoke_only = [part.strip() for part in scale.split(",") if part.strip()] == [
        "smoke"
    ]
    repetitions = args.repetitions if args.repetitions is not None else (
        1 if smoke_only else 3
    )
    warmup = args.warmup if args.warmup is not None else (0 if smoke_only else 1)
    families = (
        [name.strip() for name in args.families.split(",") if name.strip()]
        if args.families
        else None
    )
    try:
        workers = [
            int(part) for part in args.workers.split(",") if part.strip()
        ]
    except ValueError:
        print(
            f"error: --workers expects integers, got {args.workers!r}",
            file=sys.stderr,
        )
        return 2
    progress = None if args.quiet else (lambda line: print(line, flush=True))

    try:
        if args.dataset is not None:
            workloads = [
                dataset_workload(
                    args.dataset, directed=args.directed, seed=args.seed
                )
            ]
        else:
            workloads = build_suite(
                families=families, scale=scale, seed=args.seed
            )
        results = run_suite(
            workloads,
            repetitions=repetitions,
            warmup=warmup,
            validate=not args.no_validate,
            index_cache=args.index_cache,
            workers=workers,
            worker_context=args.worker_context,
            stats_mode=args.stats,
            trace=args.trace or args.trace_dir is not None,
            trace_dir=args.trace_dir,
            mutation_rate=args.mutation_rate,
            progress=progress,
        )
    except (WorkloadError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossValidationError as exc:
        print(f"CROSS-VALIDATION FAILURE: {exc}", file=sys.stderr)
        return 1

    config_extra = (
        {"dataset": args.dataset, "directed": args.directed}
        if args.dataset is not None
        else {}
    )
    report = build_report(
        results,
        config={
            "scale": scale if args.dataset is None else "dataset",
            **config_extra,
            "repetitions": repetitions,
            "warmup": warmup,
            "seed": args.seed,
            "validate": not args.no_validate,
            "workers": workers,
            "worker_context": args.worker_context,
            "stats": args.stats,
            "trace": args.trace or args.trace_dir is not None,
            "mutation_rate": args.mutation_rate,
            "families": [workload.family for workload in workloads],
        },
    )
    path = write_report(report, args.output)
    if not args.quiet:
        print()
        print(render_table(report))
        print(f"\nreport written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
