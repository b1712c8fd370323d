"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-dynamic --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` runs the same workload with benchmark spans (and
the program's own tracer) switched on and reports the per-layer metrics,
writing every span to ``.perfbench_out/``.  Every answer is checked; any
failure is counted and makes the command exit 1 after printing.  See
``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchSetupError, emit_result, import_program, print_self_times  # noqa: E402

WORKLOADS = ("sweep-dynamic", "serve-skewed", "mutate-indexed")

#: (name, unit) of every end-to-end metric, reported by ``--trace 0`` runs.
END_TO_END = (
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, reported by ``--trace 1`` runs.
PER_LAYER = (
    ("traversal.tree_pops_per_query", "count"),
    ("traversal.refinements_per_query", "count"),
    ("traversal.settled_per_query", "count"),
    ("traversal.us_per_settled", "us"),
    ("index.build_ms", "ms"),
    ("index.hit_ratio", "ratio"),
    ("index.sources_dropped_per_update", "count"),
    ("index.known_ranks", "count"),
    ("graph.compile_ms", "ms"),
    ("graph.recompactions", "%"),
    ("graph.overlay_rows_mean", "count"),
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("pool.batch_ms_mean", "ms"),
    ("pool.busy_share", "ratio"),
    ("pool.ipc_bytes_per_query", "bytes"),
    ("pool.respawns", "count"),
    ("pool.fallback_batches", "count"),
    ("serve.batch_occupancy", "queries"),
    ("serve.flush_window_share", "ratio"),
    ("serve.overload_retries", "count"),
    ("serve.engine_share", "ratio"),
    ("journal.fsync_ms_mean", "ms"),
    ("journal.bytes_per_query", "bytes"),
    ("journal.compactions", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except BenchSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "sweep-dynamic":
        import sweep as workload
    elif args.workload == "serve-skewed":
        import serve as workload
    else:
        import mutate as workload
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        print_self_times(outcome.spans)
        path = outcome.spans.write(args.workload, args.seed)
        print(f"spans written to {path}", flush=True)
        table, values = PER_LAYER, outcome.layers
        unavailable = getattr(workload, "UNAVAILABLE", {})
        for name, _ in table:
            if name not in values:
                reason = unavailable.get(name, "not exercised by this workload")
                print(f"{name}: reported as 0, {reason}", flush=True)
    else:
        table, values = END_TO_END, outcome.end_to_end
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(
        f"error_rate: {error_rate:.6f} ({outcome.failed} of {outcome.attempted} "
        "operations failed)",
        flush=True,
    )
    correct = outcome.failed == 0 and outcome.attempted > 0
    emit_result(
        correct,
        max(1, outcome.attempted),
        outcome.failed,
        {name: (values.get(name, 0.0), unit) for name, unit in table},
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
