"""``sweep-dynamic``: one in-process ``dynamic`` query per ``query_many`` call.

No index, pool or server: nearly all time is SDS-tree expansion and rank
refinement in ``repro.traversal``, so traversal changes show here and
serve/pool/journal changes have nothing to move.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

from common import (
    K,
    Outcome,
    SpanLog,
    SpeedProbe,
    build_graph,
    gnp_edges,
    latency_summary,
    mean,
    median,
    peak_rss_mb,
)

NUM_NODES = 1000
AVG_DEGREE = 6.0
SETUP_REPEATS = 25
#: The phase runs this many queries per ``--seconds`` (rounded to whole
#: passes), about the pace at the probe's reference speed.  A count
#: rather than a deadline makes every run do the same work, however fast
#: the machine is at the time.
QUERIES_PER_SECOND = 150
NAIVE_SPOT_CHECKS = 2


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.engine import ReverseKRanksEngine
    from repro.core.validation import results_equivalent

    # The graph is the same for every seed, so every run does the same
    # work; the seed orders the queries.  A pass asks every node once,
    # and the measured phase is a fixed number of whole passes.
    # Each query's time is its median over the passes, which drops a
    # burst of machine noise that hits a minority of the passes.
    edges = gnp_edges(NUM_NODES, AVG_DEGREE, random.Random("sweep-dynamic:graph"))
    order = list(range(NUM_NODES))
    random.Random(f"sweep-dynamic:{seed}").shuffle(order)
    spans = SpanLog(trace)
    outcome = Outcome()
    probe = SpeedProbe()

    compile_times = []

    def setup():
        graph = build_graph(NUM_NODES, edges)
        engine = ReverseKRanksEngine(graph)
        with spans.span("bench.compile", f"setup-{len(compile_times)}"):
            start = time.perf_counter()
            engine.compact_graph()
            compile_times.append(time.perf_counter() - start)
        return engine

    setup_times = []  # (start, seconds)
    for _ in range(SETUP_REPEATS):
        engine = None
        probe.sample()
        start = time.perf_counter()
        engine = setup()
        setup_times.append((start, time.perf_counter() - start))
    probe.sample()

    untraced_s = []  # per-call (start, latency), tracing off, in call order
    traced_s = []  # per-call latency of the traced twin (trace runs only)
    untraced_settled = 0

    def call(query: int, index: int, traced: bool):
        probe.tick()
        engine.tracer.enabled = traced
        outcome.attempted += 1
        span = spans.span("bench.query", f"q{index}", query=query) if traced else nullcontext()
        with span as record:
            start = time.perf_counter()
            try:
                result = engine.query_many([query], K, algorithm="dynamic")[0]
            except Exception as exc:  # a program failure is a counted failure
                outcome.fail(f"query {query}", repr(exc))
                result = None
            elapsed = time.perf_counter() - start
        if traced:
            traced_s.append(elapsed)
            spans.graft(record, engine.last_trace)
        else:
            untraced_s.append((start, elapsed))
        return result

    # Trace runs answer each query untraced and traced back to back, in
    # alternating order, so the tracing overhead is measured on identical
    # work; untraced runs answer it once.
    orders = ((False, True), (True, False)) if trace else ((False,),)
    first_pass = {}  # query -> its first answer; later passes must repeat it
    passes = max(1, round(QUERIES_PER_SECOND * seconds / NUM_NODES))
    phase_start = time.perf_counter()
    for index in range(passes * NUM_NODES):
        query = order[index % NUM_NODES]
        for traced in orders[index % len(orders)]:
            result = call(query, index, traced)
            if result is None:
                continue
            if index < NUM_NODES and not traced:
                untraced_settled += result.stats.refinement_nodes_settled
            expected = first_pass.setdefault(query, result)
            if result.as_pairs() != expected.as_pairs():
                outcome.fail(f"query {query}", "answer differs from the first pass")
    probe.sample()
    elapsed_phase = time.perf_counter() - phase_start
    rss_mb = peak_rss_mb()

    # --- correctness, outside the timed phase ---------------------------
    reference_engine = ReverseKRanksEngine(build_graph(NUM_NODES, edges))
    nodes = list(range(NUM_NODES))
    reference = dict(zip(nodes, reference_engine.query_many(nodes, K, algorithm="dynamic")))
    for query, result in first_pass.items():
        if result.as_pairs() != reference[query].as_pairs():
            outcome.fail(f"query {query}", "answer differs from the reference batch")
    for query in order[:NAIVE_SPOT_CHECKS]:
        outcome.attempted += 1
        naive = reference_engine.query_many([query], K, algorithm="naive")[0]
        if not results_equivalent(naive, reference[query]):
            outcome.fail(f"naive spot check {query}", "reference differs from naive")

    scaled = [probe.scale(start, seconds) for start, seconds in untraced_s]
    per_query = [median(scaled[position::NUM_NODES]) for position in range(NUM_NODES)]
    print(f"{passes} passes in {elapsed_phase:.2f} s", flush=True)
    probe.report()
    latency = latency_summary("latency per query (median over passes)", per_query)
    outcome.end_to_end = {
        "throughput_qps": NUM_NODES / sum(per_query),
        "latency_p50_ms": latency["p50_ms"],
        "latency_p99_ms": latency["p99_ms"],
        "setup_s": median([probe.scale(start, seconds) for start, seconds in setup_times]),
        "peak_rss_mb": rss_mb,
    }
    first = [result.stats for result in first_pass.values()]
    outcome.layers = {
        "traversal.tree_pops_per_query": mean([s.tree_pops for s in first]),
        "traversal.refinements_per_query": mean([s.rank_refinements for s in first]),
        "traversal.settled_per_query": mean([s.refinement_nodes_settled for s in first]),
        "traversal.us_per_settled": (
            sum(seconds for _, seconds in untraced_s[:NUM_NODES]) * 1e6 / max(1, untraced_settled)
        ),
        "graph.compile_ms": median(compile_times) * 1e3,
    }
    if trace:
        outcome.layers["obs.trace_overhead_ratio"] = (
            sum(traced_s) / sum(seconds for _, seconds in untraced_s)
        )
    outcome.spans = spans
    return outcome
