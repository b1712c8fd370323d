"""``mutate-indexed``: reads right after writes on an indexed in-process engine.

Each round applies one ``apply_updates`` batch of four valid-by-construction
edge operations, then answers eight uniform ``indexed`` queries in one
``query_many`` call.  The only workload with writes: it exercises CSR
overlays and recompaction in ``repro.graph`` and ``HubIndex.repair`` in
``repro.core``, then reads straight after the invalidation.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

from common import (
    EDGE_WEIGHT_RANGE,
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

NUM_NODES = 600
AVG_DEGREE = 6.0
OPS_PER_BATCH = 4
READS_PER_ROUND = 8
#: Share of the non-removal ops that lower an existing edge's weight
#: (the rest insert a new edge).
REWEIGHT_SHARE = 0.25
#: Count-type layer metrics cover this fixed prefix of rounds, so they
#: repeat exactly for a given seed whatever the speed.
COUNTER_ROUNDS = 64
#: The phase runs this many rounds per ``--seconds``, about the pace at
#: the probe's reference speed.  A count rather than a deadline makes
#: every run of a seed do the same work, however fast the machine is
#: at the time.
ROUNDS_PER_SECOND = 20
#: Every this many rounds (and the last) is checked against a fresh engine.
CHECK_EVERY = 4
SETUP_REPEATS = 15


class MutationPlan:
    """Seeded update batches, valid against a plain-Python mirror of the edges.

    A batch never names one undirected edge twice and only removes edges
    the mirror holds; reweights only lower a weight (a higher one would
    be a no-op, since parallel edges collapse to the minimum).
    """

    def __init__(self, num_nodes: int, edges, rng: random.Random) -> None:
        self._num_nodes = num_nodes
        self._rng = rng
        self._weights = {(source, target): weight for source, target, weight in edges}
        self._keys = list(self._weights)
        self._slots = {key: slot for slot, key in enumerate(self._keys)}

    def _random_edge(self):
        return self._keys[self._rng.randrange(len(self._keys))]

    def _drop(self, key) -> None:
        slot = self._slots.pop(key)
        last = self._keys.pop()
        if last != key:
            self._keys[slot] = last
            self._slots[last] = slot
        del self._weights[key]

    def _put(self, key, weight: float) -> None:
        if key not in self._weights:
            self._slots[key] = len(self._keys)
            self._keys.append(key)
        self._weights[key] = weight

    def next_batch(self):
        rng = self._rng
        used = set()
        removals, writes = [], []
        while len(removals) < OPS_PER_BATCH // 2:
            key = self._random_edge()
            if key not in used:
                used.add(key)
                removals.append(key)
        while len(removals) + len(writes) < OPS_PER_BATCH:
            if rng.random() < REWEIGHT_SHARE:
                key = self._random_edge()
                current = self._weights[key]
                weight = float(round(rng.uniform(EDGE_WEIGHT_RANGE[0], current)))
                if weight >= current:
                    continue
            else:
                key = tuple(sorted(rng.sample(range(self._num_nodes), 2)))
                if key in self._weights:
                    continue
                weight = float(round(rng.uniform(*EDGE_WEIGHT_RANGE)))
            if key not in used:
                used.add(key)
                writes.append((key, weight))
        for key in removals:
            self._drop(key)
        for key, weight in writes:
            self._put(key, weight)
        return [("remove_edge", *key) for key in removals] + [
            ("add_edge", *key, weight) for key, weight in writes
        ]


def read_stream(rng: random.Random):
    """Uniform read queries, stratified: each pass asks every node once.

    Without replacement within a pass, the few costly nodes that set p99
    are read as often in every run instead of by chance.
    """
    nodes = list(range(NUM_NODES))
    while True:
        rng.shuffle(nodes)
        yield from nodes


def apply_to_shadow(shadow, ops) -> None:
    """Mirror one batch onto a plain ``Graph`` with the graph's own methods."""
    for op in ops:
        if op[0] == "remove_edge":
            shadow.remove_edge(op[1], op[2])
        else:
            shadow.add_edge(op[1], op[2], op[3])


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.engine import ReverseKRanksEngine
    from repro.core.validation import results_equivalent

    # The graph and the read order are the same for every seed; the seed
    # picks the mutation batches.  Seeded read orders regrouped the few
    # costly queries into different batches on every seed, which moved
    # p99 of a run's ~300 read batches by up to 1.7x.
    edges = gnp_edges(NUM_NODES, AVG_DEGREE, random.Random("mutate-indexed:graph"))
    rng = random.Random(f"mutate-indexed:{seed}")
    plan = MutationPlan(NUM_NODES, edges, random.Random(rng.getrandbits(64)))
    reads = read_stream(random.Random("mutate-indexed:reads"))
    spans = SpanLog(trace)
    outcome = Outcome()
    probe = SpeedProbe()

    compile_times, build_times, setup_times = [], [], []
    for attempt in range(SETUP_REPEATS):
        engine = None
        probe.sample()
        start = time.perf_counter()
        engine = ReverseKRanksEngine(build_graph(NUM_NODES, edges))
        with spans.span("bench.compile", f"setup-{attempt}"):
            compile_start = time.perf_counter()
            engine.compact_graph()
            compile_times.append(time.perf_counter() - compile_start)
        with spans.span("bench.index_build", f"setup-{attempt}"):
            build_start = time.perf_counter()
            engine.build_index(num_hubs="auto", explore_limit="auto")
            build_times.append(time.perf_counter() - build_start)
        setup_times.append((start, time.perf_counter() - start))
    shadow = engine.graph.copy()
    probe.sample()

    rounds = []
    known_ranks = 0
    phase_start = time.perf_counter()
    while True:
        probe.tick()
        index = len(rounds)
        traced = trace and index % 4 in (1, 2)  # untraced, traced, traced, untraced
        engine.tracer.enabled = traced
        ops = plan.next_batch()
        queries = [next(reads) for _ in range(READS_PER_ROUND)]
        record = {"ops": ops, "queries": queries, "traced": traced, "report": None,
                  "results": None, "snapshot": None}
        round_start = time.perf_counter()
        span = spans.span("bench.update", f"r{index}") if traced else nullcontext()
        with span:
            outcome.attempted += 1
            try:
                report = engine.apply_updates(ops)
                # Keep only the counts: a report's index delta holds re-learned
                # ranks, and keeping every delta would inflate peak_rss_mb.
                record["report"] = (
                    len(report.index_delta.removed_sources) if report.index_delta else 0,
                    report.recompacted,
                    report.overlay_rows,
                )
            except Exception as exc:  # a program failure is a counted failure
                outcome.fail(f"update round {index}", repr(exc))
                record["snapshot"] = engine.graph.copy()
        read_start = time.perf_counter()
        span = spans.span("bench.query", f"r{index}") if traced else nullcontext()
        with span as query_span:
            outcome.attempted += 1
            try:
                record["results"] = engine.query_many(queries, K, algorithm="indexed")
            except Exception as exc:
                outcome.fail(f"read round {index}", repr(exc))
        round_end = time.perf_counter()
        if traced:
            spans.graft(query_span, engine.last_trace)
        record["update_s"] = read_start - round_start
        record["read_s"] = round_end - read_start
        record["start"] = round_start
        rounds.append(record)
        if index + 1 == COUNTER_ROUNDS:
            known_ranks = engine.index.num_known_ranks
        if len(rounds) >= max(COUNTER_ROUNDS, round(ROUNDS_PER_SECOND * seconds)):
            break
    elapsed_phase = time.perf_counter() - phase_start
    probe.sample()
    rss_mb = peak_rss_mb()
    for record in rounds:
        record["scaled_update_s"] = probe.scale(record["start"], record["update_s"])
        record["scaled_read_s"] = probe.scale(record["start"] + record["update_s"], record["read_s"])

    # --- correctness: sampled rounds against a fresh engine -------------
    for index, record in enumerate(rounds):
        if record["snapshot"] is not None:
            shadow = record["snapshot"]
        else:
            apply_to_shadow(shadow, record["ops"])
        if record["results"] is None or (index % CHECK_EVERY and index + 1 < len(rounds)):
            continue
        # ``static`` (no dynamic bounds) is the reference: ``dynamic``'s
        # parent bound can drop a true answer when float distance sums
        # break an exact tie, and ``indexed`` shares that bound.
        expected = ReverseKRanksEngine(shadow).query_many(
            record["queries"], K, algorithm="static"
        )
        if not all(map(results_equivalent, expected, record["results"])):
            outcome.fail(f"read round {index}", "answer differs from a fresh engine's static answer")

    answered = [record for record in rounds if record["results"] is not None]
    read_latency = latency_summary(
        "latency per read batch", [r["scaled_read_s"] for r in answered]
    )
    reads_done = READS_PER_ROUND * len(answered)
    print(f"{len(rounds)} rounds in {elapsed_phase:.2f} s", flush=True)
    probe.report()
    outcome.end_to_end = {
        # Reads over the time of every round, updates included.
        "throughput_qps": reads_done / sum(r["scaled_update_s"] + r["scaled_read_s"] for r in rounds),
        "latency_p50_ms": read_latency["p50_ms"],
        "latency_p99_ms": read_latency["p99_ms"],
        "setup_s": median([probe.scale(start, seconds) for start, seconds in setup_times]),
        "peak_rss_mb": rss_mb,
    }

    prefix = rounds[:COUNTER_ROUNDS]
    stats = [result.stats for r in prefix if r["results"] for result in r["results"]]
    reports = [r["report"] for r in prefix if r["report"] is not None]
    candidates = sum(
        s.answered_by_index + s.pruned_by_bound + s.pruned_by_check_dictionary + s.rank_refinements
        for s in stats
    )
    untraced = [r for r in answered if not r["traced"]]
    untraced_settled = sum(
        result.stats.refinement_nodes_settled for r in untraced for result in r["results"]
    )
    update_latency = latency_summary(
        "latency per update batch", [r["update_s"] for r in rounds if r["report"] is not None]
    )
    outcome.layers = {
        "traversal.tree_pops_per_query": mean([s.tree_pops for s in stats]),
        "traversal.refinements_per_query": mean([s.rank_refinements for s in stats]),
        "traversal.settled_per_query": mean([s.refinement_nodes_settled for s in stats]),
        "traversal.us_per_settled": sum(r["read_s"] for r in untraced) * 1e6 / max(1, untraced_settled),
        "index.build_ms": median(build_times) * 1e3,
        "index.hit_ratio": sum(s.answered_by_index for s in stats) / max(1, candidates),
        "index.sources_dropped_per_update": mean([dropped for dropped, _, _ in reports]),
        "index.known_ranks": known_ranks,
        "graph.compile_ms": median(compile_times) * 1e3,
        "graph.recompactions": 100.0 * mean([recompacted for _, recompacted, _ in reports]),
        "graph.overlay_rows_mean": mean([rows for _, _, rows in reports]),
        "update_p50_ms": update_latency["p50_ms"],
        "update_p99_ms": update_latency["p99_ms"],
    }
    if trace:
        def qps(traced: bool) -> float:
            chosen = [r for r in answered if r["traced"] == traced]
            return READS_PER_ROUND * len(chosen) / sum(r["update_s"] + r["read_s"] for r in chosen)

        outcome.layers["obs.trace_overhead_ratio"] = qps(False) / qps(True)
    outcome.spans = spans
    return outcome
