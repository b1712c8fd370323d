"""Seeded differential fuzz sweep: codec-round-tripped parallel batches
must be bit-identical to sequential ones.

Each seed generates a random graph (size, density, directedness and
weight distribution all drawn from the seed), a random query batch and a
random ``k``, answers the batch sequentially, then re-answers it through
the 2-worker shard pool under **every** ``stats`` mode and asserts the
rebuilt results carry exactly the sequential ranks, node ids and entry
order.  Every case also exercises a second k, and dedicated seed classes
cover the bichromatic engine and warm-index (hub-indexed) runs — the
latter asserting rank-value identity plus boundary-tie equivalence, the
engine's documented parallel-indexed guarantee (worker index snapshots
lag the master's learning, which may swap entries tied exactly at the
boundary rank, never a rank value).

The sweep spawns one process pool per seed, so it is marked ``slow`` and
excluded from the tier-1 ``-m "not slow"`` CI split; a dedicated CI job
runs it on one interpreter.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.core import ReverseKRanksEngine
from repro.core.types import STATS_MODES
from repro.core.validation import results_equivalent
from repro.graph import BichromaticPartition, GraphBuilder

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable"),
]

#: Size of the sweep; the ISSUE floor is 40 random graphs.
NUM_SEEDS = 40


def _random_graph(rng: random.Random):
    """A seeded random graph with varied shape, density and weights."""
    num_nodes = rng.randint(8, 26)
    directed = rng.random() < 0.3
    probability = rng.uniform(0.15, 0.45)
    tie_heavy = rng.random() < 0.3
    builder = GraphBuilder(directed=directed, name=f"fuzz-{num_nodes}")
    for node in range(num_nodes):
        builder.add_node(node)
    for source in range(num_nodes):
        for target in range(num_nodes):
            if source == target or (not directed and source >= target):
                continue
            if rng.random() < probability:
                weight = (
                    rng.choice([1.0, 1.0, 2.0])
                    if tie_heavy
                    else round(rng.uniform(0.5, 4.0), 2)
                )
                builder.add_interaction(source, target, weight)
    return builder.build()


def _pick_queries(rng: random.Random, nodes, count):
    return rng.sample(sorted(nodes, key=repr), min(count, len(nodes)))


def _entry_triples(results):
    """The bit-identity signature: per result, (node, rank) in entry order."""
    return [[(entry.node, entry.rank) for entry in result.entries] for result in results]


def _assert_bit_identical(sequential, parallel, context):
    assert _entry_triples(parallel) == _entry_triples(sequential), context
    assert [r.query for r in parallel] == [r.query for r in sequential], context
    assert [r.k for r in parallel] == [r.k for r in sequential], context


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_parallel_codec_differential(seed):
    rng = random.Random(0xC0DEC + seed)
    graph = _random_graph(rng)
    variant = seed % 4  # 0/1: monochromatic, 2: bichromatic, 3: warm index

    if variant == 2:
        _run_bichromatic_case(rng, graph, seed)
    elif variant == 3:
        _run_warm_index_case(rng, graph, seed)
    else:
        _run_monochromatic_case(rng, graph, seed)


def _run_monochromatic_case(rng, graph, seed):
    nodes = list(graph.nodes())
    queries = _pick_queries(rng, nodes, rng.randint(4, 8))
    algorithm = rng.choice(["naive", "static", "dynamic"])
    # Draw (and drop) the former shard-policy pick so every seed keeps
    # generating the same k values.
    rng.choice(["round_robin", "cost", "affinity"])
    k_values = sorted(
        {rng.randint(1, max(1, graph.num_nodes // 3)), rng.randint(1, 4)}
    )
    with ReverseKRanksEngine(graph) as engine:
        for k in k_values:
            sequential = engine.query_many(queries, k, algorithm=algorithm)
            for mode in STATS_MODES:
                parallel = engine.query_many(
                    queries, k, algorithm=algorithm, workers=2,
                    worker_context="fork",
                    stats=mode,
                )
                _assert_bit_identical(
                    sequential, parallel,
                    f"seed={seed} algorithm={algorithm} k={k} stats={mode}",
                )
                if mode == "per-query":
                    # The codec must also round-trip every work counter.
                    for expected, actual in zip(sequential, parallel):
                        left = expected.stats.as_dict()
                        right = actual.stats.as_dict()
                        left.pop("elapsed_seconds")
                        right.pop("elapsed_seconds")
                        assert left == right, f"seed={seed} query={expected.query!r}"


def _run_bichromatic_case(rng, graph, seed):
    nodes = sorted(graph.nodes(), key=repr)
    facilities = [node for node in nodes if node % rng.choice([2, 3]) == 0]
    if len(facilities) < 3 or len(facilities) > graph.num_nodes - 2:
        facilities = nodes[: max(3, graph.num_nodes // 2)]
    partition = BichromaticPartition(graph, facilities)
    queries = _pick_queries(rng, facilities, rng.randint(3, 6))
    k = rng.randint(1, max(1, partition.num_communities // 2))
    algorithm = rng.choice(["static", "dynamic"])
    with ReverseKRanksEngine(graph, partition=partition) as engine:
        sequential = engine.query_many(queries, k, algorithm=algorithm)
        for mode in STATS_MODES:
            parallel = engine.query_many(
                queries, k, algorithm=algorithm, workers=2,
                worker_context="fork", stats=mode,
            )
            _assert_bit_identical(
                sequential, parallel,
                f"seed={seed} bichromatic {algorithm} k={k} stats={mode}",
            )


def _run_warm_index_case(rng, graph, seed):
    nodes = list(graph.nodes())
    queries = _pick_queries(rng, nodes, rng.randint(4, 8))
    k = rng.randint(1, 4)
    with ReverseKRanksEngine(graph) as engine:
        engine.build_index(num_hubs=rng.randint(2, 5), capacity=max(8, k))
        # Warm the master index sequentially first, so the pool snapshot
        # carries real learned state into the workers.
        engine.query_many(queries, k, algorithm="indexed")
        sequential = engine.query_many(queries, k, algorithm="indexed")
        for mode in STATS_MODES:
            parallel = engine.query_many(
                queries, k, algorithm="indexed", workers=2,
                worker_context="fork", stats=mode,
            )
            context = f"seed={seed} warm-index k={k} stats={mode}"
            # Rank values must be bit-identical; entry identity is allowed
            # to differ only for ties exactly at the boundary rank (worker
            # snapshots lag the continuously-learning master).
            assert [r.rank_values() for r in parallel] == [
                r.rank_values() for r in sequential
            ], context
            for expected, actual in zip(sequential, parallel):
                assert results_equivalent(expected, actual), context
