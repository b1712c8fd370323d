"""Tests for the batch query API (`ReverseKRanksEngine.query_many`).

Covers batch-vs-single equivalence for every algorithm, the CSR compile
cache, the per-batch LRU result cache, warm hub-index reuse across a batch,
bichromatic batches, and the stale-hub-index regression (a graph mutation
after index build must be rejected at query time, not silently served).
"""

from __future__ import annotations

import pytest

from repro.core import AlgorithmKind, ReverseKRanksEngine
from repro.core.hub_index import HubIndex
from repro.errors import (
    IndexParameterError,
    InvalidKError,
    InvalidQueryNodeError,
)
from repro.graph import CompactGraph

from conftest import sample_queries


ALL_KINDS = (
    AlgorithmKind.NAIVE,
    AlgorithmKind.STATIC,
    AlgorithmKind.DYNAMIC,
    AlgorithmKind.INDEXED,
)


def stats_without_time(result):
    payload = result.stats.as_dict()
    payload.pop("elapsed_seconds")
    return payload


@pytest.fixture()
def warm_engine(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    engine.build_index(num_hubs=3, capacity=16)
    return engine


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_matches_single_queries(warm_engine, random_gnp, kind):
    queries = sample_queries(random_gnp, 4)
    batch = warm_engine.query_many(queries, 3, algorithm=kind)
    assert len(batch) == len(queries)
    for query, result in zip(queries, batch):
        single = warm_engine.query(query, 3, algorithm=kind)
        assert result.query == query
        assert result.as_pairs() == single.as_pairs()


@pytest.mark.parametrize(
    "kind", (AlgorithmKind.STATIC, AlgorithmKind.DYNAMIC, AlgorithmKind.INDEXED)
)
def test_single_query_matches_batch_counters_and_reuses_compilation(
    random_gnp, kind
):
    engine = ReverseKRanksEngine(random_gnp)
    if kind is AlgorithmKind.INDEXED:
        engine.build_index(num_hubs=3, capacity=8)
    queries = sample_queries(random_gnp, 5)
    recompactions = engine.registry.get("repro_csr_recompactions_total")
    # Indexed queries learn; replay the batch from the same knowledge.
    state = engine.export_state()
    singles = [engine.query(query, 3, algorithm=kind) for query in queries]
    # query() runs on the cached compilation: one compile, ever.
    assert recompactions.value == 1
    if state is not None:
        engine.adopt_index(HubIndex.from_state(random_gnp, state))
    for query, single in zip(queries, singles):
        (batched,) = engine.query_many([query], 3, algorithm=kind)
        assert single.as_pairs() == batched.as_pairs()
        assert stats_without_time(single) == stats_without_time(batched)
    assert recompactions.value == 1


def test_engine_over_a_compilation_does_not_recompile(random_gnp):
    csr = CompactGraph.from_graph(random_gnp)
    engine = ReverseKRanksEngine(csr)
    assert engine.compact_graph() is csr
    queries = sample_queries(random_gnp, 3)
    assert [r.as_pairs() for r in engine.query_many(queries, 3)] == [
        r.as_pairs() for r in ReverseKRanksEngine(random_gnp).query_many(queries, 3)
    ]
    assert engine.registry.get("repro_csr_recompactions_total").value == 0


def test_csr_compiled_once_per_graph_version(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    first = engine.compact_graph()
    engine.query_many(sample_queries(random_gnp, 3), 2)
    # Same version -> same compilation object across batches.
    assert engine.compact_graph() is first


def test_csr_recompiled_after_mutation():
    from repro.graph import Graph

    graph = Graph()
    for node in range(5):
        graph.add_edge(node, node + 1, 1.0)
    engine = ReverseKRanksEngine(graph)
    stale = engine.compact_graph()
    graph.add_edge(0, 5, 0.5)
    fresh = engine.compact_graph()
    assert fresh is not stale
    assert fresh.source_version == graph.version
    # And the recompiled backend answers with the mutated topology.
    batch = engine.query_many([5], 2, algorithm=AlgorithmKind.NAIVE)
    assert batch[0].as_pairs() == engine.query(5, 2, "naive").as_pairs()


def test_lru_cache_returns_same_object(warm_engine, random_gnp):
    query = sample_queries(random_gnp, 1)[0]
    batch = warm_engine.query_many(
        [query, query, query], 3, algorithm="dynamic", cache_size=4
    )
    assert batch[0] is batch[1] is batch[2]


def test_lru_cache_disabled_by_default(warm_engine, random_gnp):
    query = sample_queries(random_gnp, 1)[0]
    batch = warm_engine.query_many([query, query], 3, algorithm="dynamic")
    assert batch[0] is not batch[1]
    assert batch[0].as_pairs() == batch[1].as_pairs()


def test_lru_cache_evicts_beyond_capacity(warm_engine, random_gnp):
    queries = sample_queries(random_gnp, 3)
    pattern = [queries[0], queries[1], queries[2], queries[0]]
    # Capacity 1: queries[0] is evicted before its second occurrence.
    batch = warm_engine.query_many(pattern, 2, algorithm="static", cache_size=1)
    assert batch[0] is not batch[3]
    assert batch[0].as_pairs() == batch[3].as_pairs()


def test_warm_index_learns_across_batch(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    engine.build_index(num_hubs=2, explore_limit=4, capacity=16)
    known_before = engine.index.num_known_ranks
    engine.query_many(sample_queries(random_gnp, 4), 3, algorithm="indexed")
    assert engine.index.num_known_ranks > known_before


def test_bichromatic_batch(bichromatic_case):
    engine = ReverseKRanksEngine(bichromatic_case.graph, partition=bichromatic_case)
    queries = sorted(bichromatic_case.facilities, key=repr)[:3]
    batch = engine.query_many(queries, 2, algorithm="dynamic")
    for query, result in zip(queries, batch):
        assert result.as_pairs() == engine.query(query, 2, "dynamic").as_pairs()
        assert all(bichromatic_case.is_community(node) for node in result.nodes())


def test_batch_validates_before_any_work(warm_engine, random_gnp):
    queries = sample_queries(random_gnp, 2) + ["missing"]
    with pytest.raises(InvalidQueryNodeError):
        warm_engine.query_many(queries, 3)
    with pytest.raises(InvalidKError):
        warm_engine.query_many(sample_queries(random_gnp, 2), 0)


@pytest.mark.parametrize("bad_k", (0, -1, True, 2.5))
def test_empty_batch_still_validates_k(warm_engine, bad_k):
    with pytest.raises(InvalidKError):
        warm_engine.query_many([], bad_k)


def test_empty_batch_with_valid_k_returns_empty(warm_engine):
    assert warm_engine.query_many([], 3) == []


def test_batch_indexed_requires_index(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    with pytest.raises(IndexParameterError):
        engine.query_many(sample_queries(random_gnp, 2), 2, algorithm="indexed")


# ----------------------------------------------------------------------
# Stale hub index regression (graph mutated after index build)
# ----------------------------------------------------------------------
def _mutable_graph():
    from repro.graph import Graph

    graph = Graph()
    for node in range(8):
        graph.add_edge(node, node + 1, 1.0)
    return graph


@pytest.mark.parametrize(
    "mutate",
    [
        lambda graph: graph.add_edge(0, 8, 0.25),
        lambda graph: graph.remove_edge(3, 4),
        lambda graph: graph.add_edge(0, 1, 0.1),  # weight update via collapse
        lambda graph: graph.add_node("isolated"),
        lambda graph: graph.remove_node(8),
    ],
)
def test_stale_index_rejected_at_query_time(mutate):
    graph = _mutable_graph()
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=2, capacity=8)
    assert engine.query(4, 2, "indexed").is_full()

    mutate(graph)
    with pytest.raises(IndexParameterError, match="stale"):
        engine.query(4, 2, "indexed")
    with pytest.raises(IndexParameterError, match="stale"):
        engine.query_many([4], 2, algorithm="indexed")
    # Non-indexed algorithms keep working on the mutated graph.
    assert engine.query(4, 2, "dynamic").rank_values() == engine.query(
        4, 2, "naive"
    ).rank_values()
    # Rebuilding restores indexed service.
    engine.build_index(num_hubs=2, capacity=8)
    assert engine.query(4, 2, "indexed").rank_values() == engine.query(
        4, 2, "naive"
    ).rank_values()


def test_noop_mutations_do_not_invalidate_index():
    graph = _mutable_graph()
    index = HubIndex.build(graph, num_hubs=2, capacity=8)
    graph.add_node(0)  # already present
    graph.add_edge(0, 1, 5.0)  # heavier parallel edge is collapsed away
    index.ensure_compatible(graph, 2)  # still fresh


def test_engine_rejects_stale_index_at_construction():
    graph = _mutable_graph()
    index = HubIndex.build(graph, num_hubs=2, capacity=8)
    graph.add_edge(0, 8, 0.25)
    with pytest.raises(IndexParameterError, match="stale"):
        ReverseKRanksEngine(graph, index=index)


# ----------------------------------------------------------------------
# The parallel branch must honour cache_size (regression)
# ----------------------------------------------------------------------
# query_many(workers=N, cache_size=M) used to return from the parallel
# branch before the cache machinery existed, silently dispatching every
# duplicate query to the workers.  The fix deduplicates parent-side
# before sharding and fans the unique results back out, so
# duplicate positions share one QueryResult object exactly like a
# sequential cache hit.

_HAVE_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()
_needs_fork = pytest.mark.skipif(
    not _HAVE_FORK, reason="fork start method unavailable"
)


@_needs_fork
def test_parallel_batch_honours_cache(random_gnp):
    queries = sample_queries(random_gnp, 3)
    pattern = [
        queries[0], queries[1], queries[0], queries[2],
        queries[1], queries[0],
    ]
    engine = ReverseKRanksEngine(random_gnp)
    engine.build_index(num_hubs=3, capacity=16)
    with engine:
        batch = engine.query_many(
            pattern, 3, algorithm="dynamic", workers=2,
            worker_context="fork", cache_size=4,
        )
        # Duplicate positions share one object (the cache contract)...
        assert batch[0] is batch[2] is batch[5]
        assert batch[1] is batch[4]
        assert batch[3] is not batch[0]
        # ...and every position answers its own query, in input order.
        reference = ReverseKRanksEngine(random_gnp)
        for query, result in zip(pattern, batch):
            assert result.as_pairs() == reference.query(
                query, 3, "dynamic"
            ).as_pairs()


@_needs_fork
def test_parallel_cache_single_unique_query_runs_sequentially(random_gnp):
    """All-duplicates batches collapse to one query: nothing to shard."""
    query = sample_queries(random_gnp, 1)[0]
    engine = ReverseKRanksEngine(random_gnp)
    with engine:
        batch = engine.query_many(
            [query] * 5, 3, algorithm="dynamic", workers=2,
            worker_context="fork", cache_size=4,
        )
        assert all(result is batch[0] for result in batch)
        # The degenerate batch never started the pool.
        assert engine._pool is None


@_needs_fork
def test_parallel_without_cache_still_dispatches_duplicates(random_gnp):
    query = sample_queries(random_gnp, 2)
    pattern = [query[0], query[1], query[0]]
    engine = ReverseKRanksEngine(random_gnp)
    with engine:
        batch = engine.query_many(
            pattern, 3, algorithm="dynamic", workers=2, worker_context="fork",
        )
        assert batch[0] is not batch[2]
        assert batch[0].as_pairs() == batch[2].as_pairs()

@_needs_fork
def test_parallel_min_batch_one_dispatches_singles(random_gnp):
    """parallel_min_batch=1 sends even a lone query through the pool.

    The serving benchmark's one-query-per-request baseline depends on
    this: without the knob the single-query fallback would quietly
    measure the sequential path instead of per-request dispatch cost.
    """
    query = sample_queries(random_gnp, 1)[0]
    engine = ReverseKRanksEngine(random_gnp)
    engine.parallel_min_batch = 1
    with engine:
        batch = engine.query_many(
            [query], 3, algorithm="dynamic", workers=2,
            worker_context="fork",
        )
        assert engine._pool is not None
        reference = ReverseKRanksEngine(random_gnp)
        assert batch[0].as_pairs() == reference.query(
            query, 3, "dynamic"
        ).as_pairs()
