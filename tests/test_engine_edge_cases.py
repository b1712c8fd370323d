"""Edge-case contracts of the engine/API surface.

The engine validates strictly before dispatching (the low-level algorithm
functions keep the permissive "shorter result" semantics for the
experiment code): every degenerate input maps to a documented
:mod:`repro.errors` exception.
"""

from __future__ import annotations

import pytest

from repro.core import AlgorithmKind, ReverseKRanksEngine
from repro.core.bichromatic import bichromatic_reverse_k_ranks
from repro.errors import (
    BichromaticError,
    IndexCapacityError,
    IndexParameterError,
    InvalidKError,
    InvalidQueryNodeError,
)
from repro.graph import BichromaticPartition, Graph


ALL_KINDS = tuple(AlgorithmKind)


@pytest.fixture()
def engine(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    engine.build_index(num_hubs=3, capacity=8)
    return engine


# ----------------------------------------------------------------------
# k validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad_k", (0, -1, -17, True, False, 2.5, "3", None))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_non_positive_or_non_int_k_raises(engine, bad_k, kind):
    with pytest.raises(InvalidKError):
        engine.query(0, bad_k, algorithm=kind)
    with pytest.raises(InvalidKError):
        engine.query_many([0], bad_k, algorithm=kind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_k_beyond_candidate_count_raises(engine, random_gnp, kind):
    too_large = random_gnp.num_nodes  # candidates are |V| - 1
    with pytest.raises(InvalidKError):
        engine.query(0, too_large, algorithm=kind)
    with pytest.raises(InvalidKError):
        engine.query_many([0], too_large, algorithm=kind)


def test_k_at_candidate_count_is_legal(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    result = engine.query(0, random_gnp.num_nodes - 1, "dynamic")
    # Fewer entries than k are legal when some nodes cannot reach the query.
    assert len(result) <= random_gnp.num_nodes - 1


# ----------------------------------------------------------------------
# Query node validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_absent_query_node_raises(engine, kind):
    with pytest.raises(InvalidQueryNodeError):
        engine.query("missing", 2, algorithm=kind)
    with pytest.raises(InvalidQueryNodeError):
        engine.query_many(["missing"], 2, algorithm=kind)


def test_empty_graph_rejects_every_query():
    engine = ReverseKRanksEngine(Graph())
    with pytest.raises(InvalidQueryNodeError):
        engine.query("anything", 1)
    with pytest.raises(InvalidQueryNodeError):
        engine.query_many(["anything"], 1)


def test_single_node_graph_has_no_candidates():
    graph = Graph()
    graph.add_node("only")
    engine = ReverseKRanksEngine(graph)
    # The node exists, but no k >= 1 can ever be satisfied.
    with pytest.raises(InvalidKError):
        engine.query("only", 1)
    with pytest.raises(InvalidQueryNodeError):
        engine.query("other", 1)


# ----------------------------------------------------------------------
# Bichromatic contracts
# ----------------------------------------------------------------------
@pytest.fixture()
def bichromatic_engine(bichromatic_case):
    return ReverseKRanksEngine(bichromatic_case.graph, partition=bichromatic_case)


def test_bichromatic_rejects_community_query_node(bichromatic_engine, bichromatic_case):
    community = sorted(bichromatic_case.communities, key=repr)[0]
    with pytest.raises(BichromaticError):
        bichromatic_engine.query(community, 2)
    with pytest.raises(BichromaticError):
        bichromatic_engine.query_many([community], 2)


def test_bichromatic_accepts_facility_query_node(bichromatic_engine, bichromatic_case):
    facility = sorted(bichromatic_case.facilities, key=repr)[0]
    result = bichromatic_engine.query(facility, 2)
    assert all(bichromatic_case.is_community(node) for node in result.nodes())


def test_bichromatic_k_limited_by_community_count(bichromatic_engine, bichromatic_case):
    facility = sorted(bichromatic_case.facilities, key=repr)[0]
    with pytest.raises(InvalidKError):
        bichromatic_engine.query(facility, bichromatic_case.num_communities + 1)


def test_bichromatic_engine_rejects_indexed_algorithm(
    bichromatic_engine, bichromatic_case
):
    facility = sorted(bichromatic_case.facilities, key=repr)[0]
    with pytest.raises(IndexParameterError):
        bichromatic_engine.query(facility, 2, AlgorithmKind.INDEXED)
    with pytest.raises(IndexParameterError):
        bichromatic_engine.query_many([facility], 2, algorithm="indexed")


def test_partition_requires_both_classes(random_gnp):
    with pytest.raises(BichromaticError):
        BichromaticPartition(random_gnp, [])
    with pytest.raises(BichromaticError):
        BichromaticPartition(random_gnp, list(random_gnp.nodes()))


# ----------------------------------------------------------------------
# Index contracts
# ----------------------------------------------------------------------
def test_indexed_without_index_raises(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    with pytest.raises(IndexParameterError):
        engine.query(0, 2, AlgorithmKind.INDEXED)


def test_k_beyond_index_capacity_raises(engine):
    # capacity=8 but k=10 is within |V| - 1, so only the index rejects it.
    with pytest.raises(IndexCapacityError):
        engine.query(0, 10, AlgorithmKind.INDEXED)
    # Non-indexed algorithms accept the same k.
    assert engine.query(0, 10, AlgorithmKind.DYNAMIC) is not None


def test_index_for_different_graph_rejected(random_gnp, weighted_grid):
    engine = ReverseKRanksEngine(random_gnp)
    index = engine.build_index(num_hubs=2, capacity=8)
    with pytest.raises(IndexParameterError):
        ReverseKRanksEngine(weighted_grid, index=index)


def test_unknown_algorithm_name_raises(engine):
    with pytest.raises(ValueError):
        engine.query(0, 2, algorithm="no-such-algorithm")
    with pytest.raises(ValueError):
        engine.query_many([0], 2, algorithm="no-such-algorithm")


# ----------------------------------------------------------------------
# Bichromatic mask caching (per graph version)
# ----------------------------------------------------------------------
def test_partition_masks_cached_per_graph_version(random_gnp, bichromatic_case):
    graph = random_gnp
    engine = ReverseKRanksEngine(graph, partition=bichromatic_case)
    queries = sorted(bichromatic_case.facilities, key=repr)[:3]

    first = engine.query_many(queries, 3, algorithm="dynamic")
    masks = engine._masks
    assert masks is not None
    candidate_mask, counted_mask = masks
    compact = engine.compact_graph()
    for index, node in enumerate(compact.node_ids):
        assert bool(candidate_mask[index]) == bichromatic_case.is_candidate(node)
        assert bool(counted_mask[index]) == bichromatic_case.is_counted(node)

    # A second batch on the same graph version reuses the same objects.
    engine.query_many(queries, 3, algorithm="static")
    assert engine._masks is masks

    # Cached masks answer identically to per-query predicate evaluation
    # (the bare entry point builds its masks from the predicates).
    for query, batched in zip(queries, first):
        assert bichromatic_reverse_k_ranks(
            bichromatic_case, query, 3
        ).as_pairs() == batched.as_pairs()


def test_partition_masks_recomputed_after_mutation(random_gnp, bichromatic_case):
    graph = random_gnp.copy()
    facilities = [node for node in bichromatic_case.facilities]
    partition = BichromaticPartition(graph, facilities)
    engine = ReverseKRanksEngine(graph, partition=partition)
    queries = sorted(partition.facilities, key=repr)[:2]

    engine.query_many(queries, 2, algorithm="dynamic")
    stale_masks = engine._masks
    graph.add_edge(0, 9, 0.75)
    refreshed = engine.query_many(queries, 2, algorithm="dynamic")
    assert engine._masks is not stale_masks
    # And the refreshed batch agrees with per-query predicate evaluation on
    # the mutated graph (masks were rebuilt for the new compilation).
    unmasked = [
        bichromatic_reverse_k_ranks(partition, query, 2) for query in queries
    ]
    assert [r.as_pairs() for r in refreshed] == [r.as_pairs() for r in unmasked]
