"""Cross-validation: every optimised algorithm against the naive baseline.

These are the repository's core correctness guarantee — static, dynamic and
indexed results must be interchangeable with brute force on every fixture
graph, every ``k``, in directed, tie-heavy and bichromatic settings, and
with a warm (query-updated) hub index.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BoundSet,
    HubIndex,
    dynamic_reverse_k_ranks,
    naive_reverse_k_ranks,
    results_equivalent,
    validate_against_naive,
)
from repro.errors import CrossValidationError

from conftest import sample_queries

K_VALUES = (1, 2, 4, 8)


@pytest.mark.parametrize("k", K_VALUES)
def test_static_and_dynamic_match_naive(any_graph, k):
    for query in sample_queries(any_graph):
        validate_against_naive(any_graph, query, k)


@pytest.mark.parametrize("k", (1, 3, 6))
def test_every_bound_combination_matches_naive(random_gnp, k):
    presets = [
        BoundSet.parent_only(),
        BoundSet.parent_and_count(),
        BoundSet.parent_and_height(),
        BoundSet.all(),
    ]
    for bounds in presets:
        for query in sample_queries(random_gnp):
            validate_against_naive(random_gnp, query, k, bounds=bounds)


@pytest.mark.parametrize("k", (1, 2, 5))
def test_indexed_matches_naive_with_cold_and_warm_index(random_gnp, k):
    index = HubIndex.build(random_gnp, num_hubs=4, capacity=16)
    # Two passes: the second runs against an index warmed by the first
    # pass's refinements (the Algorithm-4 update path).
    for _ in range(2):
        for query in sample_queries(random_gnp, count=4):
            validate_against_naive(random_gnp, query, k, index=index)


@pytest.mark.parametrize("k", (1, 2, 5))
def test_indexed_matches_naive_on_tie_heavy_graph(tie_heavy_graph, k):
    index = HubIndex.build(tie_heavy_graph, num_hubs=3, capacity=16)
    for query in sample_queries(tie_heavy_graph, count=4):
        validate_against_naive(tie_heavy_graph, query, k, index=index)


@pytest.mark.parametrize("k", (1, 2, 4))
def test_bichromatic_matches_naive(bichromatic_case, k):
    for query in sorted(bichromatic_case.facilities, key=repr)[:4]:
        validate_against_naive(bichromatic_case.graph, query, k, partition=bichromatic_case)


@pytest.mark.parametrize("k", (1, 3, 7))
def test_directed_matches_naive_every_query_node(directed_gnp, k):
    for query in directed_gnp.nodes():
        validate_against_naive(directed_gnp, query, k)


@pytest.mark.parametrize(
    "bounds", (BoundSet.parent_and_height(), BoundSet.all())
)
def test_height_bound_ignores_zero_distance_ancestors(bounds):
    # a, b, c tie with q at distance 0 along zero-weight edges, so none of
    # them is strictly closer to e than q and Rank(e, q) = 1.  Counting
    # them as tree-height ancestors would bound e at 4 and prune it once
    # h's rank 3 sets kRank = 3.
    from repro.graph import Graph

    graph = Graph(directed=True)
    for source, target, weight in (
        ("a", "q", 0.0), ("b", "a", 0.0), ("c", "b", 0.0), ("e", "c", 1.0),
        ("h", "q", 0.5), ("h", "x", 0.1), ("h", "y", 0.2),
    ):
        graph.add_edge(source, target, weight)
    result = dynamic_reverse_k_ranks(graph, "q", 4, bounds=bounds)
    assert result.as_pairs() == naive_reverse_k_ranks(graph, "q", 4).as_pairs()
    assert result.as_pairs() == [("a", 1), ("b", 1), ("c", 1), ("e", 1)]


def test_oversized_k_returns_all_reachable_candidates(path_graph):
    results = validate_against_naive(path_graph, 0, 50)
    assert len(results["naive"]) == path_graph.num_nodes - 1
    assert not results["naive"].is_full()


def test_validation_report_contains_all_algorithms(random_gnp):
    index = HubIndex.build(random_gnp, num_hubs=3, capacity=8)
    results = validate_against_naive(random_gnp, 0, 3, index=index)
    assert set(results) == {"naive", "static", "dynamic", "indexed"}
    assert results["naive"].algorithm == "Naive"
    assert results["static"].algorithm == "Static"
    assert results["dynamic"].algorithm == "Dynamic-Three"
    assert results["indexed"].algorithm == "Indexed"


def test_results_equivalent_rejects_rank_mismatch(random_gnp):
    good = naive_reverse_k_ranks(random_gnp, 0, 3)
    other_query = naive_reverse_k_ranks(random_gnp, 1, 3)
    other_k = naive_reverse_k_ranks(random_gnp, 0, 4)
    assert results_equivalent(good, good)
    assert not results_equivalent(good, other_query)
    assert not results_equivalent(good, other_k)


def test_results_equivalent_allows_boundary_ties_only(path_graph):
    from repro.core import QueryResult, RankedNode

    # On the path graph queried at an end node ranks are unique (1, 3, 5),
    # so exchanging nodes below the boundary must be detected even though
    # the rank multiset is unchanged.
    first = naive_reverse_k_ranks(path_graph, 0, 3)
    second = dynamic_reverse_k_ranks(path_graph, 0, 3)
    assert results_equivalent(first, second)
    assert [entry.rank for entry in first.entries] == [1, 3, 5]

    swapped = QueryResult(
        query=first.query,
        k=first.k,
        entries=[
            RankedNode.make(first.entries[1].node, first.entries[0].rank),
            RankedNode.make(first.entries[0].node, first.entries[1].rank),
            first.entries[2],
        ],
    )
    assert not results_equivalent(first, swapped)

    # Entries tied at the boundary rank may differ in identity: replace the
    # boundary node with a fictitious one and remain equivalent.
    boundary_swapped = QueryResult(
        query=first.query,
        k=first.k,
        entries=first.entries[:2] + [RankedNode.make("ghost", first.entries[2].rank)],
    )
    assert results_equivalent(first, boundary_swapped)


def test_cross_validation_error_raised_on_disagreement(random_gnp, monkeypatch):
    import repro.core.validation as validation

    def broken(graph, query, k, candidate=None, counted=None, **_):
        result = naive_reverse_k_ranks(graph, query, k, candidate=candidate, counted=counted)
        if result.entries:
            result.entries[-1] = type(result.entries[-1])(
                rank=result.entries[-1].rank + 1000,
                node=result.entries[-1].node,
            )
        return result

    monkeypatch.setattr(validation, "static_reverse_k_ranks", broken)
    with pytest.raises(CrossValidationError):
        validation.validate_against_naive(random_gnp, 0, 3)
