"""Counter oracle for the SDS-tree pipeline (:mod:`repro.traversal.csr_sds`).

The pipeline once had a dict-keyed twin, and a parity suite proved the two
bit-identical: same ranks, same result nodes and — the stronger bar — the
same :class:`~repro.core.types.QueryStats` counters (``rank_refinements``
above all, the paper's pruning-power proxy).  With the twin gone, that
proof is frozen into ``data/csr_sds_oracle.json``: per fixture, every
result's ``as_pairs()`` and the fixture's summed counters, recorded while
both backends still existed and agreed.  Any change to traversal order,
tie-breaking, bound bookkeeping or refinement termination moves a counter
and fails here.  The sweep covers directed, tie-heavy and bichromatic
fixtures, every ``BoundSet`` ablation, and warm hub-index learning.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.bichromatic import bichromatic_reverse_k_ranks
from repro.core.config import BoundSet
from repro.core.hub_index import HubIndex
from repro.core.sds_dynamic import dynamic_reverse_k_ranks
from repro.core.sds_static import static_reverse_k_ranks
from repro.core.types import QueryStats
from repro.errors import GraphValidationError
from repro.core.sds_indexed import indexed_reverse_k_ranks
from repro.graph import BichromaticPartition, CompactGraph, Graph
from repro.graph.views import transpose_view
from repro.traversal import shortest_path_distances

BOUND_PRESETS = [
    BoundSet.none(),
    BoundSet.parent_only(),
    BoundSet.parent_and_count(),
    BoundSet.parent_and_height(),
    BoundSet.all(),
]

ORACLE = json.loads(
    (Path(__file__).parent / "data" / "csr_sds_oracle.json").read_text()
)


def stats_signature(result):
    """Every stats counter except wall-clock time."""
    payload = result.stats.as_dict()
    payload.pop("elapsed_seconds")
    return payload


def random_graph(seed: int, num_nodes: int = 40, directed: bool = False,
                 tie_heavy: bool = False) -> Graph:
    rng = random.Random(7_000 + seed)
    graph = Graph(directed=directed, name=f"parity-{seed}")
    graph.add_nodes(range(num_nodes))
    for source in range(num_nodes):
        for target in range(source + 1 if not directed else 0, num_nodes):
            if source == target:
                continue
            if rng.random() < 7.0 / num_nodes:
                weight = (
                    float(rng.randint(1, 3)) if tie_heavy
                    else round(rng.uniform(1.0, 10.0), 2)
                )
                graph.add_edge(source, target, weight)
    return graph


def assert_matches_oracle(key, results):
    """Pairs of every result, and the summed counters, equal the oracle."""
    expected = ORACLE[key]
    assert [
        [list(pair) for pair in result.as_pairs()] for result in results
    ] == expected["pairs"], key
    total = QueryStats()
    for result in results:
        total.merge(result.stats)
    counters = total.as_dict()
    counters.pop("elapsed_seconds")
    assert counters == expected["counters"], key


# ----------------------------------------------------------------------
# Static + dynamic across fixture shapes and bound ablations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("tie_heavy", [False, True])
def test_dynamic_parity_including_refinement_counts(seed, directed, tie_heavy):
    graph = random_graph(seed, directed=directed, tie_heavy=tie_heavy)
    csr = CompactGraph.from_graph(graph)
    results = []
    for query in (0, 13, 27):
        for k in (1, 5):
            for bounds in BOUND_PRESETS:
                result = dynamic_reverse_k_ranks(csr, query, k, bounds=bounds)
                # A plain Graph (compiled per call) and an explicit backend
                # take the same path.
                for twin in (
                    dynamic_reverse_k_ranks(graph, query, k, bounds=bounds),
                    dynamic_reverse_k_ranks(
                        graph, query, k, bounds=bounds, backend=csr
                    ),
                ):
                    assert twin.as_pairs() == result.as_pairs()
                    assert stats_signature(twin) == stats_signature(result)
                results.append(result)
    assert_matches_oracle(
        f"dynamic-{seed}-{'directed' if directed else 'undirected'}-"
        f"{'ties' if tie_heavy else 'plain'}",
        results,
    )


@pytest.mark.parametrize("seed", range(4))
def test_static_parity(seed):
    graph = random_graph(seed, tie_heavy=True)
    assert_matches_oracle(
        f"static-{seed}",
        [static_reverse_k_ranks(graph, query, 4) for query in (0, 20)],
    )


# ----------------------------------------------------------------------
# Indexed (warm index learning included)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_indexed_parity_with_warm_index_learning(seed):
    graph = random_graph(seed, num_nodes=36)
    csr = CompactGraph.from_graph(graph)
    index = HubIndex.build(graph, num_hubs=5, explore_limit=20, capacity=8)
    # Repeated queries keep the index learning; the oracle must hold
    # through the warm-index feedback loop, not just the first query.
    results = [
        indexed_reverse_k_ranks(graph, query, k, index=index, backend=csr)
        for query in (0, 11, 23, 11)
        for k in (2, 6)
    ]
    assert_matches_oracle(f"indexed-{seed}", results)
    assert index.num_known_ranks == ORACLE[f"indexed-{seed}"]["known_ranks"]


# ----------------------------------------------------------------------
# Bichromatic (candidate/counted predicate masks)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tie_heavy", [False, True])
def test_bichromatic_parity(seed, tie_heavy):
    graph = random_graph(seed, num_nodes=36, tie_heavy=tie_heavy)
    csr = CompactGraph.from_graph(graph)
    facilities = random.Random(seed).sample(range(36), 12)
    partition = BichromaticPartition(graph, facilities)
    query = sorted(partition.facilities)[0]
    results = [
        bichromatic_reverse_k_ranks(
            partition, query, k, bounds=bounds, backend=csr
        )
        for k in (1, 4)
        for bounds in (BoundSet.none(), BoundSet.all())
    ]
    assert_matches_oracle(
        f"bichromatic-{seed}-{'ties' if tie_heavy else 'plain'}", results
    )


# ----------------------------------------------------------------------
# Backend freshness validation
# ----------------------------------------------------------------------
def test_stale_backend_rejected():
    graph = random_graph(0)
    csr = CompactGraph.from_graph(graph)
    graph.add_edge(0, 39, 1.0)
    with pytest.raises(GraphValidationError):
        dynamic_reverse_k_ranks(graph, 0, 2, backend=csr)


def test_foreign_backend_rejected():
    graph = random_graph(0)
    other = random_graph(1, num_nodes=10)
    with pytest.raises(GraphValidationError):
        dynamic_reverse_k_ranks(graph, 0, 2, backend=CompactGraph.from_graph(other))


def test_foreign_backend_with_identical_shape_rejected():
    # Two independently built graphs with the same construction sequence
    # share node count AND mutation version; only the source-identity
    # weakref can tell their compilations apart.
    twin_a = random_graph(0)
    twin_b = random_graph(0)
    assert twin_a.version == twin_b.version
    with pytest.raises(GraphValidationError, match="different graph"):
        dynamic_reverse_k_ranks(
            twin_b, 0, 2, backend=CompactGraph.from_graph(twin_a)
        )


def test_non_compact_backend_rejected():
    graph = random_graph(0)
    with pytest.raises(GraphValidationError):
        dynamic_reverse_k_ranks(graph, 0, 2, backend=graph)


def test_transposed_backend_rejected():
    # A reverse_view shares source identity, node count and version with
    # the forward compilation, but its adjacency roles are swapped —
    # the freshness gate must not let it traverse as the forward graph.
    graph = random_graph(2, directed=True)
    reverse = CompactGraph.from_graph(graph).reverse_view()
    assert reverse.is_transposed
    with pytest.raises(GraphValidationError, match="transposed"):
        dynamic_reverse_k_ranks(graph, 0, 2, backend=reverse)
    # Double reversal restores the forward orientation.
    assert not reverse.reverse_view().is_transposed


# ----------------------------------------------------------------------
# Reverse views over CompactGraph stay on the fast path
# ----------------------------------------------------------------------
def test_transpose_view_of_compact_graph_is_compact():
    graph = random_graph(3, directed=True)
    csr = CompactGraph.from_graph(graph)
    reverse = transpose_view(csr)
    assert getattr(reverse, "is_compact", False)
    # Swapped adjacency: out-neighbours of the reverse are in-neighbours
    # of the original, in identical order.
    for node in (0, 7, 21):
        assert list(reverse.neighbor_items(node)) == list(csr.in_neighbor_items(node))
        assert list(reverse.in_neighbor_items(node)) == list(csr.neighbor_items(node))
        assert reverse.out_degree(node) == csr.in_degree(node)


def test_reverse_view_distances_match_dict_transpose():
    graph = random_graph(5, directed=True)
    csr = CompactGraph.from_graph(graph)
    fast = shortest_path_distances(transpose_view(csr), 4)
    slow = shortest_path_distances(transpose_view(graph), 4)
    assert fast == slow


def test_reverse_view_of_undirected_graph_is_itself():
    csr = CompactGraph.from_graph(random_graph(1))
    assert csr.reverse_view() is csr
    assert transpose_view(csr) is csr
