"""Unit tests for the GetRank refinement (pruning, hooks, tie handling).

The refinement lives inside :class:`~repro.traversal.csr_sds.CompactSDSTreeSearch`
(``_refine``), fused with the ``lcount`` bookkeeping and the hub-index
learning it feeds.  These tests drive it directly on a search constructed
around the target (query) node.
"""

from __future__ import annotations

from repro.core.hub_index import HubIndex
from repro.core.resultset import TopKRankCollector
from repro.core.types import QueryStats
from repro.graph import CompactGraph, Graph
from repro.traversal.csr_sds import CompactSDSTreeSearch
from repro.traversal.dijkstra import shortest_path_distances
from repro.traversal.rank import exact_rank

INF = float("inf")


def refine(graph, source, target, radius, k_rank=INF, counted=None,
           index=None, count_active=False):
    """Run one refinement of ``Rank(source, target)``.

    Returns ``(rank, stats, search)``: the exact rank or ``None`` when
    pruned, the :class:`QueryStats` the refinement wrote, and the search
    (for reading its ``lcount`` table).
    """
    csr = CompactGraph.from_graph(graph)
    stats = QueryStats()
    search = CompactSDSTreeSearch(
        csr,
        target,
        collector=TopKRankCollector(1),
        stats=stats,
        index=index,
        count_active=count_active,
        counted=counted,
    )
    rank = search._refine(csr.index_of(source), radius, k_rank)
    return rank, stats, search


def lcount_nodes(search):
    """Nodes whose ``lcount`` the refinement bumped, with their counts."""
    csr = search._csr
    return {
        csr.node_at(index): search._lcount[index]
        for index in range(csr.num_nodes)
        if search._lcount_stamps[index] == search._lcount_epoch
    }


def test_refine_rank_matches_exact_rank(weighted_grid):
    distances = shortest_path_distances(weighted_grid, 0)
    for target in (5, 10, 15):
        rank, stats, _ = refine(weighted_grid, 0, target, distances[target])
        assert stats.refinements_pruned == 0
        assert rank == exact_rank(weighted_grid, 0, target)


def test_refine_rank_exact_even_with_inflated_radius(weighted_grid):
    # Theorem-1 pruning can hand the refinement an over-estimated radius;
    # settling the target must still produce the true rank.
    distances = shortest_path_distances(weighted_grid, 0)
    rank, _, _ = refine(weighted_grid, 0, 15, distances[15] * 2.5)
    assert rank == exact_rank(weighted_grid, 0, 15)


def test_refine_rank_prunes_when_k_rank_exceeded(path_graph):
    # Rank(9, 0) on the path is 9; a bound of 3 must abort early.
    rank, pruned, _ = refine(path_graph, 9, 0, 9.0, k_rank=3)
    assert rank is None
    assert pruned.rank_refinements == 1
    assert pruned.refinements_pruned == 1
    # The abort must have saved work compared to the full refinement.
    _, full, _ = refine(path_graph, 9, 0, 9.0)
    assert full.refinements_pruned == 0
    assert pruned.refinement_nodes_settled < full.refinement_nodes_settled


def test_refine_rank_boundary_rank_not_pruned(path_graph):
    # A rank exactly equal to k_rank must complete (ties at kRank are
    # legitimate results; only strictly worse ranks may abort).
    true_rank = exact_rank(path_graph, 5, 0)
    rank, stats, _ = refine(path_graph, 5, 0, 5.0, k_rank=true_rank)
    assert stats.refinements_pruned == 0
    assert rank == true_rank


def test_refine_rank_counted_predicate(path_graph):
    def even(node):
        return node % 2 == 0

    rank, _, _ = refine(path_graph, 3, 0, 3.0, counted=even)
    assert rank == exact_rank(path_graph, 3, 0, counted=even)


def test_refine_rank_on_settle_reports_exact_ranks(weighted_grid):
    # With a hub index attached, every settled node is recorded with its
    # exact rank from the source (Algorithm 4's learning).
    index = HubIndex(weighted_grid, capacity=16)
    refine(
        weighted_grid,
        0,
        15,
        shortest_path_distances(weighted_grid, 0)[15],
        index=index,
    )
    seen = {
        node: index.known_rank(0, node)
        for node in weighted_grid.nodes()
        if index.known_rank(0, node) is not None
    }
    assert seen, "no settled node was recorded"
    for node, rank in seen.items():
        assert rank == exact_rank(weighted_grid, 0, node)
    # The target itself is reported too (feeds the Reverse Rank Dictionary).
    assert 15 in seen
    assert index.explored_count(0) == len(seen)


def test_refine_rank_on_push_fires_strictly_inside_radius(path_graph):
    _, _, search = refine(path_graph, 4, 0, 4.0, count_active=True)
    # Strictly inside radius 4 from node 4: distances 1,2,3 on both sides,
    # each counted exactly once.
    assert lcount_nodes(search) == {1: 1, 2: 1, 3: 1, 5: 1, 6: 1, 7: 1}


def test_refine_rank_tie_groups():
    star = Graph()
    for leaf in ("x", "y", "z", "q"):
        star.add_edge("hub", leaf, 1.0)
    # From x: hub at 1; y, z, q tie at 2. Nothing is strictly closer to x
    # than q except the hub.
    rank, _, _ = refine(star, "x", "q", 2.0)
    assert rank == 2


def test_refine_rank_unreachable_target_degenerates_to_pruned():
    graph = Graph()
    graph.add_edge("a", "b", 1.0)
    graph.add_node("island")
    rank, stats, _ = refine(graph, "a", "island", 5.0)
    assert rank is None
    assert stats.refinements_pruned == 1
