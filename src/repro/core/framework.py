"""The shared filter-and-refine SDS-tree traversal.

All three of the paper's algorithms — the static SDS-tree (Section 3), the
Dynamic Bounded SDS-tree (Section 4) and the indexed variant (Section 5) —
share the same skeleton:

1. run a Dijkstra search *towards* the query node ``q`` (i.e. on the
   transpose graph), settling candidate nodes in increasing order of their
   distance ``d(p, q)``;
2. for each settled node decide, using ever-tighter information, whether its
   rank must be refined;
3. refine with the bounded ``GetRank`` search (paper Algorithm 2), aborting
   once the partial rank exceeds the current ``kRank``;
4. expand a node's tree children only when the node can still be (or is) a
   result — Theorem 1 guarantees that the children of a non-result cannot be
   results either.

:class:`SDSTreeSearch` is the one entry point for that skeleton,
parameterised by a :class:`~repro.core.config.BoundSet` (none = static,
any = dynamic), an optional :class:`~repro.core.hub_index.HubIndex`, and
optional bichromatic predicates.  It validates the query, checks the index,
seeds the result set from the Reverse Rank Dictionary and assembles the
:class:`~repro.core.types.QueryResult`; the traversal, bound checks and
bounded refinements themselves run in
:class:`~repro.traversal.csr_sds.CompactSDSTreeSearch` over a
:class:`~repro.graph.csr.CompactGraph` (or overlay) compilation.  Callers
that answer many queries pass that compilation in (``backend``, or a
compact ``graph``); otherwise the graph is compiled once per search.  The
public algorithm modules are thin wrappers that pick the configuration.

Correctness under pruning
-------------------------
Because pruned subtrees are not expanded, the traversal may later reach a
pruned node's descendant through a longer, non-shortest path; such a node's
popped distance (and therefore its height and ``lcount`` bounds) can be
over-estimates.  Refined ranks stay exact regardless: the refinement settles
the query node itself inside the (possibly inflated) radius, so every rank
offered to the result set is the true ``Rank(p, q)``.  Over-estimated
*bounds* can only prune nodes whose popped distance is inflated, and by
induction over the pop order every such node descends from a
genuinely-prunable node, hence its true rank is at least the ``kRank`` in
force when it is pruned — it can neither displace a strictly-better result
nor change the result's rank values.  Only the identity of entries tied at
the final ``kRank`` may differ from the brute-force baseline.  (See
DESIGN.md §5 and :func:`repro.core.validation.results_equivalent`.)
"""

from __future__ import annotations

import time
from typing import Callable, Hashable, Optional

from repro.core.config import BoundSet
from repro.core.resultset import TopKRankCollector
from repro.core.types import QueryResult, QueryStats
from repro.errors import InvalidQueryNodeError, check_positive_k
from repro.graph.csr import compile_search_graph
from repro.traversal.csr_sds import CompactSDSTreeSearch

NodeId = Hashable
Predicate = Callable[[NodeId], bool]

__all__ = ["SDSTreeSearch"]


class SDSTreeSearch:
    """One reverse k-ranks query evaluated with the filter-and-refine framework.

    Parameters
    ----------
    graph:
        The graph to query: a :class:`~repro.graph.Graph`, or a
        :class:`~repro.graph.csr.CompactGraph` compilation traversed as is.
    query:
        The query node ``q``.
    k:
        Requested result size.
    bounds:
        Active lower-bound components.  :meth:`BoundSet.none` reproduces the
        static SDS-tree, any other value the Dynamic Bounded SDS-tree.
    index:
        Optional :class:`~repro.core.hub_index.HubIndex`.  When provided, the
        result set is seeded from the Reverse Rank Dictionary, candidates can
        be answered or pruned from the index, and the index is updated with
        everything the refinements discover.
    candidate:
        Predicate selecting which nodes may appear in the result
        (bichromatic queries restrict this to community nodes).  ``None``
        means every node other than ``q`` is a candidate.
    counted:
        Predicate selecting which nodes contribute to rank values
        (bichromatic queries restrict this to facility nodes).  ``None``
        means every node counts.
    algorithm_label:
        Name recorded in the produced :class:`~repro.core.types.QueryResult`.
    backend:
        Optional :class:`~repro.graph.csr.CompactGraph` compilation of
        ``graph`` to traverse.  The compilation must be fresh — a version
        mismatch with ``graph`` is rejected.  When omitted (and ``graph``
        is not itself compact), ``graph`` is compiled for this search.
    masks:
        Optional pre-built ``(candidate_mask, counted_mask)`` bytearrays
        over the compilation's node order (either element may be
        ``None``).  Engines answering many queries against one compilation
        cache these per graph version so the predicates are not
        re-evaluated over every node on every query; the masks must encode
        exactly the ``candidate`` / ``counted`` predicates.
    arena:
        Optional :class:`~repro.traversal.arena.ScratchArena` supplying
        reusable, epoch-stamped scratch memory (settled and notified
        sets, the dense bound lists).  Engines own one and thread it
        through every query; results and
        :class:`~repro.core.types.QueryStats` are identical with or
        without it.
    """

    def __init__(
        self,
        graph,
        query: NodeId,
        k: int,
        bounds: Optional[BoundSet] = None,
        index=None,
        candidate: Optional[Predicate] = None,
        counted: Optional[Predicate] = None,
        algorithm_label: str = "",
        backend=None,
        masks=None,
        arena=None,
    ) -> None:
        check_positive_k(k)
        if not graph.has_node(query):
            raise InvalidQueryNodeError(query)

        self._csr = compile_search_graph(graph, backend)
        self._query = query
        self._bounds = bounds if bounds is not None else BoundSet.all()
        self._index = index
        self._candidate = candidate
        self._counted = counted
        self._masks = masks if masks is not None else (None, None)
        self._arena = arena
        self._label = algorithm_label or self._bounds.label()

        # The count bound is only valid on undirected graphs (paper, footnote
        # to Lemma 3) and only in the monochromatic setting (Lemma 4 relies on
        # the visiting nodes themselves being counted).
        self._count_bound_active = (
            self._bounds.use_count and not graph.directed and counted is None
        )
        # The height bound generalises to "counted nodes on the tree path";
        # in the monochromatic case this is exactly the tree depth (Lemma 2).
        self._height_bound_active = self._bounds.use_height

        if index is not None:
            index.ensure_compatible(graph, k)

        self.stats = QueryStats()
        self._collector = TopKRankCollector(k)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> QueryResult:
        """Evaluate the query and return the result."""
        started = time.perf_counter()
        self._seed_from_index()
        CompactSDSTreeSearch(
            self._csr,
            self._query,
            collector=self._collector,
            stats=self.stats,
            index=self._index,
            use_parent=self._bounds.use_parent,
            height_active=self._height_bound_active,
            count_active=self._count_bound_active,
            candidate=self._candidate,
            counted=self._counted,
            candidate_mask=self._masks[0],
            counted_mask=self._masks[1],
            arena=self._arena,
        ).traverse()
        self.stats.elapsed_seconds = time.perf_counter() - started
        return self._collector.as_result(
            self._query, stats=self.stats, algorithm=self._label
        )

    # ------------------------------------------------------------------
    # Seeding from the hub index
    # ------------------------------------------------------------------
    def _seed_from_index(self) -> None:
        if self._index is None:
            return
        candidate = self._candidate
        for node, rank in self._index.known_reverse_ranks(self._query):
            if node != self._query and (candidate is None or candidate(node)):
                self._collector.offer(node, rank)
