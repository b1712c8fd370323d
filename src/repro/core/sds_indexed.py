"""The indexed algorithm: Dynamic Bounded SDS-tree + hub index (Section 5).

Same traversal and Theorem-2 bounds as the dynamic algorithm, plus the three
index services described in :mod:`repro.core.hub_index`: result seeding from
the Reverse Rank Dictionary, exact-rank answering, and Check-Dictionary
pruning.  The index is monochromatic, so this entry point does not accept
bichromatic predicates.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional, Union

from repro.core.config import BoundSet
from repro.core.framework import SDSTreeSearch
from repro.core.hub_index import HubIndex
from repro.core.hubs import HubSelectionStrategy
from repro.core.types import QueryResult
from repro.graph.csr import compile_search_graph

NodeId = Hashable

__all__ = ["indexed_reverse_k_ranks"]


def indexed_reverse_k_ranks(
    graph,
    query: NodeId,
    k: int,
    index: Optional[HubIndex] = None,
    bounds: Optional[BoundSet] = None,
    num_hubs: Optional[int] = None,
    explore_limit: Optional[int] = None,
    capacity: Optional[int] = None,
    strategy: Union[HubSelectionStrategy, str] = HubSelectionStrategy.DEGREE,
    rng: Optional[random.Random] = None,
    backend=None,
    arena=None,
) -> QueryResult:
    """Answer a reverse k-ranks query with the hub-indexed algorithm.

    Parameters
    ----------
    index:
        A prebuilt (and possibly query-warmed) :class:`HubIndex`.  When
        omitted, a fresh index is built for this one query with the given
        ``num_hubs`` / ``explore_limit`` / ``capacity`` / ``strategy``
        parameters — convenient for experimentation, but amortising one
        index over many queries is the whole point of Section 5, so reuse
        an explicit index in real workloads.
    bounds:
        Theorem-2 bound components; defaults to :meth:`BoundSet.all`.
    backend:
        Optional fresh :class:`~repro.graph.csr.CompactGraph` compilation
        of ``graph``; when omitted, ``graph`` is compiled once for this
        call (and shared with the throwaway index build, if any).  The
        index stays keyed by node identifiers and keeps learning.
    arena:
        Optional reusable :class:`~repro.traversal.arena.ScratchArena`
        (results and stats are identical with or without it).
    """
    if index is None:
        backend = compile_search_graph(graph, backend)
        index = HubIndex.build(
            graph,
            num_hubs=num_hubs,
            explore_limit=explore_limit,
            capacity=max(k, 16) if capacity is None else capacity,
            strategy=strategy,
            rng=rng,
            backend=backend,
        )
    search = SDSTreeSearch(
        graph,
        query,
        k,
        bounds=BoundSet.all() if bounds is None else bounds,
        index=index,
        algorithm_label="Indexed",
        backend=backend,
        arena=arena,
    )
    return search.run()
