"""Deterministic reassembly of sharded batch results.

Workers finish in nondeterministic order; this module makes the batch
outcome independent of that order.  Shard results arrive either as plain
:class:`~repro.core.types.QueryResult` sequences (in-process callers, unit
tests) or — the pool's wire path — as flat
:class:`~repro.parallel.codec.ShardResultBlock` buffers, which are
**validated against their header first** and only then decoded back into
rich results, so a truncated or corrupted buffer fails loudly before any
position is trusted.  Results are slotted back by the batch positions
their shard carried, the per-query
:class:`~repro.core.types.QueryStats` (or the shards' pre-aggregated
stats, under ``stats="aggregate"``) are combined into one batch-level
view, and the workers' hub-index learning deltas are returned sorted by
shard index — so a last-writer-wins merge into the master index applies
them in the same order every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.types import QueryResult, QueryStats
from repro.errors import ParallelExecutionError
from repro.parallel.codec import ShardResultBlock, ShardResultCodec

__all__ = ["ShardOutput", "ParallelBatchResult", "merge_shard_outputs"]


@dataclass(frozen=True)
class ShardOutput:
    """What one worker returned for one shard of a batch.

    ``results`` is either a decoded result sequence or an encoded
    :class:`ShardResultBlock`; in the latter case ``queries`` must carry
    the shard's query nodes **from the parent's split** (the decode never
    trusts worker-reported identifiers).
    """

    shard_index: int
    positions: Tuple[int, ...]
    results: Union[Sequence[QueryResult], ShardResultBlock]
    delta: Optional[object] = None  # a HubIndexDelta when learning was logged
    queries: Optional[Tuple] = None  # parent-side query nodes (encoded shards)
    trace: Optional[dict] = None  # worker-side span tree (traced batches)


@dataclass
class ParallelBatchResult:
    """A merged parallel batch: ordered results plus batch-level aggregates."""

    #: One result per query, in the original batch order.
    results: List[QueryResult]
    #: All per-query (or shard-aggregated) counters accumulated into one
    #: batch-level QueryStats; ``None`` when the batch ran ``stats="none"``
    #: — deliberately not a zeroed QueryStats, which would misread as "the
    #: batch did no work".
    stats: Optional[QueryStats]
    #: Learning deltas in shard order (empty unless delta collection was on).
    deltas: List[object] = field(default_factory=list)
    #: How many shards carried work.
    shards: int = 0
    #: Flat payload bytes that crossed the process boundary (codec-reported;
    #: 0 when every shard arrived as plain objects).
    ipc_bytes: int = 0
    #: Worker-side span trees in shard order (empty unless the batch was
    #: traced); the engine grafts them under its dispatch span.
    worker_traces: List[dict] = field(default_factory=list)


def merge_shard_outputs(
    outputs: Sequence[ShardOutput],
    batch_size: int,
    csr=None,
) -> ParallelBatchResult:
    """Merge shard outputs (any arrival order) into one ordered batch result.

    ``csr`` is the shared :class:`~repro.graph.csr.CompactGraph`
    compilation, required to decode encoded shards (their entry nodes
    travel as CSR indexes).

    For every encoded shard the codec header is validated **before** the
    shard's positions are used for anything — length lies, truncated
    buffers and out-of-range node indexes all raise here rather than
    silently misattributing results to queries.

    Raises
    ------
    ParallelExecutionError
        When a shard's block fails validation, the shard outputs do not
        cover each of the ``batch_size`` positions exactly once, or a
        shard's positions and results disagree in length.
    """
    slots: List[Optional[QueryResult]] = [None] * batch_size
    filled = 0
    stats: Optional[QueryStats] = QueryStats()
    stats_dropped = False
    ipc_bytes = 0
    ordered = sorted(outputs, key=lambda output: output.shard_index)
    for output in ordered:
        results = output.results
        if isinstance(results, ShardResultBlock):
            block = results
            # Header first: nothing from this shard — positions included —
            # is trusted until the flat buffers are internally consistent.
            block.validate()
            if len(output.positions) != block.num_queries:
                raise ParallelExecutionError(
                    f"shard {output.shard_index} reported "
                    f"{len(output.positions)} positions but its result "
                    f"block carries {block.num_queries} queries"
                )
            if csr is None:
                raise ParallelExecutionError(
                    "encoded shard outputs need the graph compilation to "
                    "decode; pass csr= to merge_shard_outputs"
                )
            if output.queries is None:
                raise ParallelExecutionError(
                    f"shard {output.shard_index} is encoded but carries no "
                    "parent-side query nodes to rebuild results against"
                )
            results = ShardResultCodec.decode(
                block, csr, output.queries, validated=True
            )
            ipc_bytes += block.payload_bytes()
            if block.stats_mode == "aggregate":
                stats.merge(block.shard_stats)
            elif block.stats_mode == "none":
                stats_dropped = True
            shard_stats_merged = block.stats_mode != "per-query"
        else:
            shard_stats_merged = False
        if len(output.positions) != len(results):
            raise ParallelExecutionError(
                f"shard {output.shard_index} returned {len(results)} "
                f"results for {len(output.positions)} positions"
            )
        for position, result in zip(output.positions, results):
            if not 0 <= position < batch_size:
                raise ParallelExecutionError(
                    f"shard {output.shard_index} returned out-of-range batch "
                    f"position {position} (batch size {batch_size})"
                )
            if slots[position] is not None:
                raise ParallelExecutionError(
                    f"batch position {position} was returned by two shards"
                )
            slots[position] = result
            filled += 1
            if not shard_stats_merged:
                stats.merge(result.stats)
    if filled != batch_size:
        missing = [position for position, slot in enumerate(slots) if slot is None]
        raise ParallelExecutionError(
            f"shard outputs left {len(missing)} batch positions unanswered "
            f"(first missing: {missing[:5]})"
        )
    deltas = [output.delta for output in ordered if output.delta is not None]
    traces = [output.trace for output in ordered if output.trace is not None]
    return ParallelBatchResult(
        results=slots,
        stats=None if stats_dropped else stats,
        deltas=deltas,
        shards=len(ordered),
        ipc_bytes=ipc_bytes,
        worker_traces=traces,
    )
