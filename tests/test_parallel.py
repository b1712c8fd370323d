"""The repro.parallel subsystem: shard split, merger, pool, engine integration.

Process-spawning tests default to the ``fork`` start method (cheap on the
CI's Linux runners) and run one representative round trip under ``spawn``
to prove start-method safety; both are skipped automatically on platforms
that lack them.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.core import AlgorithmKind, QueryStats, ReverseKRanksEngine
from repro.core.types import QueryResult, RankedNode
from repro.core.validation import results_equivalent
from repro.errors import ParallelExecutionError, WorkerCrashError
from repro.graph import CompactGraph
from repro.parallel import ShardOutput, WorkerPool, merge_shard_outputs
from repro.parallel.pool import chunk_evenly, split_round_robin

from conftest import sample_queries

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
HAVE_SPAWN = "spawn" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
needs_spawn = pytest.mark.skipif(not HAVE_SPAWN, reason="spawn start method unavailable")

#: Start method used by the bulk of the process tests (fast to start).
FAST_CONTEXT = "fork" if HAVE_FORK else None


# ----------------------------------------------------------------------
# Shard split (WorkerPool.run_batch) and hub-build chunking
# ----------------------------------------------------------------------
class TestShardPlanner:
    def test_round_robin_covers_every_position_once(self):
        shards = split_round_robin(list("abcdefgh"), 3)
        positions = sorted(
            position for shard in shards for position in shard.positions
        )
        assert positions == list(range(8))
        assert [len(shard.queries) for shard in shards] == [3, 3, 2]
        # A short batch leaves the surplus workers without a shard.
        assert len(split_round_robin(["a", "b"], 3)) == 2

    def test_round_robin_preserves_query_position_pairing(self):
        batch = ["q0", "q1", "q2", "q3", "q4"]
        for shard in split_round_robin(batch, 2):
            for position, query in zip(shard.positions, shard.queries):
                assert batch[position] == query

    def test_invalid_parameters_raise_typed_errors(self):
        with pytest.raises(ParallelExecutionError):
            chunk_evenly([1, 2], 0)
        with pytest.raises(ParallelExecutionError):
            chunk_evenly([1, 2], True)


# ----------------------------------------------------------------------
# Merger
# ----------------------------------------------------------------------
def _result(query, rank_refinements=1):
    stats = QueryStats(rank_refinements=rank_refinements)
    return QueryResult(
        query=query, k=1, entries=[RankedNode.make("n", 1)], stats=stats
    )


class TestMergeShardOutputs:
    def test_reassembles_input_order_regardless_of_arrival(self):
        outputs = [
            ShardOutput(1, (1, 3), [_result("b"), _result("d")]),
            ShardOutput(0, (0, 2), [_result("a"), _result("c")]),
        ]
        merged = merge_shard_outputs(outputs, batch_size=4)
        assert [result.query for result in merged.results] == ["a", "b", "c", "d"]
        assert merged.shards == 2

    def test_aggregates_stats(self):
        outputs = [
            ShardOutput(0, (0,), [_result("a", rank_refinements=3)]),
            ShardOutput(1, (1,), [_result("b", rank_refinements=4)]),
        ]
        merged = merge_shard_outputs(outputs, batch_size=2)
        assert merged.stats.rank_refinements == 7

    def test_deltas_come_back_in_shard_order(self):
        outputs = [
            ShardOutput(2, (2,), [_result("c")], delta="late"),
            ShardOutput(0, (0,), [_result("a")], delta="early"),
            ShardOutput(1, (1,), [_result("b")], delta=None),
        ]
        merged = merge_shard_outputs(outputs, batch_size=3)
        assert merged.deltas == ["early", "late"]

    def test_missing_duplicate_and_out_of_range_positions_fail(self):
        with pytest.raises(ParallelExecutionError):
            merge_shard_outputs([ShardOutput(0, (0,), [_result("a")])], batch_size=2)
        with pytest.raises(ParallelExecutionError):
            merge_shard_outputs(
                [
                    ShardOutput(0, (0,), [_result("a")]),
                    ShardOutput(1, (0,), [_result("b")]),
                ],
                batch_size=2,
            )
        with pytest.raises(ParallelExecutionError):
            merge_shard_outputs([ShardOutput(0, (5,), [_result("a")])], batch_size=2)
        with pytest.raises(ParallelExecutionError):
            merge_shard_outputs(
                [ShardOutput(0, (0, 1), [_result("a")])], batch_size=2
            )


# ----------------------------------------------------------------------
# Engine-level parallel execution (the tentpole's front door)
# ----------------------------------------------------------------------
@needs_fork
class TestEngineParallel:
    # The ids keep the ``round_robin-`` prefix from when the split was
    # one of several policies, so the test ids stay stable.
    @pytest.mark.parametrize(
        "kind", ["naive", "static", "dynamic"],
        ids=lambda kind: f"round_robin-{kind}",
    )
    def test_parallel_matches_sequential_bit_identical(self, random_gnp, kind):
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        with ReverseKRanksEngine(random_gnp) as engine:
            sequential = engine.query_many(queries, 4, algorithm=kind)
            parallel = engine.query_many(
                queries, 4, algorithm=kind, workers=2,
                worker_context=FAST_CONTEXT,
            )
        assert [result.as_pairs() for result in parallel] == [
            result.as_pairs() for result in sequential
        ]

    def test_parallel_bichromatic_matches_sequential(self, bichromatic_case):
        queries = sorted(bichromatic_case.facilities, key=repr)[:5]
        with ReverseKRanksEngine(
            bichromatic_case.graph, partition=bichromatic_case
        ) as engine:
            sequential = engine.query_many(queries, 3, algorithm="dynamic")
            parallel = engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
        assert [result.as_pairs() for result in parallel] == [
            result.as_pairs() for result in sequential
        ]

    def test_indexed_parallel_learns_back_into_master(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        with ReverseKRanksEngine(random_gnp) as engine:
            engine.build_index(num_hubs=3, capacity=8)
            before = engine.index.num_known_ranks
            parallel = engine.query_many(
                queries, 4, algorithm="indexed", workers=2,
                worker_context=FAST_CONTEXT,
            )
            after = engine.index.num_known_ranks
            sequential = engine.query_many(queries, 4, algorithm="indexed")
        assert after > before  # the workers' refinements were merged back
        for expected, actual in zip(sequential, parallel):
            assert results_equivalent(expected, actual)
            assert expected.rank_values() == actual.rank_values()

    def test_merged_index_answers_like_sequentially_warmed(self, random_gnp):
        """The ISSUE's parity requirement, end to end through the pool."""
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        probes = sorted(random_gnp.nodes(), key=repr)[8:14]

        engine_seq = ReverseKRanksEngine(random_gnp)
        engine_seq.build_index(num_hubs=3, capacity=8)
        engine_seq.query_many(queries, 4, algorithm="indexed")

        with ReverseKRanksEngine(random_gnp) as engine_par:
            engine_par.build_index(num_hubs=3, capacity=8)
            engine_par.query_many(
                queries, 4, algorithm="indexed", workers=2,
                worker_context=FAST_CONTEXT,
            )
            for probe in probes:
                warmed = engine_seq.query(probe, 4, algorithm="indexed")
                merged = engine_par.query(probe, 4, algorithm="indexed")
                assert results_equivalent(warmed, merged)
                assert warmed.rank_values() == merged.rank_values()

    def test_parallel_aggregates_batch_stats(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with ReverseKRanksEngine(random_gnp) as engine:
            results = engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            aggregated = engine.last_batch_stats
        assert aggregated is not None
        assert aggregated.rank_refinements == sum(
            result.stats.rank_refinements for result in results
        )
        assert aggregated.tree_pops == sum(
            result.stats.tree_pops for result in results
        )

    def test_pool_persists_across_batches_and_invalidates_on_mutation(
        self, random_gnp
    ):
        graph = random_gnp.copy()
        queries = sorted(graph.nodes(), key=repr)[:6]
        with ReverseKRanksEngine(graph) as engine:
            engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            first_pids = engine._pool.worker_pids
            engine.query_many(
                queries, 3, algorithm="static", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert engine._pool.worker_pids == first_pids  # reused

            graph.add_edge(0, 13, 0.5)
            parallel = engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert engine._pool.worker_pids != first_pids  # rebuilt
            sequential = engine.query_many(queries, 3, algorithm="dynamic")
            assert [result.as_pairs() for result in parallel] == [
                result.as_pairs() for result in sequential
            ]

    def test_workers_validation_and_sequential_fallbacks(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:4]
        engine = ReverseKRanksEngine(random_gnp)
        with pytest.raises(ParallelExecutionError):
            engine.query_many(queries, 2, workers=0)
        with pytest.raises(ParallelExecutionError):
            engine.query_many(queries, 2, workers=True)
        # workers=1 and single-query batches never start a pool.
        engine.query_many(queries, 2, workers=1)
        engine.query_many(queries[:1], 2, workers=2)
        assert engine._pool is None

    def test_engine_prunes_dead_pool_and_recovers_on_retry(self, random_gnp):
        # The satellite regression: after a WorkerCrashError escapes, the
        # cached pool MUST be discarded so the next query_many never
        # dispatches to dead workers.  Healing is disabled
        # (pool_crash_retries=0, on_pool_failure="raise") to let the
        # crash escape at all.
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with ReverseKRanksEngine(random_gnp) as engine:
            engine.pool_crash_retries = 0
            engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            first_pids = set(engine._pool.worker_pids)
            os.kill(engine._pool.worker_pids[0], signal.SIGKILL)
            deadline = time.time() + 5.0
            while engine._pool._processes[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            with pytest.raises(WorkerCrashError):
                engine.query_many(
                    queries, 3, algorithm="dynamic", workers=2,
                    worker_context=FAST_CONTEXT, on_pool_failure="raise",
                )
            assert engine._pool is None  # crashed pool was dropped
            assert engine.pool_health()["worker_crashes"] >= 1
            retried = engine.query_many(  # retry builds a fresh pool
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT, on_pool_failure="raise",
            )
            assert not (set(engine._pool.worker_pids) & first_pids)
            sequential = engine.query_many(queries, 3, algorithm="dynamic")
        assert [result.as_pairs() for result in retried] == [
            result.as_pairs() for result in sequential
        ]

    def test_engine_heals_worker_crash_in_place(self, random_gnp):
        # Default semantics: a mid-batch worker death is absorbed by the
        # pool (respawn + re-dispatch) and the batch still answers
        # bit-identically to sequential.
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        with ReverseKRanksEngine(random_gnp) as engine:
            engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            os.kill(engine._pool.worker_pids[0], signal.SIGKILL)
            deadline = time.time() + 5.0
            while engine._pool._processes[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            healed = engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            health = engine.pool_health()
            assert health["pool_active"]
            assert health["worker_crashes"] >= 1
            assert health["worker_respawns"] >= 1
            assert not health["degraded"]
            sequential = engine.query_many(queries, 3, algorithm="dynamic")
        assert [result.as_pairs() for result in healed] == [
            result.as_pairs() for result in sequential
        ]

    def test_engine_sequential_fallback_and_circuit_breaker(self, random_gnp):
        from repro import faults

        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        try:
            # Every worker dies before its first task; healing disabled so
            # each parallel attempt fails immediately.
            faults.configure("worker.before_task=crash")
            with ReverseKRanksEngine(random_gnp) as engine:
                engine.pool_crash_retries = 0
                engine.pool_failure_limit = 2
                sequential = ReverseKRanksEngine(random_gnp).query_many(
                    queries, 3, algorithm="dynamic"
                )
                # Attempt + retry both fail -> breaker opens -> sequential.
                degraded = engine.query_many(
                    queries, 3, algorithm="dynamic", workers=2,
                    worker_context=FAST_CONTEXT,
                )
                assert [r.as_pairs() for r in degraded] == [
                    r.as_pairs() for r in sequential
                ]
                assert engine._pool is None  # dead pool pruned
                assert engine.parallel_degraded
                assert engine.pool_failures >= 2
                assert engine.sequential_fallbacks == 1
                assert engine.parallel_retries == 1
                # Breaker open: no parallel attempt, no pool, same answers.
                again = engine.query_many(
                    queries, 3, algorithm="dynamic", workers=2,
                    worker_context=FAST_CONTEXT,
                )
                assert engine._pool is None
                assert engine.sequential_fallbacks == 2
                assert [r.as_pairs() for r in again] == [
                    r.as_pairs() for r in sequential
                ]
                # Clearing the faults + resetting the breaker restores
                # parallel execution.
                faults.clear()
                engine.reset_parallel_breaker()
                healed = engine.query_many(
                    queries, 3, algorithm="dynamic", workers=2,
                    worker_context=FAST_CONTEXT,
                )
                assert engine._pool is not None
                assert not engine.parallel_degraded
                assert [r.as_pairs() for r in healed] == [
                    r.as_pairs() for r in sequential
                ]
        finally:
            faults.clear()

    def test_close_pool_is_idempotent_and_context_managed(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:4]
        engine = ReverseKRanksEngine(random_gnp)
        engine.query_many(
            queries, 2, algorithm="dynamic", workers=2,
            worker_context=FAST_CONTEXT,
        )
        pool = engine._pool
        assert pool is not None and not pool.is_closed
        engine.close_pool()
        assert pool.is_closed and engine._pool is None
        engine.close_pool()  # idempotent


# ----------------------------------------------------------------------
# WorkerPool lifecycle and failure surfacing
# ----------------------------------------------------------------------
@needs_fork
class TestWorkerPool:
    def test_requires_compact_graph(self, random_gnp):
        with pytest.raises(ParallelExecutionError):
            WorkerPool(random_gnp, workers=2)

    def test_rejects_bad_workers_and_context(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        with pytest.raises(ParallelExecutionError):
            WorkerPool(csr, workers=0)
        with pytest.raises(ParallelExecutionError):
            WorkerPool(csr, workers=2, context="not-a-method")

    def test_graceful_shutdown_reaps_processes(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as pool:
            processes = list(pool._processes)
            assert all(process.is_alive() for process in processes)
        assert pool.is_closed
        for process in processes:
            assert not process.is_alive()
        pool.close()  # idempotent
        queries = sorted(random_gnp.nodes(), key=repr)[:4]
        with pytest.raises(ParallelExecutionError):
            pool.run_batch(queries, 2, "dynamic")

    def test_killed_worker_surfaces_as_typed_crash(self, random_gnp):
        # crash_retries=0 restores the fail-fast contract this test pins.
        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with WorkerPool(
            csr, workers=2, context=FAST_CONTEXT, crash_retries=0
        ) as pool:
            victim = pool.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.time() + 5.0
            while pool._processes[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.run_batch(queries, 3, "dynamic")
            assert excinfo.value.worker_id == 0
            assert excinfo.value.exitcode == -signal.SIGKILL
            assert excinfo.value.positions  # the lost shard is named

    def test_pool_heals_killed_worker_and_redispatches(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        reference = ReverseKRanksEngine(random_gnp).query_many(
            queries, 3, algorithm="dynamic"
        )
        with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as pool:
            os.kill(pool.worker_pids[0], signal.SIGKILL)
            deadline = time.time() + 5.0
            while pool._processes[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            outcome = pool.run_batch(queries, 3, "dynamic")
            assert pool.crash_count >= 1
            assert pool.respawn_count >= 1
            assert pool.health()["generations"][0] >= 1
            assert [r.as_pairs() for r in outcome.results] == [
                r.as_pairs() for r in reference
            ]
            # The healed pool keeps serving.
            again = pool.run_batch(queries, 3, "dynamic")
            assert [r.as_pairs() for r in again.results] == [
                r.as_pairs() for r in reference
            ]

    def test_result_channels_are_per_worker_and_replaced_on_respawn(
        self, random_gnp
    ):
        # Crash isolation: each worker writes to its own result queue
        # (a SIGKILL mid-flush can leave a queue's cross-process write
        # lock held forever — a shared queue would then wedge every
        # future writer, including the replacement's "ready" message),
        # and a respawn must discard the casualty's possibly-poisoned
        # channel, not reuse it.
        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as pool:
            assert len(pool._result_queues) == 2
            assert pool._result_queues[0] is not pool._result_queues[1]
            poisoned = pool._result_queues[0]
            os.kill(pool.worker_pids[0], signal.SIGKILL)
            deadline = time.time() + 5.0
            while pool._processes[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            outcome = pool.run_batch(queries, 3, "dynamic")
            assert len(outcome.results) == len(queries)
            assert pool.respawn_count >= 1
            assert pool._result_queues[0] is not poisoned

    def test_wedged_respawn_is_killed_within_respawn_timeout(
        self, random_gnp
    ):
        from repro import faults

        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        try:
            with WorkerPool(
                csr, workers=2, context="fork", respawn_timeout=0.5
            ) as pool:
                os.kill(pool.worker_pids[0], signal.SIGKILL)
                deadline = time.time() + 5.0
                while pool._processes[0].is_alive() and time.time() < deadline:
                    time.sleep(0.05)
                # Armed only now: the running workers never see it, but a
                # fork-respawned replacement inherits the registry and
                # stalls before reporting ready — the bounded respawn
                # must kill it and fail the batch in seconds, not wait
                # out the 60s startup budget.
                faults.configure("worker.start=sleep(30)")
                start = time.monotonic()
                with pytest.raises(WorkerCrashError) as excinfo:
                    pool.run_batch(queries, 3, "dynamic")
                assert time.monotonic() - start < 10.0
                assert "respawning the worker failed" in str(excinfo.value)
                assert "did not report ready" in str(excinfo.value)
                assert not pool._processes[0].is_alive()  # no leaked child
        finally:
            faults.clear()

    def test_batch_deadline_kills_stuck_worker_and_pool_survives(
        self, random_gnp
    ):
        from repro import faults
        from repro.errors import WorkerTimeoutError

        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        reference = ReverseKRanksEngine(random_gnp).query_many(
            queries, 3, algorithm="dynamic"
        )
        try:
            # Each worker stalls once, on its second result — batch 1 is
            # clean, batch 2 hangs, the respawned replacements (counters
            # reset) serve batch 3 cleanly again.
            faults.configure("worker.before_result=sleep(30)#2*1")
            with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as pool:
                pool.run_batch(queries, 3, "dynamic")
                start = time.monotonic()
                with pytest.raises(WorkerTimeoutError) as excinfo:
                    pool.run_batch(queries, 3, "dynamic", timeout=1.0)
                assert time.monotonic() - start < 20.0  # no 30s hang
                assert excinfo.value.worker_ids
                assert excinfo.value.positions
                assert pool.timeout_count == 1
                outcome = pool.run_batch(queries, 3, "dynamic", timeout=30.0)
                assert [r.as_pairs() for r in outcome.results] == [
                    r.as_pairs() for r in reference
                ]
        finally:
            faults.clear()

    def test_failpoint_error_travels_as_remote_traceback(self, random_gnp):
        from repro import faults

        csr = CompactGraph.from_graph(random_gnp)
        try:
            faults.configure("worker.before_task=error*1")
            with WorkerPool(csr, workers=1, context=FAST_CONTEXT) as pool:
                queries = sorted(random_gnp.nodes(), key=repr)[:2]
                with pytest.raises(ParallelExecutionError) as excinfo:
                    pool.run_batch(queries, 2, "dynamic")
                assert "FailpointError" in str(excinfo.value)
                # *1 disarmed the failpoint: the worker survives and the
                # next batch is clean.
                outcome = pool.run_batch(queries, 2, "dynamic")
                assert len(outcome.results) == 2
        finally:
            faults.clear()

    def test_worker_exception_carries_remote_traceback(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        with WorkerPool(csr, workers=1, context=FAST_CONTEXT) as pool:
            # k beyond the engine-side validation the worker re-runs.
            queries = sorted(random_gnp.nodes(), key=repr)[:2]
            with pytest.raises(ParallelExecutionError) as excinfo:
                pool.run_batch(queries, 10_000, "dynamic")
            assert "InvalidKError" in str(excinfo.value)
            # The worker survives a shard error and serves the next batch.
            outcome = pool.run_batch(queries, 2, "dynamic")
            assert len(outcome.results) == 2


# ----------------------------------------------------------------------
# Spawn start method (one representative round trip; slower to start)
# ----------------------------------------------------------------------
@needs_spawn
def test_spawn_round_trip_matches_sequential(random_gnp):
    queries = sample_queries(random_gnp, count=3)
    with ReverseKRanksEngine(random_gnp) as engine:
        sequential = engine.query_many(queries, 3, algorithm="dynamic")
        parallel = engine.query_many(
            queries, 3, algorithm="dynamic", workers=2, worker_context="spawn"
        )
        assert engine._pool.start_method == "spawn"
    assert [result.as_pairs() for result in parallel] == [
        result.as_pairs() for result in sequential
    ]
