"""``serve-skewed``: a durable ``python -m repro.serve`` under Zipf-skewed load.

The only workload through the batcher, shard planner, IPC codec, merge
and journal.  The server runs as a subprocess with two pool workers and
a fsync'd ``--state-dir``; two closed-loop client connections (one thread
each) send 8 Zipf(1.0)-drawn queries per request.
"""

from __future__ import annotations

import queue
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional

from common import (
    K,
    ROOT,
    WORK_DIR,
    BenchSetupError,
    Outcome,
    SpanLog,
    SpeedProbe,
    env_with_program_path,
    gnp_edges,
    latency_summary,
    median,
    metric_delta,
    parse_metrics,
    peak_rss_mb,
    zipf_sampler,
)

NUM_NODES = 500
AVG_DEGREE = 6.0
WORKERS = 2
CLIENTS = 2
QUERIES_PER_REQUEST = 8
ZIPF_S = 1.0
#: Small enough that the journal compacts into a fresh snapshot a few
#: times per run, so the snapshot path is measured too.
COMPACT_BYTES = 256 * 1024
SETUP_REPEATS = 5
#: Closed-loop warm-up after the one-pass warm-up, before measuring.
WARM_SECONDS = 3.0
#: The measured phase lasts at least this many requests (p99 then has
#: >= 10 samples beyond it) and at least ``--seconds``.
MIN_REQUESTS = 1000
#: Client-side transparent retries on overload backpressure.
CLIENT_RETRIES = 50
#: A reply slower than this fails the request instead of hanging the run.
CLIENT_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 120.0
EXIT_TIMEOUT_S = 60.0
#: Traced runs sample the server's last batch trace every this many requests.
TRACE_POLL_EVERY = 4

_NO_STATS = "the server does not return QueryStats"
_IN_BOOT = "runs inside server boot; setup_s times spawn -> READY -> ping"
#: Per-layer metrics this workload exercises but cannot observe from outside.
UNAVAILABLE = {
    "traversal.tree_pops_per_query": _NO_STATS,
    "traversal.refinements_per_query": _NO_STATS,
    "traversal.settled_per_query": _NO_STATS,
    "traversal.us_per_settled": _NO_STATS,
    "index.hit_ratio": _NO_STATS,
    "graph.compile_ms": _IN_BOOT,
    "index.build_ms": _IN_BOOT,
}

SHM_PREFIXES = ("repro_", "psm_")


def shm_segments() -> set:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {entry.name for entry in shm.iterdir() if entry.name.startswith(SHM_PREFIXES)}


class ServerProcess:
    """One ``python -m repro.serve`` child, started and stopped by its ops."""

    def __init__(self, dataset: Path, state_dir: Path, log_path: Path) -> None:
        self.log_path = log_path
        self._log = log_path.open("w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--dataset", str(dataset),
                "--state-dir", str(state_dir),
                "--workers", str(WORKERS),
                "--default-k", str(K),
                "--compact-bytes", str(COMPACT_BYTES),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env_with_program_path(),
            cwd=str(ROOT),
            text=True,
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port: Optional[int] = None

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def wait_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchSetupError("server did not print READY in time") from None
            if not line:
                raise BenchSetupError(
                    f"server exited before READY: {self.log_path.read_text()[-2000:]}"
                )
            if line.startswith("READY "):
                self.port = int(line.split()[1].rsplit(":", 1)[1])
                return self.port

    def shutdown(self, client) -> int:
        """Stop through the ``shutdown`` op; returns the exit status."""
        client.shutdown()
        client.close()
        return self.proc.wait(timeout=EXIT_TIMEOUT_S)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()


def write_dataset(path: Path, edges) -> List[int]:
    """Tab-separated edge list; returns the nodes it mentions (the servable ones)."""
    with path.open("w") as handle:
        for source, target, weight in edges:
            handle.write(f"{source}\t{target}\t{weight!r}\n")
    return sorted({node for edge in edges for node in edge[:2]})


class _Client:
    """One closed-loop connection: its seeded stream, samples and answers."""

    def __init__(self, port: int, seed: int, index: int, draw) -> None:
        from repro.serve.client import ServeClient

        self.conn = ServeClient(
            port=port,
            timeout=CLIENT_TIMEOUT_S,
            retries=CLIENT_RETRIES,
            rng=random.Random(f"{seed}:{index}:backoff"),
        )
        self.index = index
        self.stream = random.Random(f"serve-skewed:{seed}:client{index}")
        self.draw = draw
        self.answers = []  # (queries, results)
        self.samples = []  # (done_at, latency_s, traced)
        self.request_ids = 0

    def request(self, queries, outcome: Outcome, lock, spans: SpanLog, traced: bool):
        from repro.errors import ReproError

        self.request_ids += 1
        trace_id = f"c{self.index}r{self.request_ids}"
        span = spans.span("bench.request", trace_id, queries=len(queries)) if traced else nullcontext()
        with span as record:
            start = time.perf_counter()
            try:
                results = self.conn.query_many(queries, k=K)
            except ReproError as exc:
                with lock:
                    outcome.attempted += 1
                    outcome.fail(f"request {queries}", repr(exc))
                return None, record
            done = time.perf_counter()
        with lock:
            outcome.attempted += 1
        self.samples.append((done, done - start, traced))
        self.answers.append((queries, results))
        return results, record


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.graph.io import load_dataset
    from repro.serve.client import ServeClient

    # The graph and the Zipf ranking (which nodes are hot) are the same
    # for every seed, so every run serves the same request mix; the seed
    # draws each client's request stream.
    edges = gnp_edges(NUM_NODES, AVG_DEGREE, random.Random("serve-skewed:graph"))
    spans = SpanLog(trace)
    outcome = Outcome()
    lock = threading.Lock()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR))
    servers: List[ServerProcess] = []
    shm_before = shm_segments()
    probe = SpeedProbe()
    probe.start_sampling()
    try:
        dataset = work / "graph.tsv"
        nodes = write_dataset(dataset, edges)
        reference_graph = load_dataset(dataset)
        draw = zipf_sampler(nodes, ZIPF_S, random.Random("serve-skewed:ranking"))

        # --- setup: spawn -> READY -> first ping, several times ----------
        setup_times = []  # (start, seconds)
        for attempt in range(SETUP_REPEATS):
            with spans.span("bench.spawn", f"setup-{attempt}"):
                start = time.perf_counter()
                server = ServerProcess(dataset, work / f"state-{attempt}", work / f"server-{attempt}.log")
                servers.append(server)
                port = server.wait_ready()
                control = ServeClient(port=port)
                if not control.ping():
                    raise BenchSetupError("server did not answer ping")
                setup_times.append((start, time.perf_counter() - start))
            if attempt + 1 < SETUP_REPEATS:
                stop_server(server, control, outcome)

        clients = [_Client(port, seed, index, draw) for index in range(CLIENTS)]

        # --- warm-up: every node once, then a short closed loop ------------
        chunks = [nodes[i:i + QUERIES_PER_REQUEST] for i in range(0, len(nodes), QUERIES_PER_REQUEST)]

        def warm_pass(client: _Client) -> None:
            for chunk in chunks[client.index::CLIENTS]:
                client.request(chunk, outcome, lock, spans, False)

        run_clients(clients, warm_pass)
        closed_loop(clients, outcome, lock, spans, WARM_SECONDS, 0, lambda: False)
        for client in clients:
            client.samples.clear()
            client.conn.retries_used = 0

        # --- measured phase -----------------------------------------------
        stats_before = control.stats()
        metrics_before = parse_metrics(control.metrics())
        traced_flag = [False]
        segments = []  # (start, end, traced, server batches)
        engine_roots = {}  # sampled server batch traces: trace_id -> root duration

        if trace:
            # Untraced, traced, traced, untraced quarters cancel drift in
            # the untraced/traced throughput ratio.
            def control_loop(phase_start: float) -> None:
                for traced in (False, True, True, False):
                    control.trace(enable=traced)
                    traced_flag[0] = traced
                    start, batches = time.perf_counter(), control.stats()["batches"]
                    time.sleep(seconds / 4)
                    segments.append(
                        (start, time.perf_counter(), traced, control.stats()["batches"] - batches)
                    )
                control.trace(enable=False)
                traced_flag[0] = False
        else:
            def control_loop(phase_start: float) -> None:
                time.sleep(max(0.0, seconds - (time.perf_counter() - phase_start)))

        def poll_trace(client: _Client, record) -> None:
            if client.request_ids % TRACE_POLL_EVERY:
                return
            reply = client.conn.trace()
            tree = reply.get("trace")
            if tree and tree.get("trace_id") not in engine_roots:
                engine_roots[tree["trace_id"]] = tree["root"]["duration_s"]
                spans.graft(record, tree)

        phase_s = closed_loop(
            clients, outcome, lock, spans, None, MIN_REQUESTS,
            lambda: traced_flag[0], control_loop, poll_trace if trace else None,
        )
        phase_end = time.perf_counter()
        probe.stop_sampling()
        stats_after = control.stats()
        metrics_after = parse_metrics(control.metrics())
        rss_mb = peak_rss_mb(server.proc.pid)
        retries = sum(client.conn.retries_used for client in clients)
        for client in clients:
            client.conn.close()
        stop_server(server, control, outcome)
    finally:
        probe.stop_sampling()
        for server in servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)
    leaked = shm_segments() - shm_before
    if leaked:
        outcome.attempted += 1
        outcome.fail("shared memory hygiene", f"segments survived: {sorted(leaked)}")

    check_answers(reference_graph, clients, outcome)

    samples = [sample for client in clients for sample in client.samples]
    latencies = [probe.scale(done - latency, latency) for done, latency, _ in samples]
    measured_queries = QUERIES_PER_REQUEST * len(samples)
    latency = latency_summary("latency per request", latencies)
    probe.report()
    outcome.end_to_end = {
        "throughput_qps": measured_queries / probe.scale_span(phase_end - phase_s, phase_end),
        "latency_p50_ms": latency["p50_ms"],
        "latency_p99_ms": latency["p99_ms"],
        "setup_s": median([probe.scale(start, seconds) for start, seconds in setup_times]),
        "peak_rss_mb": rss_mb,
    }

    def delta(name: str, label: str = "") -> float:
        return metric_delta(metrics_before, metrics_after, name, label)

    queries = stats_after["queries"] - stats_before["queries"]
    batches = stats_after["batches"] - stats_before["batches"]
    flushes = delta("repro_serve_flushes_total")
    pool_batches = delta("repro_pool_batch_seconds_count")
    fsyncs = delta("repro_journal_fsync_seconds_count")
    layers = {
        "index.known_ranks": stats_after.get("index_known_ranks", 0),
        "pool.batch_ms_mean": delta("repro_pool_batch_seconds_sum") * 1e3 / max(1.0, pool_batches),
        "pool.busy_share": delta("repro_pool_batch_seconds_sum") / phase_s,
        "pool.ipc_bytes_per_query": delta("repro_ipc_bytes_total", 'direction="result"') / max(1, queries),
        "pool.respawns": delta("repro_worker_respawns_total"),
        "pool.fallback_batches": delta("repro_query_batches_total", 'path="sequential_fallback"'),
        "serve.batch_occupancy": queries / max(1, batches),
        "serve.flush_window_share": delta("repro_serve_flushes_total", 'cause="window"') / max(1.0, flushes),
        "serve.overload_retries": retries,
        "journal.fsync_ms_mean": delta("repro_journal_fsync_seconds_sum") * 1e3 / max(1.0, fsyncs),
        "journal.bytes_per_query": delta("repro_journal_append_bytes_total") / max(1, queries),
        "journal.compactions": delta("repro_journal_compactions_total"),
    }
    if trace:
        traced_time = sum(end - start for start, end, traced, _ in segments if traced)
        untraced_time = sum(end - start for start, end, traced, _ in segments if not traced)
        traced_batches = sum(count for _, _, traced, count in segments if traced)

        def queries_in(traced: bool) -> int:
            return QUERIES_PER_REQUEST * sum(
                1
                for done, _, _ in samples
                for start, end, seg_traced, _ in segments
                if seg_traced == traced and start <= done < end
            )

        traced_qps = queries_in(True) / traced_time
        layers["obs.trace_overhead_ratio"] = (queries_in(False) / untraced_time) / traced_qps
        traced_latency = sum(latency for _, latency, traced in samples if traced)
        if engine_roots:
            mean_engine_s = sum(engine_roots.values()) / len(engine_roots)
            layers["serve.engine_share"] = mean_engine_s * traced_batches / traced_latency
    outcome.layers = layers
    outcome.spans = spans
    print(f"served {queries} queries in {batches} batches; client retries {retries}", flush=True)
    return outcome


def stop_server(server: ServerProcess, control, outcome: Outcome) -> None:
    outcome.attempted += 1
    status = server.shutdown(control)
    if status != 0:
        outcome.fail("server shutdown", f"exit status {status}")


def run_clients(clients, target) -> None:
    threads = [threading.Thread(target=target, args=(client,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(
    clients,
    outcome: Outcome,
    lock,
    spans: SpanLog,
    duration_s: Optional[float],
    min_requests: int,
    traced,
    control_loop=None,
    after_request=None,
) -> float:
    """Drive every client until the phase ends; returns the phase's seconds.

    The phase ends once ``control_loop`` (or ``duration_s`` of sleep)
    returns and at least ``min_requests`` requests were sent in it.
    """
    stop = threading.Event()
    sent_before = sum(client.request_ids for client in clients)

    def loop(client: _Client) -> None:
        while not stop.is_set():
            queries = client.draw(client.stream, QUERIES_PER_REQUEST)
            is_traced = traced()
            _, record = client.request(queries, outcome, lock, spans, is_traced)
            if is_traced and after_request is not None:
                after_request(client, record)

    threads = [threading.Thread(target=loop, args=(client,)) for client in clients]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    if control_loop is not None:
        control_loop(start)
    else:
        time.sleep(duration_s)
    while sum(client.request_ids for client in clients) - sent_before < min_requests:
        time.sleep(0.05)
    stop.set()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def check_answers(graph, clients, outcome: Outcome) -> None:
    """Every served answer against a sequential in-process ``static`` reference."""
    from repro.core.engine import ReverseKRanksEngine
    from repro.core.types import QueryResult, RankedNode
    from repro.core.validation import results_equivalent

    answers = [answer for client in clients for answer in client.answers]
    engine = ReverseKRanksEngine(graph)
    unique = list(dict.fromkeys(query for queries, _ in answers for query in queries))
    # ``static`` uses no dynamic bounds, so it cannot share a bound defect
    # with the served ``indexed`` answers.
    reference = dict(zip(unique, engine.query_many(unique, K, algorithm="static")))
    for queries, results in answers:
        served = [
            QueryResult(query=query, k=K, entries=[RankedNode.make(node, rank) for node, rank in pairs])
            for query, pairs in zip(queries, results)
        ]
        if len(served) != len(queries) or not all(
            results_equivalent(reference[result.query], result) for result in served
        ):
            outcome.fail(f"request {queries}", "answer differs from the static reference")
