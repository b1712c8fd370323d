"""Shared plumbing for the benchmark workloads.

Everything here lives outside the program under test: seeded input
generators, percentile and resident-memory helpers, an in-memory span
log for traced runs, a Prometheus-text reader for the server's
``metrics`` op, and the one-line JSON result the runner prints.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import math
import os
import random
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Checkout root: the benchmark directory's parent.
ROOT = Path(__file__).resolve().parent.parent
#: The program's import root inside the checkout.
SRC = ROOT / "src"
#: Scratch space for generated datasets and server state (removed per run).
WORK_DIR = ROOT / ".perfbench_work"
#: Where traced runs write their span logs.
TRACE_DIR = ROOT / ".perfbench_out"

K = 8
#: Edge weights are whole numbers in [100, 1000]: the program's usual
#: two-decimal weights in [1, 10] counted in hundredths.  Scaling every
#: weight leaves every rank unchanged, and sums of whole numbers are exact
#: in floating point, so every algorithm computes the same distances and a
#: distance tie stays a tie.  With two-decimal weights, float rounding
#: breaks exact ties differently depending on the summation order, so
#: even ``static`` and ``naive`` can return a rank that exact arithmetic
#: does not give (see README.md, "Whole-number edge weights").
EDGE_WEIGHT_RANGE = (100.0, 1000.0)


class BenchSetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. the program is missing)."""


def import_program() -> None:
    """Put the checkout's ``src`` on ``sys.path``; fail loudly without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchSetupError(
            f"program sources not found under {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Seeded inputs (plain Python data; the program only ever sees these)
# ----------------------------------------------------------------------
def gnp_edges(
    num_nodes: int, avg_degree: float, rng: random.Random
) -> List[Tuple[int, int, float]]:
    """Undirected G(n, p) edge list with whole-number weights in [100, 1000]."""
    probability = avg_degree / (num_nodes - 1)
    low, high = EDGE_WEIGHT_RANGE
    edges = []
    for source in range(num_nodes):
        for target in range(source + 1, num_nodes):
            if rng.random() < probability:
                edges.append((source, target, float(round(rng.uniform(low, high)))))
    return edges


def build_graph(num_nodes: int, edges: Sequence[Tuple[int, int, float]]):
    """A program ``Graph`` over nodes ``0..num_nodes-1`` with ``edges``."""
    from repro.graph.graph import Graph

    graph = Graph(name=f"perfbench-gnp-{num_nodes}")
    graph.add_nodes(range(num_nodes))
    for source, target, weight in edges:
        graph.add_edge(source, target, weight)
    return graph


def zipf_sampler(nodes: Sequence[int], s: float, rng: random.Random):
    """``draw(rng, count)`` returning Zipf(``s``) samples over a seeded ranking."""
    ranked = list(nodes)
    rng.shuffle(ranked)
    cumulative = list(
        itertools.accumulate(1.0 / (rank ** s) for rank in range(1, len(ranked) + 1))
    )

    def draw(stream: random.Random, count: int) -> List[int]:
        return stream.choices(ranked, cum_weights=cumulative, k=count)

    return draw


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``fraction`` at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for an empty sample (every call in it failed)."""
    return sum(values) / len(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def latency_summary(name: str, samples_s: Sequence[float]) -> Dict[str, float]:
    """p50/p99 in ms, plus a stdout note with the sample count behind them."""
    count = len(samples_s)
    beyond = count - max(1, math.ceil(0.99 * count))
    print(f"{name}: {count} samples, {beyond} beyond p99", flush=True)
    return {
        "p50_ms": percentile(samples_s, 0.50) * 1e3,
        "p99_ms": percentile(samples_s, 0.99) * 1e3,
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` (default: this process) in MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchSetupError("VmHWM missing from /proc status")


# ----------------------------------------------------------------------
# Machine speed (a fixed probe timed between units of measured work)
# ----------------------------------------------------------------------
#: Thread CPU seconds of one probe at the reference speed.  The 2-CPU
#: reference machine took 0.5 to 1.6 ms as its speed changed.  The value
#: only sets the scale of the reported times.
PROBE_REFERENCE_S = 0.0008
#: Probes are taken at most this often.
PROBE_INTERVAL_S = 0.05
#: A measured time is scaled by the median slowdown of the probes within
#: this many seconds of its midpoint.  Bursts of slowdown last 0.3 s and
#: more; the median drops the odd probe that a lone hiccup slowed.
PROBE_WINDOW_S = 0.15
PROBE_NODES = 120
PROBE_REPEATS = 5


def _probe_graph() -> List[List[Tuple[int, int]]]:
    rng = random.Random("perfbench:probe")
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(PROBE_NODES)]
    for node in range(PROBE_NODES):
        for other in rng.sample(range(PROBE_NODES), 3):
            if other != node:
                weight = rng.randint(1, 9)
                adjacency[node].append((other, weight))
                adjacency[other].append((node, weight))
    return adjacency


def _probe_work(adjacency) -> None:
    for _ in range(PROBE_REPEATS):
        distance = {0: 0}
        heap = [(0, 0)]
        while heap:
            settled, node = heapq.heappop(heap)
            if settled > distance[node]:
                continue
            for other, weight in adjacency[node]:
                candidate = settled + weight
                if candidate < distance.get(other, math.inf):
                    distance[other] = candidate
                    heapq.heappush(heap, (candidate, other))


class SpeedProbe:
    """How much slower than the reference this machine runs plain Python now.

    On a shared host one core's speed swings by +-25% within seconds and
    drifts as far over minutes, because of other tenants.  Plain Python
    and the program slow down together: over 4 s windows their speeds
    correlated at 0.99 and their ratio stayed within +-5%.  The probe is a
    fixed Dijkstra over a 120-node graph in plain Python (heap, dict and
    list work, like the program's), timed with the thread's CPU clock so
    that waiting for a CPU or for the GIL does not count.

    In-process workloads call :meth:`tick` between units of work; the
    server workload probes from a thread of its own
    (:meth:`start_sampling`) while its server and clients run.  Each
    end-to-end time is then divided by the slowdown around it
    (:meth:`scale`, :meth:`scale_span`), which gives the time at the
    reference speed.
    """

    def __init__(self) -> None:
        self._adjacency = _probe_graph()
        self._at: List[float] = []
        self._slowdown: List[float] = []
        self._next = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        start = time.thread_time()
        _probe_work(self._adjacency)
        spent = time.thread_time() - start
        now = time.perf_counter()
        self._at.append(now)
        self._slowdown.append(spent / PROBE_REFERENCE_S)
        self._next = now + PROBE_INTERVAL_S

    def tick(self) -> None:
        """Take a probe if the last one is ``PROBE_INTERVAL_S`` old."""
        if time.perf_counter() >= self._next:
            self.sample()

    def start_sampling(self) -> None:
        """Probe every ``PROBE_INTERVAL_S`` from a thread of its own."""
        self._stop = threading.Event()

        def loop() -> None:
            while not self._stop.is_set():
                self.sample()
                self._stop.wait(PROBE_INTERVAL_S)

        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()

    def stop_sampling(self) -> None:
        """Stop the sampling thread and wait for it; a no-op if none runs."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def slowdown_at(self, at: float) -> float:
        """Median slowdown of the probes within ``PROBE_WINDOW_S`` of ``at``.

        Fewer than three there (at the edges of a phase): the three nearest.
        """
        if not self._at:
            raise BenchSetupError("no speed probe was taken")
        low = bisect.bisect_left(self._at, at - PROBE_WINDOW_S)
        high = bisect.bisect_right(self._at, at + PROBE_WINDOW_S)
        if high - low < 3:
            nearest = sorted(range(len(self._at)), key=lambda i: abs(self._at[i] - at))
            return median([self._slowdown[i] for i in nearest[:3]])
        return median(self._slowdown[low:high])

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        return seconds / self.slowdown_at(start + seconds / 2.0)

    def scale_span(self, start: float, end: float) -> float:
        """The wall interval ``start..end`` at the reference speed.

        Evenly spaced probes each stand for an equal share of the interval,
        which would take ``share / slowdown`` at the reference speed.
        """
        low = bisect.bisect_left(self._at, start)
        high = bisect.bisect_right(self._at, end)
        if high - low < 3:
            return self.scale(start, end - start)
        return (end - start) * mean([1.0 / slowdown for slowdown in self._slowdown[low:high]])

    def report(self) -> None:
        """One stdout line: how many probes, and the slowdown's quartiles."""
        if len(self._slowdown) < 2:
            return
        q1, mid, q3 = statistics.quantiles(self._slowdown, n=4)
        print(
            f"speed probe: {len(self._slowdown)} samples, slowdown median {mid:.3f} "
            f"(q1 {q1:.3f}, q3 {q3:.3f}); end-to-end times are at slowdown 1",
            flush=True,
        )


# ----------------------------------------------------------------------
# Tracing (benchmark-side spans around calls into the program)
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory spans, one trace id per request or round, written at the end.

    Each span records its name, its trace id, its parent span and its
    ``perf_counter`` interval.  Program-side span trees (an engine's
    ``last_trace`` or a server ``trace`` reply) are grafted under the
    span that caused them with :meth:`graft`.  A disabled log hands out
    a null context, so untraced runs record nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str, trace_id: str, **meta):
        if not self.enabled:
            return nullcontext()
        return self._record(name, trace_id, meta)

    @contextmanager
    def _record(self, name: str, trace_id: str, meta: dict):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "trace_id": trace_id,
            "span_id": next(self._ids),
            "parent_id": stack[-1]["span_id"] if stack else None,
            "name": name,
            "start_s": time.perf_counter(),
            "duration_s": 0.0,
            "meta": meta,
            "program": [],
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["duration_s"] = time.perf_counter() - record["start_s"]
            stack.pop()
            self.spans.append(record)

    @staticmethod
    def graft(record: Optional[dict], tree: Optional[dict]) -> None:
        """Attach a program span tree (``{"trace_id", "root"}``) under ``record``."""
        if record is not None and tree:
            record["program"].append(tree.get("root", tree))

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds.

        Self time is a span's duration minus its direct children's
        (benchmark children and grafted program roots), floored at zero.
        """
        child_time: Dict[int, float] = {}
        for record in self.spans:
            if record["parent_id"] is not None:
                child_time[record["parent_id"]] = (
                    child_time.get(record["parent_id"], 0.0) + record["duration_s"]
                )
        summary: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            grafted = sum(root.get("duration_s", 0.0) for root in record["program"])
            self_s = max(
                0.0,
                record["duration_s"] - child_time.get(record["span_id"], 0.0) - grafted,
            )
            entry = summary.setdefault(
                record["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += record["duration_s"]
            entry["self_s"] += self_s
            for root in record["program"]:
                _add_program_self_times(root, summary)
        return summary

    def write(self, workload: str, seed: int) -> Optional[Path]:
        """Dump every span plus the self-time summary; returns the file path."""
        if not self.enabled:
            return None
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"{workload}-seed{seed}.trace.json"
        document = {
            "workload": workload,
            "seed": seed,
            "self_times": self.self_times(),
            "spans": self.spans,
        }
        path.write_text(json.dumps(document))
        return path


def _add_program_self_times(span: dict, summary: Dict[str, Dict[str, float]]) -> None:
    children = span.get("children", ())
    covered = sum(child.get("duration_s", 0.0) for child in children)
    entry = summary.setdefault(
        span.get("name", "?"), {"count": 0, "total_s": 0.0, "self_s": 0.0}
    )
    entry["count"] += 1
    entry["total_s"] += span.get("duration_s", 0.0)
    entry["self_s"] += max(0.0, span.get("duration_s", 0.0) - covered)
    for child in children:
        _add_program_self_times(child, summary)


def print_self_times(log: SpanLog) -> None:
    """One stdout line per span name, largest self time first."""
    ranked = sorted(log.self_times().items(), key=lambda item: -item[1]["self_s"])
    for name, entry in ranked:
        print(
            f"span {name}: count={entry['count']} total_s={entry['total_s']:.4f} "
            f"self_s={entry['self_s']:.4f}",
            flush=True,
        )


# ----------------------------------------------------------------------
# Prometheus text exposition (the server's ``metrics`` op)
# ----------------------------------------------------------------------
def parse_metrics(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


def metric_total(samples: Dict[str, float], name: str, label: str = "") -> float:
    """Sum of ``name`` over label sets (only those containing ``label``, if given)."""
    total = 0.0
    for key, value in samples.items():
        base, _, labels = key.partition("{")
        if base == name and label in labels:
            total += value
    return total


def metric_delta(
    before: Dict[str, float], after: Dict[str, float], name: str, label: str = ""
) -> float:
    return metric_total(after, name, label) - metric_total(before, name, label)


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------
class Outcome:
    """What one workload run measured.

    ``attempted``/``failed`` count operations (query calls, update calls,
    client requests); errors, refusals and wrong answers all fail.
    ``end_to_end`` and ``layers`` map metric names to values; a layer
    metric the workload does not exercise is simply absent.  ``spans``
    is the run's span log (enabled on trace runs).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.end_to_end: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.spans: Optional[SpanLog] = None

    def fail(self, what: str, detail: object) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {what}: {detail}", file=sys.stderr, flush=True)


def emit_result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def env_with_program_path() -> Dict[str, str]:
    """Environment for a child Python process that imports the program."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env
