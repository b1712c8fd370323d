#!/usr/bin/env python
"""CI smoke for the observability layer: scrape a loaded 2-worker server.

The in-process test suite covers every obs component; this script is the
*process-level* rehearsal CI runs on top of it:

1. boot ``python -m repro.serve --workers 2 --metrics-port 0 --trace`` on
   a seeded fixture graph with a durable state directory;
2. drive concurrent queries through real sockets while scraping the
   plain-HTTP ``/metrics`` endpoint twice mid-load, asserting (a) every
   required metric family is present in one scrape — batcher flush
   causes, pool batch latency, worker respawn/timeout
   counters, journal fsync latency, codec IPC bytes — and (b) the
   serve/query counters are monotone across the two scrapes;
3. fetch the last batch trace via the framed-JSON ``trace`` op and
   assert the parent + worker spans are stitched under one trace id with
   every worker span contained in the parent batch duration;
4. stop the server gracefully (a live pool must not orphan its
   shared-memory graph segment — the workflow's /dev/shm check follows).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402

#: Families a loaded 2-worker traced run must expose in one scrape.
REQUIRED_FAMILIES = (
    "repro_serve_requests_total",
    "repro_serve_batches_total",
    "repro_serve_flushes_total",
    "repro_serve_batch_queries_bucket",
    "repro_query_batches_total",
    "repro_queries_total",
    "repro_pool_batches_total",
    "repro_pool_batch_seconds_bucket",
    "repro_worker_crashes_total",
    "repro_worker_respawns_total",
    "repro_worker_timeouts_total",
    "repro_ipc_bytes_total",
    "repro_journal_appends_total",
    "repro_journal_fsync_seconds_bucket",
    "repro_journal_size_bytes",
)

#: Counters whose samples must be monotone between the two scrapes.
MONOTONE_SAMPLES = (
    "repro_serve_requests_total",
    "repro_serve_queries_total",
    "repro_serve_batches_total",
    "repro_journal_appends_total",
)


def start_server(args, state_dir):
    """Launch the serve CLI; wait for its READY and METRICS lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--fixture",
            args.fixture,
            "--state-dir",
            str(state_dir),
            "--workers",
            "2",
            "--max-batch",
            "16",
            "--max-wait-ms",
            "4",
            "--default-algorithm",
            "indexed",
            "--default-k",
            str(args.k),
            "--metrics-port",
            "0",
            "--trace",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + args.boot_timeout
    endpoint = metrics_endpoint = None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line.startswith("READY "):
            endpoint = line.split()[1]
        elif line.startswith("METRICS "):
            metrics_endpoint = line.split()[1]
        if endpoint and metrics_endpoint:
            break
        if process.poll() is not None:
            raise SystemExit(
                f"server exited during startup (rc={process.returncode})"
            )
    else:
        process.kill()
        raise SystemExit("server did not print READY + METRICS in time")
    host, port = endpoint.rsplit(":", 1)
    return process, host, int(port), metrics_endpoint


def scrape(metrics_endpoint):
    """One HTTP scrape; returns ``(raw_text, {name{labels}: value})``."""
    with urllib.request.urlopen(
        f"http://{metrics_endpoint}/metrics", timeout=30
    ) as response:
        assert response.status == 200, response.status
        content_type = response.headers.get("Content-Type", "")
        assert content_type.startswith("text/plain"), content_type
        text = response.read().decode("utf-8")
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return text, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixture", default="gnp:120:11")
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--load-queries", type=int, default=180)
    parser.add_argument("--boot-timeout", type=float, default=180.0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-metrics-smoke-") as tmp:
        state_dir = Path(tmp) / "state"
        process, host, port, metrics_endpoint = start_server(args, state_dir)
        try:
            with ServeClient(host=host, port=port) as client:
                num_nodes = client.info()["num_nodes"]

            # Phase 1: concurrent load with two mid-load scrapes.
            per_thread = args.load_queries // args.clients
            errors = []
            scrapes = []

            def loop(offset):
                try:
                    with ServeClient(
                        host=host, port=port, timeout=120.0
                    ) as client:
                        for i in range(per_thread):
                            node = (offset * per_thread + i) % num_nodes
                            result = client.query(node, k=args.k)
                            assert len(result) == args.k, result
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=loop, args=(i,))
                for i in range(args.clients)
            ]
            for thread in threads:
                thread.start()
            # Two scrapes while the load is in flight.
            time.sleep(0.2)
            scrapes.append(scrape(metrics_endpoint))
            time.sleep(0.4)
            scrapes.append(scrape(metrics_endpoint))
            for thread in threads:
                thread.join()
            if errors:
                raise SystemExit(f"load phase failed: {errors[0]!r}")

            # One more scrape with the load fully drained: every family
            # the run can populate is populated now.
            final_text, final_samples = scrape(metrics_endpoint)
            missing = [
                family
                for family in REQUIRED_FAMILIES
                if family not in final_text
            ]
            if missing:
                raise SystemExit(f"scrape lacks metric families: {missing}")
            for first, second in ((scrapes[0][1], scrapes[1][1]),):
                for sample, early in first.items():
                    if not any(
                        sample.startswith(name) for name in MONOTONE_SAMPLES
                    ):
                        continue
                    late = second.get(sample)
                    if late is None or late < early:
                        raise SystemExit(
                            f"counter {sample} not monotone across scrapes: "
                            f"{early} -> {late}"
                        )
            answered = final_samples.get("repro_serve_queries_total", 0.0)
            if answered < args.load_queries:
                raise SystemExit(
                    f"metrics report {answered} queries < "
                    f"{args.load_queries} driven"
                )
            print(
                f"phase 1: {int(answered)} queries answered under load; "
                f"{len(REQUIRED_FAMILIES)} required families present, "
                f"counters monotone across mid-load scrapes"
            )

            # The framed-JSON metrics op must agree with the HTTP view.
            with ServeClient(host=host, port=port) as client:
                op_text = client.metrics()
                for family in REQUIRED_FAMILIES:
                    if family not in op_text:
                        raise SystemExit(
                            f"metrics op lacks family {family}"
                        )

                # Phase 2: one full multi-query batch (the drained-load
                # trailing batches can be single-query and run
                # sequentially), then its stitched trace.
                probe = list(range(0, num_nodes, max(1, num_nodes // 12)))
                client.query_many(probe, k=args.k)
                state = client.trace()
            if not state["enabled"]:
                raise SystemExit("--trace did not enable the server tracer")
            trace = state["trace"]
            if not trace:
                raise SystemExit("no batch trace recorded under --trace")
            root = trace["root"]
            if root["name"] != "engine.query_many":
                raise SystemExit(f"unexpected trace root: {root['name']}")
            json.dumps(trace)  # must be JSON-clean end to end
            dispatch = next(
                (
                    child
                    for child in root.get("children", [])
                    if child["name"] == "engine.pool_dispatch"
                ),
                None,
            )
            if dispatch is None:
                # Small trailing batches may run sequentially (below the
                # engine's parallel_min_batch) — still a stitching
                # failure for this smoke, which drives full batches.
                raise SystemExit(
                    "last traced batch has no pool dispatch span: "
                    f"{[c['name'] for c in root.get('children', [])]}"
                )
            workers = [
                child
                for child in dispatch.get("children", [])
                if child["name"] == "worker.shard"
            ]
            if not workers:
                raise SystemExit("no worker.shard spans stitched into trace")
            for span in workers:
                if not 0.0 < span["duration_s"] <= root["duration_s"]:
                    raise SystemExit(
                        f"worker span duration {span['duration_s']} outside "
                        f"parent batch duration {root['duration_s']}"
                    )
            print(
                f"phase 2: trace {trace['trace_id']} stitched "
                f"{len(workers)} worker spans under one parent batch span"
            )

            # Phase 3: graceful stop (pool cleanup incl. shm segment).
            with ServeClient(host=host, port=port) as client:
                client.shutdown()
            process.wait(timeout=60)
            if process.returncode != 0:
                raise SystemExit(
                    f"graceful shutdown exited rc={process.returncode}"
                )
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
    print("metrics smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
