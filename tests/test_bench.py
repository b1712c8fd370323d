"""Tests for the benchmark subsystem: workloads, harness, report, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    WORKLOAD_FAMILIES,
    build_report,
    build_suite,
    dataset_workload,
    gnp_workload,
    huge_suite,
    lattice_workload,
    powerlaw_workload,
    render_table,
    run_workload,
    smoke_suite,
)
from repro.bench.__main__ import main as bench_main
from repro.errors import WorkloadError


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------
def test_all_families_have_generators():
    assert set(WORKLOAD_FAMILIES) == {
        "path",
        "grid",
        "gnp",
        "powerlaw",
        "bichromatic",
        "lattice",
    }


def test_workloads_are_deterministic():
    first = gnp_workload(num_nodes=20, seed=9)
    second = gnp_workload(num_nodes=20, seed=9)
    assert first.graph.structurally_equal(second.graph)
    assert first.queries == second.queries
    other_seed = gnp_workload(num_nodes=20, seed=10)
    assert not first.graph.structurally_equal(other_seed.graph)


def test_smoke_suite_covers_every_family():
    suite = smoke_suite()
    assert [workload.family for workload in suite] == list(WORKLOAD_FAMILIES)
    for workload in suite:
        assert workload.num_nodes <= 32
        assert workload.queries
        assert all(workload.graph.has_node(query) for query in workload.queries)
        assert 1 <= workload.k < workload.num_nodes


def test_powerlaw_is_hub_heavy():
    workload = powerlaw_workload(num_nodes=60, attach=2, seed=3)
    degrees = sorted(
        (workload.graph.degree(node) for node in workload.graph.nodes()),
        reverse=True,
    )
    # Preferential attachment concentrates degree in the head.
    assert degrees[0] >= 3 * degrees[len(degrees) // 2]


def test_bichromatic_workload_queries_are_facilities():
    workload = build_suite(families=["bichromatic"], scale="smoke")[0]
    assert workload.partition is not None
    assert all(workload.partition.is_facility(query) for query in workload.queries)
    assert workload.k <= workload.partition.num_communities


def test_unknown_family_and_scale_rejected():
    with pytest.raises(WorkloadError):
        build_suite(families=["nope"])
    with pytest.raises(WorkloadError):
        build_suite(scale="gigantic")


def test_large_scale_defines_sampled_monochromatic_workloads():
    # Only the (cheap-to-generate) path family is materialised; the other
    # large presets are thousands of nodes and belong to the bench itself.
    (workload,) = build_suite(families=["path"], scale="large")
    assert workload.num_nodes >= 2000
    assert workload.naive_sample
    assert workload.index_params
    described = workload.describe()
    assert described["naive_sample"] == workload.naive_sample
    assert described["index_params"] == workload.index_params
    from repro.bench.workloads import _SCALES

    assert sorted(_SCALES["large"]) == ["gnp", "grid", "path", "powerlaw"]
    # Bichromatic has no large preset yet; asking for it explicitly fails.
    with pytest.raises(WorkloadError):
        build_suite(families=["bichromatic"], scale="large")


def test_lattice_workload_shape_and_determinism():
    first = lattice_workload(side=6, seed=3)
    second = lattice_workload(side=6, seed=3)
    assert first.graph.structurally_equal(second.graph)
    assert first.queries == second.queries
    assert first.num_nodes == 36
    assert first.family == "lattice"
    assert first.name == "lattice-6x6"
    # The diagonal shortcuts make it more than a pure grid.
    grid_edges = 2 * 6 * (6 - 1)
    assert first.graph.num_edges >= grid_edges
    with pytest.raises(WorkloadError):
        lattice_workload(side=1)
    with pytest.raises(WorkloadError):
        lattice_workload(side=4, diagonal_fraction=1.5)


def test_huge_scale_presets_use_auto_budgets():
    from repro.bench.workloads import _SCALES

    assert sorted(_SCALES["huge"]) == ["lattice"]
    preset = _SCALES["huge"]["lattice"]
    assert preset["side"] == 320  # n = 102,400 — the huge tier target
    assert preset["naive_sample"]
    assert preset["index_params"] == {"num_hubs": "auto", "explore_limit": "auto"}
    # Every large preset also defers to the budget policy now.
    for family, params in _SCALES["large"].items():
        assert params["index_params"]["num_hubs"] == "auto", family
    # Materialising the side=320 lattice is a bench-only cost; huge_suite
    # itself is exercised by the slow-marked smoke below.
    assert callable(huge_suite)


def test_dataset_workload_reads_edge_list(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("# tiny dataset\n0 1 1.0\n1 2 2.0\n2 3 1.5\n3 0 1.0\n")
    workload = dataset_workload(path, num_queries=2, seed=1)
    assert workload.family == "dataset"
    assert workload.name == "dataset-tiny"
    assert workload.num_nodes == 4
    assert workload.params["path"] == str(path)
    # Small graphs keep the exhaustive naive baseline.
    assert workload.naive_sample is None
    result = run_workload(workload, repetitions=1, warmup=0)
    assert result.algorithms["naive"].validated is True


def test_combined_scales_concatenate_suites():
    suite = build_suite(scale="smoke,default", families=["gnp"])
    assert [workload.name for workload in suite] == ["gnp-n30", "gnp-n120"]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_result():
    workload = gnp_workload(num_nodes=18, avg_degree=4.0, seed=2, num_queries=2, k=2)
    return run_workload(workload, repetitions=2, warmup=1)


def test_harness_times_all_four_algorithms(tiny_result):
    assert set(tiny_result.algorithms) == {"naive", "static", "dynamic", "indexed"}
    for name, timing in tiny_result.algorithms.items():
        assert len(timing.repetitions) == 2
        assert timing.mean_seconds is not None and timing.mean_seconds >= 0
        assert timing.best_seconds <= max(timing.repetitions)
        assert timing.validated is True, name
    assert tiny_result.algorithms["indexed"].index_build_seconds is not None


def test_harness_skips_indexed_on_bichromatic():
    workload = build_suite(families=["bichromatic"], scale="smoke")[0]
    result = run_workload(workload, repetitions=1, warmup=0)
    assert result.algorithms["indexed"].skipped
    assert not result.algorithms["indexed"].repetitions
    assert result.algorithms["dynamic"].validated is True


def test_harness_samples_naive_on_large_workloads():
    workload = gnp_workload(
        num_nodes=36, avg_degree=4.0, seed=5, num_queries=2, k=3,
        naive_sample=10, index_params={"num_hubs": 3, "explore_limit": 18},
    )
    result = run_workload(workload, repetitions=1, warmup=0)
    naive = result.algorithms["naive"]
    assert naive.sampled_candidates == 10
    # Extrapolation scales the sampled batch to all |V| - 1 candidates.
    assert naive.estimated_full_seconds == pytest.approx(
        naive.mean_seconds * (36 - 1) / 10
    )
    assert naive.validated is True
    # Optimised algorithms are spot-checked against the sampled exact
    # ranks (and each other) and still count as validated.
    for name in ("static", "dynamic", "indexed"):
        timing = result.algorithms[name]
        assert timing.validated is True, name
        assert timing.speedup_vs_naive is not None
    payload = result.as_dict()
    assert payload["algorithms"]["naive"]["sampled_candidates"] == 10
    assert payload["algorithms"]["naive"]["estimated_full_seconds"] > 0


def test_harness_index_cache_round_trip(tmp_path):
    workload = gnp_workload(num_nodes=24, avg_degree=4.0, seed=7, num_queries=2, k=2)
    cold = run_workload(
        workload, repetitions=1, warmup=0, index_cache=tmp_path
    )
    assert cold.algorithms["indexed"].index_cache == "miss"
    assert list(tmp_path.glob("*.hubindex"))

    # Workloads regenerate deterministically, so a fresh graph object with
    # the same mutation history accepts the cached index.
    rebuilt = gnp_workload(num_nodes=24, avg_degree=4.0, seed=7, num_queries=2, k=2)
    warm = run_workload(
        rebuilt, repetitions=1, warmup=0, index_cache=tmp_path
    )
    assert warm.algorithms["indexed"].index_cache == "hit"
    assert warm.algorithms["indexed"].validated is True


# ----------------------------------------------------------------------
# Workers axis
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workers_axis_result():
    workload = gnp_workload(
        num_nodes=24, avg_degree=4.0, seed=4, num_queries=4, k=3
    )
    return run_workload(workload, repetitions=1, warmup=0, workers=(1, 2))


def test_workers_axis_adds_suffixed_rows(workers_axis_result):
    algorithms = workers_axis_result.algorithms
    assert {"naive", "static", "dynamic", "indexed"} <= set(algorithms)
    for name in ("naive", "static", "dynamic", "indexed"):
        assert algorithms[name].workers == 1
        parallel = algorithms[f"{name}@w2"]
        assert parallel.workers == 2
        assert parallel.validated is True
        assert len(parallel.repetitions) == 1
        assert parallel.speedup_vs_serial is not None
        assert parallel.speedup_vs_naive is not None
    assert workers_axis_result.parallel_consistent is True


def test_workers_axis_report_fields(workers_axis_result):
    report = build_report([workers_axis_result], config={"workers": [1, 2]})
    (workload,) = report["workloads"]
    assert workload["parallel_consistent"] is True
    assert workload["algorithms"]["dynamic"]["workers"] == 1
    parallel = workload["algorithms"]["dynamic@w2"]
    assert parallel["workers"] == 2
    assert parallel["speedup_vs_serial"] > 0
    table = render_table(report)
    assert "dynamic@w2" in table
    json.dumps(report)


def test_single_parallel_workers_value_keys_rows_plainly():
    workload = gnp_workload(
        num_nodes=20, avg_degree=4.0, seed=6, num_queries=3, k=2
    )
    result = run_workload(workload, repetitions=1, warmup=0, workers=2)
    assert set(result.algorithms) == {"naive", "static", "dynamic", "indexed"}
    for name, timing in result.algorithms.items():
        assert timing.workers == 2, name
        assert timing.validated is True, name
    # The sequential reference was computed untimed; the check still ran.
    assert result.parallel_consistent is True


def test_workers_axis_skips_sampled_naive_retiming():
    workload = gnp_workload(
        num_nodes=36, avg_degree=4.0, seed=5, num_queries=2, k=3,
        naive_sample=10, index_params={"num_hubs": 3, "explore_limit": 18},
    )
    result = run_workload(workload, repetitions=1, warmup=0, workers=(1, 2))
    assert result.algorithms["naive"].sampled_candidates == 10
    assert result.algorithms["naive@w2"].skipped
    assert result.algorithms["dynamic@w2"].validated is True
    assert result.parallel_consistent is True


def test_workers_axis_rejects_bad_values_and_no_csr():
    workload = gnp_workload(num_nodes=18, seed=2, num_queries=2, k=2)
    with pytest.raises(WorkloadError):
        run_workload(workload, repetitions=1, warmup=0, workers=0)
    with pytest.raises(WorkloadError):
        run_workload(workload, repetitions=1, warmup=0, workers=(1, -2))
    # The dict backend is gone, and so is the knob that selected it.
    with pytest.raises(TypeError):
        run_workload(
            workload, repetitions=1, warmup=0, workers=2, use_csr=False
        )


def test_cli_workers_axis(tmp_path):
    output = tmp_path / "bench.json"
    exit_code = bench_main(
        ["--smoke", "--families", "path", "--workers", "1,2",
         "--output", str(output), "--quiet"]
    )
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert report["config"]["workers"] == [1, 2]
    (workload,) = report["workloads"]
    assert workload["parallel_consistent"] is True
    assert "dynamic@w2" in workload["algorithms"]


def test_cli_rejects_malformed_workers(tmp_path, capsys):
    exit_code = bench_main(
        ["--smoke", "--workers", "two", "--output", str(tmp_path / "x.json")]
    )
    assert exit_code == 2
    assert "--workers" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Report + CLI
# ----------------------------------------------------------------------
def test_report_schema(tiny_result):
    report = build_report([tiny_result], config={"scale": "test"})
    assert report["schema_version"] == 1
    assert report["config"]["scale"] == "test"
    (workload,) = report["workloads"]
    assert "backend_consistent" not in workload and "backend" not in workload
    for name in ("naive", "static", "dynamic", "indexed"):
        timing = workload["algorithms"][name]
        assert timing["mean_seconds"] >= 0
        assert timing["per_query_seconds"] >= 0
        assert timing["validated"] is True
    assert workload["algorithms"]["naive"]["speedup_vs_naive"] == 1.0
    table = render_table(report)
    assert "gnp-n18" in table and "naive" in table
    json.dumps(report)  # must be JSON-serialisable as-is


def test_cli_smoke_writes_report(tmp_path, capsys):
    output = tmp_path / "BENCH_core.json"
    exit_code = bench_main(["--smoke", "--output", str(output), "--quiet"])
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert report["schema_version"] == 1
    assert report["config"]["scale"] == "smoke"
    families = {workload["family"] for workload in report["workloads"]}
    assert len(families) >= 3
    for workload in report["workloads"]:
        algorithms = workload["algorithms"]
        assert {"naive", "static", "dynamic", "indexed"} <= set(algorithms)
        for name, timing in algorithms.items():
            if timing.get("skipped"):
                continue
            assert timing["mean_seconds"] >= 0
            assert timing["validated"] is True


def test_cli_family_subset(tmp_path):
    output = tmp_path / "bench.json"
    exit_code = bench_main(
        ["--smoke", "--families", "path,grid", "--output", str(output), "--quiet"]
    )
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert [workload["family"] for workload in report["workloads"]] == ["path", "grid"]


def test_cli_scale_overrides_smoke_timing_defaults(tmp_path):
    # --scale overrides --smoke wholesale: the resolved scale, not the
    # flag, picks the repetition/warmup defaults, so `--smoke --scale
    # smoke` stays cold/fast while any other --scale gets the full 3+1.
    output = tmp_path / "bench.json"
    exit_code = bench_main(
        ["--smoke", "--scale", "smoke", "--families", "path",
         "--output", str(output), "--quiet"]
    )
    assert exit_code == 0
    config = json.loads(output.read_text())["config"]
    assert (config["repetitions"], config["warmup"]) == (1, 0)

    exit_code = bench_main(
        ["--smoke", "--scale", "default", "--families", "path",
         "--output", str(output), "--quiet"]
    )
    assert exit_code == 0
    config = json.loads(output.read_text())["config"]
    assert config["scale"] == "default"
    assert (config["repetitions"], config["warmup"]) == (3, 1)


def test_cli_rejects_unknown_family(tmp_path, capsys):
    exit_code = bench_main(
        ["--smoke", "--families", "nope", "--output", str(tmp_path / "x.json")]
    )
    assert exit_code == 2
    assert "unknown workload family" in capsys.readouterr().err


def test_cli_dataset_run(tmp_path):
    dataset = tmp_path / "toy.txt"
    dataset.write_text("0 1 1.0\n1 2 1.5\n2 3 1.0\n3 4 2.0\n4 0 1.0\n")
    output = tmp_path / "bench.json"
    exit_code = bench_main(
        ["--dataset", str(dataset), "--repetitions", "1", "--warmup", "0",
         "--output", str(output), "--quiet"]
    )
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert report["config"]["scale"] == "dataset"
    assert report["config"]["dataset"] == str(dataset)
    (workload,) = report["workloads"]
    assert workload["family"] == "dataset"
    assert workload["name"] == "dataset-toy"


def test_cli_dataset_missing_file_fails_cleanly(tmp_path, capsys):
    exit_code = bench_main(
        ["--dataset", str(tmp_path / "nope.txt"),
         "--output", str(tmp_path / "x.json"), "--quiet"]
    )
    assert exit_code == 2
    assert capsys.readouterr().err


# ----------------------------------------------------------------------
# Huge-tier smoke (slow)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_huge_tier_smoke_shares_graph_and_parallel_index():
    # A scaled-down huge-tier run: same preset shape (lattice + sampled
    # naive + auto budgets + workers axis) on an affordable side=40
    # lattice.  Asserts the three huge-tier facts end to end: workers map
    # the shared-memory graph, the pool-built hub index is bit-identical
    # to the sequential build, and every parallel batch matches its
    # sequential reference.
    workload = lattice_workload(
        side=40, num_queries=2, k=8, naive_sample=12,
        index_params={"num_hubs": "auto", "explore_limit": "auto"},
    )
    result = run_workload(workload, repetitions=1, warmup=0, workers=(1, 2))
    assert result.parallel_consistent is True
    assert result.parallel_index_consistent is True
    parallel = result.algorithms["indexed@w2"]
    assert parallel.graph_shared is True
    assert parallel.startup_payload_bytes is not None
    payload = result.as_dict()
    assert payload["algorithms"]["indexed@w2"]["graph_shared"] is True
    assert payload["parallel_index_consistent"] is True
    json.dumps(payload)


# ----------------------------------------------------------------------
# Mutation axis (--mutation-rate)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mutation_result():
    workload = gnp_workload(
        num_nodes=24, avg_degree=4.0, seed=6, num_queries=4, k=3
    )
    return run_workload(workload, repetitions=2, warmup=0, mutation_rate=0.5)


def test_mutation_axis_adds_mut_rows(mutation_result):
    algorithms = mutation_result.algorithms
    for name in ("dynamic", "indexed"):
        row = algorithms[f"{name}@mut"]
        assert row.validated is True
        assert len(row.repetitions) == 2
        # Every repetition applied at least one effective update, and
        # the counts were cross-checked against the repro.obs counters.
        assert row.updates_applied >= 2
        assert row.csr_recompactions is not None
        assert row.pool_graph_syncs is not None
        assert row.mean_seconds is not None and row.mean_seconds >= 0
    # Plain rows are untouched by the pass and carry no update fields.
    assert algorithms["dynamic"].updates_applied is None
    assert mutation_result.mutation_consistent is True


def test_mutation_axis_report_fields(mutation_result):
    report = build_report([mutation_result], config={"mutation_rate": 0.5})
    (workload,) = report["workloads"]
    assert workload["mutation_consistent"] is True
    row = workload["algorithms"]["dynamic@mut"]
    assert row["updates_applied"] >= 2
    assert "csr_recompactions" in row
    assert "pool_graph_syncs" in row
    json.dumps(report)


def test_mutation_axis_rejects_bad_rate_and_no_csr():
    workload = gnp_workload(num_nodes=18, seed=2, num_queries=2, k=2)
    with pytest.raises(WorkloadError):
        run_workload(workload, repetitions=1, warmup=0, mutation_rate=-0.1)
    # The dict backend is gone, and so is the knob that selected it.
    with pytest.raises(TypeError):
        run_workload(
            workload, repetitions=1, warmup=0, use_csr=False,
            mutation_rate=0.5,
        )


def test_mutation_axis_skips_bichromatic():
    workload = build_suite(families=["bichromatic"], scale="smoke")[0]
    result = run_workload(workload, repetitions=1, warmup=0, mutation_rate=0.5)
    assert result.algorithms["dynamic@mut"].skipped
    assert not result.algorithms["dynamic@mut"].repetitions
    assert result.mutation_consistent is None


def test_mutation_axis_with_workers_syncs_live_pool():
    workload = gnp_workload(
        num_nodes=24, avg_degree=4.0, seed=9, num_queries=4, k=3
    )
    result = run_workload(
        workload, repetitions=1, warmup=0, workers=(1, 2), mutation_rate=0.5
    )
    assert result.mutation_consistent is True
    for name in ("dynamic", "indexed"):
        parallel = result.algorithms[f"{name}@mut@w2"]
        assert parallel.workers == 2
        assert parallel.validated is True
        assert parallel.updates_applied >= 1
    # The headline claim: across the pass, updates rode the in-place
    # pool broadcast (a row after a threshold recompaction legitimately
    # finds the pool closed, so the guarantee is pass-level).
    mut_rows = [
        timing for key, timing in result.algorithms.items() if "@mut" in key
    ]
    assert sum(row.pool_graph_syncs for row in mut_rows) >= 1


def test_cli_mutation_rate(tmp_path):
    output = tmp_path / "bench.json"
    exit_code = bench_main(
        ["--smoke", "--families", "gnp", "--mutation-rate", "0.5",
         "--output", str(output), "--quiet"]
    )
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert report["config"]["mutation_rate"] == 0.5
    (workload,) = report["workloads"]
    assert workload["mutation_consistent"] is True
    assert "dynamic@mut" in workload["algorithms"]
    assert "indexed@mut" in workload["algorithms"]
