"""The ``python -m repro.bench.diff`` report comparator."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.diff import (
    compare_reports,
    main,
    render_diff_table,
    summarize_membership,
)


def make_report(workloads):
    return {"schema_version": 1, "generated_by": "repro.bench", "workloads": workloads}


def make_workload(name, algorithms):
    return {
        "name": name,
        "algorithms": {
            # Real reports carry both timing keys; fixtures mirror that so
            # the tests hold under any default metric.
            algo: {
                "mean_seconds": seconds,
                "best_seconds": seconds,
                "validated": validated,
            }
            for algo, (seconds, validated) in algorithms.items()
        },
    }


def test_compare_flags_slowdowns_beyond_tolerance():
    old = make_report([make_workload("gnp", {"naive": (1.0, True), "dynamic": (0.10, True)})])
    new = make_report([make_workload("gnp", {"naive": (1.0, True), "dynamic": (0.20, True)})])
    rows, failures = compare_reports(old, new, tolerance=0.25)
    by_algo = {row["algorithm"]: row for row in rows}
    assert by_algo["dynamic"]["status"] == "SLOWER"
    assert by_algo["naive"]["status"] == "ok"
    assert len(failures) == 1 and "2.00x worse" in failures[0]

    # The same pair passes with a 2x tolerance.
    _, failures = compare_reports(old, new, tolerance=1.0)
    assert failures == []


def test_compare_speedup_metric_is_direction_inverted():
    def with_speedup(name, speedups):
        workload = make_workload(name, {})
        workload["algorithms"] = {
            algo: {"speedup_vs_naive": value, "validated": True}
            for algo, value in speedups.items()
        }
        return workload

    old = make_report([with_speedup("gnp", {"naive": 1.0, "dynamic": 4.8})])
    regressed = make_report([with_speedup("gnp", {"naive": 1.0, "dynamic": 1.9})])
    rows, failures = compare_reports(
        old, regressed, tolerance=1.0, metric="speedup_vs_naive"
    )
    by_algo = {row["algorithm"]: row for row in rows}
    # A speedup *drop* is the regression: ratio is old/new > 1.
    assert by_algo["dynamic"]["status"] == "SLOWER"
    assert by_algo["dynamic"]["ratio"] == pytest.approx(4.8 / 1.9)
    assert by_algo["naive"]["status"] == "ok"
    assert failures

    improved = make_report([with_speedup("gnp", {"naive": 1.0, "dynamic": 20.0})])
    _, failures = compare_reports(
        old, improved, tolerance=1.0, metric="speedup_vs_naive"
    )
    assert failures == []


def test_compare_marks_faster_new_and_removed_rows():
    old = make_report([
        make_workload("gone", {"naive": (1.0, True)}),
        make_workload("gnp", {"naive": (1.0, True), "dynamic": (0.4, True)}),
    ])
    new = make_report([
        make_workload("gnp", {"naive": (1.0, True), "dynamic": (0.1, True),
                              "indexed": (0.01, True)}),
        make_workload("fresh-large", {"naive": (2.0, True)}),
    ])
    rows, failures = compare_reports(old, new)
    assert failures == []
    status = {(row["workload"], row["algorithm"]): row["status"] for row in rows}
    assert status[("gone", "naive")] == "removed"
    assert status[("gnp", "dynamic")] == "faster"
    assert status[("gnp", "indexed")] == "new"
    assert status[("fresh-large", "naive")] == "new"
    # Suite growth/shrinkage never fails the diff by itself.


def test_compare_fails_on_correctness_flags():
    old = make_report([make_workload("gnp", {"dynamic": (0.1, True)})])
    bad_validation = make_report([make_workload("gnp", {"dynamic": (0.1, False)})])
    _, failures = compare_reports(old, bad_validation)
    assert any("validated is false" in line for line in failures)

    # Reports committed while the dict-keyed backend existed carry a
    # config.use_csr entry and a per-workload backend_consistent flag;
    # fresh reports carry neither.  The gate went with the backend it
    # checked, so the legacy flag is never read in either position.
    legacy = make_report([make_workload("gnp", {"dynamic": (0.1, True)})])
    legacy["config"] = {"use_csr": True}
    legacy["workloads"][0]["backend_consistent"] = True
    assert compare_reports(legacy, old)[1] == []
    legacy["workloads"][0]["backend_consistent"] = False
    assert compare_reports(old, legacy)[1] == []

    bad_parallel_workload = make_workload("gnp", {"dynamic": (0.1, True)})
    bad_parallel_workload["parallel_consistent"] = False
    _, failures = compare_reports(old, make_report([bad_parallel_workload]))
    assert any("parallel_consistent is false" in line for line in failures)

    # Reports without the (optional) flag — every pre-parallel report —
    # and reports where it is true never trip the gate.
    ok_parallel_workload = make_workload("gnp", {"dynamic": (0.1, True)})
    ok_parallel_workload["parallel_consistent"] = True
    _, failures = compare_reports(old, make_report([ok_parallel_workload]))
    assert failures == []


def test_min_speedup_exempts_near_baseline_rows():
    def with_speedup(name, speedups):
        workload = make_workload(name, {})
        workload["algorithms"] = {
            algo: {"speedup_vs_naive": value, "validated": True}
            for algo, value in speedups.items()
        }
        return workload

    # static's committed advantage is near 1x; a halved ratio there is
    # scheduler noise, while dynamic's real 4.8x -> 1.9x drop must still fail.
    old = make_report([with_speedup("bi", {"static": 1.07, "dynamic": 4.8})])
    new = make_report([with_speedup("bi", {"static": 0.50, "dynamic": 1.9})])
    rows, failures = compare_reports(
        old, new, tolerance=1.0, metric="speedup_vs_naive", min_speedup=2.0
    )
    by_algo = {row["algorithm"]: row for row in rows}
    assert by_algo["static"]["status"] == "ignored"
    assert by_algo["dynamic"]["status"] == "SLOWER"
    assert len(failures) == 1 and "dynamic" in failures[0]

    # The floor is speedup-mode only: wall-clock metrics never ignore rows.
    old = make_report([make_workload("bi", {"static": (1.0, True)})])
    new = make_report([make_workload("bi", {"static": (3.0, True)})])
    _, failures = compare_reports(old, new, min_speedup=2.0)
    assert failures


def test_compare_fails_on_unvalidated_rows():
    # The harness aborts without writing a report when validation actually
    # disagrees, so the only way a report lacks validated=true is
    # --no-validate — a timing-only report must not pass the gate.
    old = make_report([make_workload("gnp", {"dynamic": (0.1, True)})])
    unvalidated = make_report([make_workload("gnp", {"dynamic": (0.1, None)})])
    rows, failures = compare_reports(old, unvalidated)
    assert rows[0]["status"] == "INVALID"
    assert any("not validated" in line for line in failures)


def test_compare_skips_rows_skipped_in_both_reports():
    old = make_report([make_workload("bi", {"indexed": (None, None)})])
    old["workloads"][0]["algorithms"]["indexed"]["skipped"] = "monochromatic-only"
    new = make_report([make_workload("bi", {"indexed": (None, None)})])
    new["workloads"][0]["algorithms"]["indexed"]["skipped"] = "monochromatic-only"
    rows, failures = compare_reports(old, new)
    assert failures == []
    assert rows[0]["status"] == "skipped"


def test_compare_fails_when_validated_row_becomes_skipped():
    # The baseline gated this algorithm; the new run silently stopped
    # running it — that is a harness regression, not suite shrinkage.
    old = make_report([make_workload("bi", {"dynamic": (0.1, True)})])
    new = make_report([make_workload("bi", {"dynamic": (None, None)})])
    new["workloads"][0]["algorithms"]["dynamic"]["skipped"] = "oops"
    rows, failures = compare_reports(old, new)
    assert rows[0]["status"] == "INVALID"
    assert any("skipped in the new one" in line for line in failures)


def test_render_table_lists_every_row():
    old = make_report([make_workload("gnp", {"naive": (1.0, True)})])
    new = make_report([make_workload("gnp", {"naive": (1.1, True)})])
    rows, _ = compare_reports(old, new)
    table = render_diff_table(rows)
    assert "gnp" in table and "naive" in table and "1.10x" in table


def test_main_exit_codes(tmp_path, capsys):
    old_path = tmp_path / "old.json"
    new_path = tmp_path / "new.json"
    old_path.write_text(json.dumps(
        make_report([make_workload("gnp", {"dynamic": (0.10, True)})])
    ))
    new_path.write_text(json.dumps(
        make_report([make_workload("gnp", {"dynamic": (0.11, True)})])
    ))
    assert main([str(old_path), str(new_path)]) == 0
    capsys.readouterr()

    new_path.write_text(json.dumps(
        make_report([make_workload("gnp", {"dynamic": (0.50, True)})])
    ))
    assert main([str(old_path), str(new_path)]) == 1
    captured = capsys.readouterr()
    assert "REGRESSIONS" in captured.err

    assert main([str(old_path), str(new_path), "--tolerance", "10"]) == 0
    capsys.readouterr()
    assert main([str(old_path), str(new_path), "--tolerance", "-1"]) == 2

    # The committed trajectory predates the single backend: it still
    # carries config.use_csr and backend_consistent, which fresh reports
    # lack.  CI's trajectory gate must pass on that old-vs-new pair.
    committed_path = Path(__file__).resolve().parent.parent / "BENCH_core.json"
    committed = json.loads(committed_path.read_text())
    assert committed["config"]["use_csr"] is True
    assert all(w["backend_consistent"] is True for w in committed["workloads"])
    fresh = json.loads(committed_path.read_text())
    del fresh["config"]["use_csr"]
    for workload in fresh["workloads"]:
        del workload["backend_consistent"]
    new_path.write_text(json.dumps(fresh))
    assert main([
        str(committed_path), str(new_path), "--metric", "speedup_vs_naive",
        "--tolerance", "1.0", "--min-speedup", "2",
    ]) == 0


def test_compare_fails_on_mutation_inconsistency():
    old = make_report([make_workload("gnp", {"dynamic": (0.1, True)})])
    bad = make_workload("gnp", {"dynamic": (0.1, True)})
    bad["mutation_consistent"] = False
    _, failures = compare_reports(old, make_report([bad]))
    assert any("mutation_consistent is false" in line for line in failures)

    # Absent (no mutation pass) or true never trips the gate.
    ok = make_workload("gnp", {"dynamic": (0.1, True)})
    ok["mutation_consistent"] = True
    _, failures = compare_reports(old, make_report([ok]))
    assert failures == []


def test_summarize_membership_reports_explicit_changes():
    old = make_report([
        make_workload("gone", {"naive": (1.0, True)}),
        make_workload("gnp", {"naive": (1.0, True), "dynamic": (0.4, True)}),
    ])
    new = make_report([
        make_workload("gnp", {"naive": (1.0, True), "dynamic": (0.1, True),
                              "dynamic@mut": (0.2, True)}),
        make_workload("fresh", {"naive": (2.0, True)}),
    ])
    membership = summarize_membership(old, new)
    assert membership["added_workloads"] == ["fresh"]
    assert membership["removed_workloads"] == ["gone"]
    # Row-level changes are tracked for shared workloads only (removed
    # workloads already cover their rows).
    assert membership["added_rows"] == ["gnp/dynamic@mut"]
    assert membership["removed_rows"] == []


def test_one_sided_mutation_rows_are_additions_not_regressions(tmp_path, capsys):
    # A --mutation-rate run diffed against a plain baseline: every @mut
    # row is one-sided.  The diff must report them as explicit additions
    # under "suite changes" and exit 0.
    old_path = tmp_path / "old.json"
    new_path = tmp_path / "new.json"
    old_path.write_text(json.dumps(
        make_report([make_workload("gnp", {"dynamic": (0.10, True)})])
    ))
    new_path.write_text(json.dumps(
        make_report([make_workload("gnp", {"dynamic": (0.10, True),
                                           "dynamic@mut": (0.15, True)})])
    ))
    assert main([str(old_path), str(new_path)]) == 0
    captured = capsys.readouterr()
    assert "suite changes" in captured.out
    assert "gnp/dynamic@mut" in captured.out

    # Reversed direction: the @mut rows disappear — still not a failure,
    # but reported as removals.
    assert main([str(new_path), str(old_path)]) == 0
    captured = capsys.readouterr()
    assert "gnp/dynamic@mut" in captured.out
