"""Tests of the benchmark itself: tracer ledger, output checks, seeds.

Run from the repository root::

    python -m pytest perfbench/tests -q

Serving workloads run here at reduced request counts so the suite stays
fast; the workload definitions, checks and tracer are the benchmark's own.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks
from perfbench.worker import run_traced
from perfbench.workloads import FleetFolded, FleetJSQ, NodeTiered, PaperFigures
from repro.experiments import fig14_output_length

ROOT = Path(__file__).resolve().parents[2]

#: Small instances of every workload: (class, constructor overrides).
SMALL = {
    "paper-figures": (PaperFigures, {}),
    "fleet-jsq": (FleetJSQ, {"n_requests": 160}),
    "node-tiered": (NodeTiered, {"n_requests": 96}),
    "fleet-folded": (FleetFolded, {"n_requests": 64 * 32}),
}

#: Work counters that must repeat exactly between two traced runs.
DETERMINISTIC = (
    "sim.events",
    "sim.measure_calls",
    "calibration.cells_measured",
    "serving.events",
    "serving.iterations",
    "fleet.outcomes_copied",
    "fleet.requests_materialised",
)


def small(name: str, seed: int, store_dir: Path):
    cls, overrides = SMALL[name]
    workload = cls(seed, store_dir, **overrides)
    if name == "paper-figures":
        # One cheap figure exercises the same experiments -> sim path.
        workload.figure_modules = (fig14_output_length,)
    return workload


def traced(name: str, tmp_path: Path, tag: str, seed: int = 7):
    out = tmp_path / f"trace-{tag}"
    result = run_traced(small(name, seed, tmp_path / f"store-{tag}"), out, None)
    trace = json.loads((out / "trace.json").read_text())["traceEvents"]
    ledger = json.loads((out / "ledger.json").read_text())
    return result, trace, ledger


@pytest.fixture(scope="module", params=sorted(SMALL))
def two_traced_runs(request, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp(request.param)
    return request.param, traced(request.param, tmp_path, "a"), traced(
        request.param, tmp_path, "b"
    )


def test_counters_repeat_exactly(two_traced_runs):
    name, (first, _, _), (second, _, _) = two_traced_runs
    for counter in DETERMINISTIC:
        assert first["metrics"][counter] == second["metrics"][counter], counter
    assert first["outputs"][0]["digest"] == second["outputs"][0]["digest"]
    assert not first["outputs"][0]["failures"]


def test_layers_are_loaded_where_expected(two_traced_runs):
    name, (result, _, ledger), _ = two_traced_runs
    metrics = result["metrics"]
    body = ledger["phases"]["bench.body"]
    if name == "paper-figures":
        assert metrics["sim.measure_calls"] > 0
        assert metrics["experiments.run_s"] > metrics["experiments.self_s"] > 0
        assert metrics["serving.events"] == 0
    else:
        # Cold calibration is set-up; the timed drain measures nothing.
        assert metrics["calibration.cells_measured"] > 0
        assert "sim.measure" not in body
        assert metrics["serving.events"] > 0
        assert metrics["serving.iterations"] > 0
    if name == "fleet-jsq":
        assert metrics["serving.route_calls"] == SMALL[name][1]["n_requests"]
    if name == "node-tiered":
        assert metrics["kvtiers.spill_queries"] > 0
        assert metrics["kvtiers.demoted_bytes"] > 0
    if name == "fleet-folded":
        assert metrics["fleet.fold_ratio"] > 1
        assert metrics["fleet.outcomes_copied"] > 0


def test_spans_nest(two_traced_runs):
    _, (_, trace, _), _ = two_traced_runs
    by_id = {event["args"]["id"]: event for event in trace}
    assert by_id
    for event in trace:
        parent = event["args"]["parent"]
        if parent is None:
            assert event["name"] in ("bench.setup", "bench.body")
            continue
        outer = by_id[parent]
        assert outer["ts"] <= event["ts"]
        assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3
        if "drain" in outer["args"]:
            assert event["args"].get("drain") == outer["args"]["drain"]
    for drain in (e for e in trace if e["name"] == "serving.drain"):
        assert drain["args"]["drain"] == drain["args"]["id"]


def test_self_times_sum_to_traced_wall(two_traced_runs):
    _, (result, _, ledger), _ = two_traced_runs
    body = ledger["phases"]["bench.body"]
    total_self = sum(row["self_s"] for row in body.values())
    wall = result["metrics"]["trace.wall_s"]
    assert math.isclose(total_self, wall, rel_tol=1e-9)
    assert body["bench.body"]["busy_s"] == wall


# --- output checks reject corrupted results ------------------------------------


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One real report per serving workload (small instances)."""
    tmp_path = tmp_path_factory.mktemp("reports")
    out = {}
    for name in ("fleet-jsq", "node-tiered", "fleet-folded"):
        workload = small(name, 7, tmp_path / name)
        workload.setup()
        out[name] = (workload, workload.body())
    return out


def test_checks_pass_on_real_results(reports):
    for workload, report in reports.values():
        assert [reason for _, reason in workload.checks(report, 2.0) if reason] == []


def test_figure_check_rejects_corruption():
    reference = checks.load_reference()
    tables = reference["fig10_throughput"]
    assert checks.check_figure("fig10", tables, tables) is None
    moved = json.loads(json.dumps(tables))
    moved[0]["rows"][3][4] *= 1 + 1e-6
    assert "tokens_per_s" in checks.check_figure("fig10", moved, tables)
    renamed = json.loads(json.dumps(tables))
    renamed[0]["rows"][0][2] = "FLEX(DRAM)"
    assert checks.check_figure("fig10", renamed, tables)
    short = json.loads(json.dumps(tables))
    short[0]["rows"].pop()
    assert checks.check_figure("fig10", short, tables)
    assert checks.check_figure("fig10", [], tables)


def test_serving_checks_reject_corruption(reports):
    workload, report = reports["fleet-jsq"]
    n = len(workload.requests)
    replace = dataclasses.replace
    assert checks.check_accounted(replace(report, completed=report.completed - 1), n)
    assert checks.check_accounted(report, n + 1)
    assert checks.check_node_sums(replace(report, generated_tokens=report.generated_tokens + 1))
    over = replace(report, peak_kv_reserved_bytes=report.kv_capacity_bytes * 1.01)
    assert checks.check_kv_capacity(over)
    node = report.node_reports[0]
    bad_node = replace(node, peak_kv_reserved_bytes=node.kv_capacity_bytes * 1.01)
    assert checks.check_kv_capacity(
        replace(report, node_reports=(bad_node,) + report.node_reports[1:])
    )
    assert checks.guard_preemptions(replace(report, preemptions=0))


def test_scenario_guards_reject_corruption(reports):
    replace = dataclasses.replace
    _, tiered = reports["node-tiered"]
    top, lower = tiered.kv_tiers
    assert checks.guard_tiering(replace(tiered, kv_tiers=(top, replace(lower, demoted_bytes=0.0))))
    assert checks.guard_tiering(replace(tiered, kv_tiers=(replace(top, hit_rate=1.0), lower)))
    assert checks.guard_tiering(replace(tiered, kv_tiers=()))
    _, folded = reports["fleet-folded"]
    assert checks.guard_fleet_folded(replace(folded, fleet_symmetry="full"))
    assert checks.guard_fold_ratio(1.0)


# --- seeds and the command line ------------------------------------------------


@pytest.mark.parametrize("name", ["fleet-jsq", "node-tiered", "fleet-folded"])
def test_second_seed_changes_inputs_and_passes_checks(name, tmp_path):
    """The full-size workload on a held-out seed: new inputs, every check passes."""
    cls = SMALL[name][0]
    base, held_out = cls(7, tmp_path / "a"), cls(8, tmp_path / "b")
    requests_a, arrivals_a = base.inputs()
    requests_b, arrivals_b = held_out.inputs()
    times_a = arrivals_a.arrival_times(len(requests_a))
    times_b = arrivals_b.arrival_times(len(requests_b))
    assert (requests_a, times_a) != (requests_b, times_b)
    held_out.setup()
    report = held_out.body()
    assert [reason for _, reason in held_out.checks(report) if reason] == []


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-jsq", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_of_its_mode(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "node-tiered",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted
    }
