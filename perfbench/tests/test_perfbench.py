"""The benchmark's own tests: deterministic metrics repeat for one seed,
traces change with the seed, the gate holds, and a tree without the
sources makes ``run.py`` fail without printing a result.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

MODULES = run.load_modules()
_, tracing, workloads = MODULES


def deterministic_metrics(workload, seed, scratch):
    """One traced run with no measured window: two operations (one
    traced) plus deployment.  Returns the metrics that must repeat."""
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", "1"])
    runner = run.Runner(args, MODULES, scratch)
    setups, times, traced, outcomes, deploy = runner.run()
    assert runner.failed == 0, runner.failures
    e2e, _, _, _ = run.end_to_end(1.0, times, outcomes, deploy,
                            runner.workload.serves_in_ops)
    layers, _, _, stops = run.per_layer(
        tracing, runner.recorder.spans, len(setups), len(traced), times,
        traced, outcomes, deploy, runner.workload.serves_in_ops)
    picked = {name: e2e[name][0] for name in (
        "design_latency_cycles", "served_p99_cycles", "slo_attainment")}
    picked.update({name: layers[name][0] for name in (
        "optimizer.bnb_nodes_visited", "optimizer.bnb_budget_stops")})
    picked["stops"] = stops
    return picked


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (2.8, 90.0, 3)


def test_fig5_deterministic_metrics_repeat_and_traces_follow_seed(tmp_path):
    first = deterministic_metrics("fig5-sweep", 1, tmp_path)
    again = deterministic_metrics("fig5-sweep", 1, tmp_path)
    other = deterministic_metrics("fig5-sweep", 2, tmp_path)
    assert first == again
    assert first["optimizer.bnb_nodes_visited"] == 21198
    assert first["optimizer.bnb_budget_stops"] == 0
    # The compile input is the paper's fixed case study; the seed moves
    # only the serving traces (and simulation data).
    assert other["design_latency_cycles"] == first["design_latency_cycles"]
    assert other["served_p99_cycles"] != first["served_p99_cycles"]


def test_sim_serve_bundle_repeats_for_a_seed(tmp_path):
    sim = workloads.SimServe(3, tmp_path)
    state = sim.setup()
    outcomes = [sim.op(state) for _ in range(2)]
    for outcome in outcomes:
        assert sim.check(state, outcome) == []
    assert outcomes[0].bundle.digest == outcomes[1].bundle.digest
    other = workloads.SimServe(4, tmp_path)
    assert other.op(other.setup()).bundle.digest != outcomes[0].bundle.digest


def test_grid_records_digest_repeats_and_passes_gate(tmp_path):
    digests = []
    for attempt in range(2):
        grid = workloads.GridWarm(1, tmp_path / str(attempt),
                                  workers=run.sweep_workers())
        state = grid.setup()
        outcome = grid.op(state)
        assert grid.check(state, outcome) == []
        digests.append(outcome.payload.records_digest())
    assert digests[0] == digests[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

