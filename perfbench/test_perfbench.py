"""Tests of the benchmark itself: smoke runs, the metric schema, and its checks.

Run from the repository root with `PYTHONPATH=src python3 -m pytest -q perfbench`.
"""

import ast
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tracer
import worker
from workloads import CLI_COMMANDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench(tmp_cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_follows_its_format():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(w["name"] for w in DECLARED["workloads"]) == set(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in DECLARED[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in DECLARED["per_layer"])


def test_cli_commands_cover_the_golden_commands():
    source = (ROOT / "tests" / "make_golden.py").read_text()
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS"
    )
    ours = {golden: argv for argv, golden in CLI_COMMANDS.values() if golden}
    assert ours == targets


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_of_each_workload_passes_its_checks(workload, capsys):
    trace = "0" if workload == "cli_cold" else "1"
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", trace]
    assert worker.main(argv) == 0
    ready, result = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert result["failed"] == 0 and result["attempted"] >= 2 and result["samples"] >= 1
    assert ready["ready"] > 0 and result["p50_ms"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_reported_with_its_unit(trace):
    proc = _bench(ROOT, "--workload", "grover_wide", "--seed", "5", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert "failed_ratio = 0 " in proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared
    }
    if trace == "1":
        assert result["metrics"]["sim.gates_applied"]["value"] == 560
        assert result["metrics"]["bench.unattributed_pct"]["value"] < 50
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_best_of_run_figures_take_the_fastest_op_of_each_input():
    samples, keys = [3_000, 1_000, 5_000, 2_000], ["a", "a", "b", "b"]
    result = worker._latency(samples, keys, best_of_run=True)
    assert result["inputs"] == 2 and result["samples"] == 4
    assert result["ops_per_s"] == pytest.approx(2 / 3e-6) and result["p90_ms"] == 2e-3
    assert result["wall_ops_per_s"] == pytest.approx(4 / 11e-6) and result["op_p90_ms"] == 5e-3
    plain = worker._latency(samples, keys, best_of_run=False)
    assert plain["ops_per_s"] == result["wall_ops_per_s"] and plain["p90_ms"] == 5e-3


def test_traced_cli_profile_reports_every_command():
    workload = WORKLOADS["cli_cold"](4, ROOT)
    run_tracer = tracer.Tracer()
    assert workload.profile(run_tracer, repeats=1) == []
    metrics = worker.layer_metrics(run_tracer, tracer.Tracer(), [], [])
    assert all(metrics[f"cli.main.{name}.p50_ms"] > 0 for name in CLI_COMMANDS)
    assert 0 < metrics["cli.startup.python_ms"] < metrics["cli.startup.qlinsys_ms"]


def _failures(workload, layers) -> tuple[int, int]:
    outcome = worker.Outcome()
    worker.timed_phase(workload, layers, None, 0.05, outcome)
    return outcome.failed, outcome.attempted


def test_sign_flipped_state_is_counted_as_failed():
    workload = WORKLOADS["solve_sample"](6, ROOT)
    layers = workload.layers()
    run_circuit = layers.run

    def flipped(circuit, basis):
        state = run_circuit(circuit, basis).copy()
        state[0] = -state[0]
        return state

    layers.run = flipped
    failed, attempted = _failures(workload, layers)
    assert failed == attempted > 0


def test_corrupted_counts_are_counted_as_failed():
    workload = WORKLOADS["solve_sample"](7, ROOT)
    layers = workload.layers()
    sample = layers.sample_distribution

    def corrupted(probs, shots, seed):
        table = sample(probs, shots, seed)
        counts = dict(table.counts, **{"00": table.counts["00"] + 1, "11": table.counts["11"] - 1})
        return replace(table, counts=counts)

    layers.sample_distribution = corrupted
    failed, attempted = _failures(workload, layers)
    assert failed == attempted > 0


def test_wrong_tomography_signs_are_counted_as_failed():
    workload = WORKLOADS["tomography"](8, ROOT)
    layers = workload.layers()
    reconstruct = layers.reconstruct

    def sign_flipped(table):
        rho = reconstruct(table)
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        return flip @ rho @ flip

    layers.reconstruct = sign_flipped
    failed, attempted = _failures(workload, layers)
    assert failed == attempted > 0


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "solve_sample", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

