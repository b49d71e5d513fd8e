"""The per-call timing script keeps running: it exits 0 and prints the `per_call_us` shape for both trees."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("per_call.py")
CALLS = {
    "inverse_operator",
    "synthesize",
    "run",
    "probabilities",
    "sample_distribution",
    "circuit_to_qasm",
    "solve_sample_chain",
    "solve_sample_catalog",
    "circuit_to_qasm_catalog",
    "solve",
    "density_from_state",
    "apply_depolarizing",
    "pauli_expectations",
    "reconstruct",
    "fidelity",
    "tomography_catalog",
}


def test_the_per_call_script_times_every_call_in_both_trees():
    # This tree stands in for the other one; three loops of one repeat keep the two processes short.
    command = [sys.executable, "-W", "error", str(SCRIPT), "--other", str(SCRIPT.parents[1])]
    done = subprocess.run(
        command + ["--processes", "1", "--repeat", "1", "--loops", "3"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-3000:]
    out = json.loads(done.stdout)
    assert set(out) == {"method", "parent_best_us", "parent_us", "change_best_us", "change_us", "change_pct_of_best"}
    for side in ("parent", "change"):
        assert set(out[f"{side}_best_us"]) == CALLS
        assert all(len(times) == 1 and times[0] > 0 for times in out[f"{side}_us"].values())
    assert set(out["change_pct_of_best"]) == CALLS
