"""Derandomized property tests for tomography, sampling, simulation and synthesis.

Hypothesis runs a fixed example sequence (derandomize=True, no example
database), so a failure reproduces on every run.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qlinsys import sim, synth, tomo

from oracles import run_by_index

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def mixed_states(draw):
    """rho = A A^dagger / trace for a random complex 4x4 A."""
    parts = draw(hnp.arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)))
    a = parts[0] + 1j * parts[1]
    rho = a @ a.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-6)
    return rho / trace


@st.composite
def probability_blocks(draw):
    """A (k, d) block of probability rows, some entries exactly zero."""
    k = draw(st.integers(1, 9))
    d = draw(st.integers(1, 8))
    raw = draw(hnp.arrays(float, (k, d), elements=st.floats(0.0, 1.0)))
    totals = raw.sum(axis=1, keepdims=True)
    assume(np.all(totals > 1e-3))
    return raw / totals


@st.composite
def circuits_with_blocks(draw):
    """A circuit of up to 12 gates of every kind on 1-6 qubits, and a (2**n, k) block of unit columns."""
    n = draw(st.integers(1, 6))
    qubits = st.integers(0, n - 1)
    one_qubit = sorted(sim.GATE_KINDS - {"cx", "cz", "phaseflip"})
    gates = [
        st.builds(lambda kind, q: sim.Gate(kind, (q,)), st.sampled_from(one_qubit), qubits),
        st.builds(sim.phase_flip, st.sets(st.integers(0, 2**n - 1))),
    ]
    if n >= 2:
        pairs = st.lists(qubits, min_size=2, max_size=2, unique=True)
        gates.append(st.builds(lambda kind, p: sim.Gate(kind, tuple(p)), st.sampled_from(["cx", "cz"]), pairs))
    ops = draw(st.lists(st.one_of(gates), max_size=12))
    k = draw(st.integers(1, 4))
    parts = draw(hnp.arrays(float, (2, 2**n, k), elements=st.floats(-1.0, 1.0)))
    block = parts[0] + 1j * parts[1]
    norms = np.linalg.norm(block, axis=0)
    assume(np.all(norms > 1e-3))
    return sim.Circuit(n, ops), block / norms


@FIXED
@given(mixed_states())
def test_analytic_round_trip_recovers_the_state(rho):
    rebuilt = tomo.reconstruct(tomo.pauli_expectations(rho))
    assert np.max(np.abs(rebuilt - rho)) <= 1e-12


@FIXED
@given(probability_blocks(), st.integers(1, 5000), st.integers(0, 2**32))
def test_block_rows_sum_to_shots_and_match_single_rows(block, shots, seed):
    counts = sim.sample_counts(block, shots, seed)
    assert counts.shape == block.shape
    assert np.all(counts.sum(axis=1) == shots)
    assert np.all(counts[block == 0.0] == 0)
    last = len(block) - 1
    assert np.array_equal(counts[last], sim.sample_counts(block[last], shots, seed + last))


@FIXED
@given(circuits_with_blocks())
def test_block_runs_keep_unit_norms_and_equal_column_runs(case):
    circuit, block = case
    out, columns = block, list(block.T)
    for gate in circuit.ops:
        out = sim.apply_gate(out, gate)
        columns = [sim.apply_gate(column, gate) for column in columns]
    assert out.tobytes() == np.column_stack(columns).tobytes()
    assert np.max(np.abs(np.linalg.norm(out, axis=0) - 1.0)) <= 1e-12


@FIXED
@given(circuits_with_blocks())
def test_circuit_runs_equal_the_index_oracle(case):
    circuit, block = case
    before = block.tobytes()
    assert sim._apply_circuit(circuit, block).tobytes() == run_by_index(block, circuit.ops).tobytes()
    assert block.tobytes() == before


@FIXED
@given(st.lists(st.sampled_from(synth.VOCABULARY), max_size=10))
def test_synthesis_of_a_vocabulary_circuit_is_no_longer(ops):
    unitary = np.real(sim.unitary_of(sim.Circuit(2, ops)))
    result = synth.synthesize(unitary)
    assert result.gate_count <= len(ops)
    realized = np.real(sim.unitary_of(result.circuit))
    assert np.max(np.abs(realized - result.matched_sign * unitary)) <= 1e-12


PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_plain():
    pass
"""


def test_a_failing_property_test_leaves_the_rest_of_the_session_running(tmp_path):
    # Under this repository's warning filters; the probe's failure report must not end the run.
    (tmp_path / "test_probe.py").write_text(PROBE)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "--rootdir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, *argv, "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-3000:]
