"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single [PASS]/[FAIL] line; run with `pytest -s` to see
them.  Tolerances are part of the contract and are asserted literally.
"""

import functools
import itertools
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from qlinsys import cli, family, grover, linsys, qasm, sim, synth, tomo

from oracles import gauss_solve, mat_mul, mat_vec, max_abs_diff

GOLDEN = Path(__file__).parent / "golden"

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number:2d}: {title}")
                raise
            print(f"[PASS] criterion {number:2d}: {title}")

        return wrapper

    return decorate


@criterion(1, "family completeness: 48 distinct orthonormal matrices in 8 subsets")
def test_family_completeness():
    start = time.perf_counter()
    specs = family.enumerate_family()
    assert len(specs) == 48
    assert len({spec.matrix.tobytes() for spec in specs}) == 48
    subsets = Counter(spec.label.subset for spec in specs)
    assert subsets == Counter(
        {name: 6 for name in ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4")}
    )
    for spec in specs:
        gram_dev = np.max(np.abs(spec.matrix.T @ spec.matrix - np.eye(4)))
        assert gram_dev <= 1e-12
    assert time.perf_counter() - start < 1.0


@criterion(2, "worked example: solve(A_1234, e1) with oracle cross-check")
def test_worked_example():
    matrix = family.matrix_for(family.FamilyLabel.parse("A_1234"))
    x = linsys.solve(matrix, E1)
    assert np.max(np.abs(x - 0.5)) <= 1e-15
    assert max_abs_diff(mat_vec(matrix, x), E1) == 0.0
    probs = sim.probabilities(x.astype(complex))
    assert np.max(np.abs(probs - 0.25)) <= 1e-15
    reference = gauss_solve(matrix.tolist(), E1.tolist())
    assert max(abs(a - b) for a, b in zip(x, reference)) <= 1e-10


@criterion(3, "synthesis coverage: all 48 verified, A_1234 uses 2 H + 2 CNOT")
def test_synthesis_coverage():
    start = time.perf_counter()
    specs = family.enumerate_family()
    results = {spec.label: synth.synthesize(linsys.inverse_operator(spec.matrix)) for spec in specs}
    elapsed = time.perf_counter() - start
    assert len(results) == 48
    for label, result in results.items():
        matrix = family.matrix_for(label)
        realized = sim.unitary_of(result.circuit)
        product = mat_mul((result.matched_sign * realized).tolist(), matrix.tolist())
        assert max_abs_diff(product, np.eye(4).tolist()) <= 1e-10
    head = results[family.FamilyLabel.parse("A_1234")]
    assert Counter(g.kind for g in head.circuit.ops) == Counter({"h": 2, "cx": 2})
    assert elapsed < 60.0


@criterion(4, "table1 statistics: 3-sigma band at 1024 shots, tight band at 1e5")
def test_table1_statistics():
    start = time.perf_counter()
    rows = []
    for name in cli.REFERENCE_PERCENT:
        label = family.FamilyLabel.parse(name)
        result = synth.synthesize(linsys.inverse_operator(family.matrix_for(label)))
        rows.append(sim.probabilities(sim.run(result.circuit, 0)))
    # One block, one generator, as `table1` draws its eight rows.
    for shots, band in ((1024, 0.0406), (100_000, 0.012)):
        freqs = sim.sample_counts(np.stack(rows), shots, 0) / shots
        assert np.max(np.abs(freqs - 0.25)) <= band
    assert time.perf_counter() - start < 5.0


@criterion(5, "tomography round trip across all 48 solution states")
def test_tomography_round_trip():
    for spec in family.enumerate_family():
        x = linsys.solve(spec.matrix, spec.y)
        rho = tomo.density_from_state(x)
        rebuilt = tomo.reconstruct(tomo.pauli_expectations(rho))
        assert np.max(np.abs(rebuilt - rho)) <= 1e-10
        assert abs(tomo.fidelity(rho, x) - 1.0) <= 1e-12


@criterion(6, "calibrated depolarizing noise reproduces fidelity 0.9878")
def test_calibrated_fidelity():
    matrix = family.matrix_for(family.FamilyLabel.parse("A_1234"))
    x = linsys.solve(matrix, E1)
    noisy = tomo.apply_depolarizing(tomo.density_from_state(x), 0.016267)
    assert abs(tomo.fidelity(noisy, x) - 0.9878) <= 0.0001


@criterion(7, "amplitude amplification matches the closed form")
def test_grover_exactness():
    start = time.perf_counter()
    assert abs(_marked_mass(2, {3}, 1) - 1.0) <= 1e-12
    predicted = math.sin(5 * grover.theta(8, 1)) ** 2
    assert abs(predicted - 0.9453) <= 5e-5
    assert abs(_marked_mass(3, {5}, 2) - predicted) <= 1e-10
    for n_qubits in (2, 3, 4):
        theta = grover.theta(2**n_qubits, 1)
        for mark in range(2**n_qubits):
            for k in range(5):
                closed = grover.success_probability(theta, k)
                assert abs(_marked_mass(n_qubits, {mark}, k) - closed) <= 1e-10
    assert time.perf_counter() - start < 2.0


def _marked_mass(n_qubits, marked, iterations):
    circuit = grover.build_grover_circuit(n_qubits, marked, iterations)
    probs = sim.probabilities(sim.run(circuit, 0))
    return float(sum(probs[m] for m in marked))


@criterion(8, "permutation covariance across both column classes")
def test_permutation_covariance():
    for kind in ("A", "B"):
        base = linsys.solve(family.matrix_for(family.FamilyLabel(kind, (1, 2, 3, 4))), E1)
        for perm in itertools.permutations((1, 2, 3, 4)):
            label = family.FamilyLabel(kind, perm)
            x = linsys.solve(family.matrix_for(label), E1)
            expected = [base[p - 1] for p in perm]
            assert np.max(np.abs(x - np.array(expected))) <= 1e-15


@criterion(9, "sign loss in readout, sign recovery by tomography")
def test_sign_loss_and_recovery():
    matrix = family.matrix_for(family.FamilyLabel.parse("A_1234"))
    x = linsys.solve(matrix, E2)
    assert np.min(x) < 0
    readout = np.sqrt(np.abs(x) ** 2)
    assert np.all(readout > 0)
    assert np.max(np.abs(readout - x)) > 0.5
    rho = tomo.reconstruct(tomo.pauli_expectations(tomo.density_from_state(x)))
    assert np.max(np.abs(rho - np.outer(x, x))) <= 1e-10


@criterion(10, "OpenQASM exports match committed golden files byte-for-byte")
def test_qasm_golden_files():
    for name, golden in (("A_1234", "a_1234.qasm"), ("A_1342", "a_1342.qasm")):
        label = family.FamilyLabel.parse(name)
        result = synth.synthesize(linsys.inverse_operator(family.matrix_for(label)))
        text = qasm.circuit_to_qasm(result.circuit)
        assert text.encode() == (GOLDEN / golden).read_bytes()
