import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from qlinsys import family, grover, linsys, qasm, sim, synth
from qlinsys.errors import (
    InvalidCountsError,
    InvalidProbabilityError,
    InvalidTargetError,
    NotNormalizedError,
    ValidationError,
)

from oracles import cx_by_index, cz_by_index, h_by_einsum, run_by_index, x_by_index, z_by_index

INV_SQRT2 = 1.0 / math.sqrt(2.0)

H_MAT = np.array([[1.0, 1.0], [1.0, -1.0]]) * INV_SQRT2
X_MAT = np.array([[0.0, 1.0], [1.0, 0.0]])
Z_MAT = np.array([[1.0, 0.0], [0.0, -1.0]])
I2 = np.eye(2)

ONE_QUBIT_MAKERS = (sim.h, sim.x, sim.z)


def every_gate(n, rng):
    """Each single-qubit kind on each qubit, cx and cz on each ordered pair, one phaseflip."""
    gates = [maker(q) for maker in ONE_QUBIT_MAKERS for q in range(n)]
    for a in range(n):
        for b in range(n):
            if a != b:
                gates += [sim.cx(a, b), sim.cz(a, b)]
    flips = rng.choice(2**n, size=max(1, 2**n // 3), replace=False)
    gates.append(sim.phase_flip(int(i) for i in flips))
    return gates


class TestGateConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidTargetError):
            sim.Gate("rx", (0,))

    def test_helpers_build_expected_gates(self):
        gate = sim.cx(1, 0)
        assert gate.kind == "cx"
        assert gate.targets == (1, 0)
        flip = sim.phase_flip([3, 1])
        assert flip.flips == frozenset({1, 3})
        assert flip.targets == ()

    def test_numpy_integer_targets_become_python_ints(self):
        # The CLI dumps targets to JSON, which takes Python ints only.
        gate = sim.cx(np.int64(1), np.int8(0))
        assert gate.targets == (1, 0)
        assert [type(q) for q in gate.targets] == [int, int]
        assert [type(i) for i in sim.phase_flip([np.int64(3)]).flips] == [int]


class TestSingleQubitGates:
    @pytest.mark.parametrize(
        "gate, matrix",
        [
            (sim.h(0), H_MAT),
            (sim.x(0), X_MAT),
            (sim.z(0), Z_MAT),
        ],
    )
    def test_matrix_on_low_qubit(self, gate, matrix):
        # Qubit 0 is the least significant bit, so its gate is kron(I, G).
        realized = sim.unitary_of(sim.Circuit(2, (gate,)))
        np.testing.assert_allclose(realized, np.kron(I2, matrix), atol=1e-12)

    @pytest.mark.parametrize(
        "gate, matrix",
        [(sim.h(1), H_MAT), (sim.x(1), X_MAT)],
    )
    def test_matrix_on_high_qubit(self, gate, matrix):
        realized = sim.unitary_of(sim.Circuit(2, (gate,)))
        np.testing.assert_allclose(realized, np.kron(matrix, I2), atol=1e-12)

    def test_x_flips_the_right_bit(self):
        state = sim.apply_gate(sim.basis_state(2, 0), sim.x(0))
        np.testing.assert_array_equal(state, sim.basis_state(2, 1))
        state = sim.apply_gate(sim.basis_state(2, 0), sim.x(1))
        np.testing.assert_array_equal(state, sim.basis_state(2, 2))

    def test_hadamard_is_self_inverse(self):
        state = sim.basis_state(2, 2)
        twice = sim.apply_gate(sim.apply_gate(state, sim.h(1)), sim.h(1))
        np.testing.assert_allclose(twice, state, atol=1e-12)

    def test_three_qubit_middle_target(self):
        realized = sim.unitary_of(sim.Circuit(3, (sim.h(1),)))
        expected = np.kron(np.kron(I2, H_MAT), I2)
        np.testing.assert_allclose(realized, expected, atol=1e-12)


class TestTwoQubitGates:
    def test_cx_control0_matrix(self):
        realized = sim.unitary_of(sim.Circuit(2, (sim.cx(0, 1),)))
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float
        )
        np.testing.assert_allclose(realized, expected, atol=1e-12)

    def test_cx_control1_matrix(self):
        realized = sim.unitary_of(sim.Circuit(2, (sim.cx(1, 0),)))
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
        )
        np.testing.assert_allclose(realized, expected, atol=1e-12)

    def test_bell_state(self):
        circuit = sim.Circuit(2, (sim.h(0), sim.cx(0, 1)))
        state = sim.run(circuit)
        np.testing.assert_allclose(
            state, [INV_SQRT2, 0.0, 0.0, INV_SQRT2], atol=1e-12
        )

    def test_cz_is_symmetric_and_diagonal(self):
        a = sim.unitary_of(sim.Circuit(2, (sim.cz(0, 1),)))
        b = sim.unitary_of(sim.Circuit(2, (sim.cz(1, 0),)))
        np.testing.assert_allclose(a, np.diag([1, 1, 1, -1]), atol=1e-12)
        np.testing.assert_array_equal(a, b)

    def test_phase_flip_negates_listed_indices(self):
        state = np.full(4, 0.5)
        flipped = sim.apply_gate(state, sim.phase_flip({1, 2}))
        np.testing.assert_allclose(flipped, [0.5, -0.5, -0.5, 0.5], atol=1e-15)


class TestGateValidation:
    @pytest.mark.parametrize(
        "gate",
        [
            # (factory, message): a shape rule raises when the gate is built, a
            # width rule when a 2-qubit circuit or apply_gate meets the gate.
            (lambda: sim.h(2), r"^target \(2,\) out of range for 2 qubits$"),
            (lambda: sim.cx(0, 2), r"^target \(0, 2\) out of range for 2 qubits$"),
            (lambda: sim.cx(1, 1), r"^cx targets must be distinct, got \(1, 1\)$"),
            (lambda: sim.Gate("h", (0, 1)), r"^h takes 1 target\(s\), got 2$"),
            (lambda: sim.Gate("cx", (0,)), r"^cx takes 2 target\(s\), got 1$"),
            (lambda: sim.Gate("phaseflip", (0,), frozenset({0})), "^phaseflip addresses basis indices, not qubits$"),
            (lambda: sim.phase_flip({4}), "^phaseflip index out of range for 2 qubits$"),
        ],
    )
    def test_rejected_on_two_qubits(self, gate):
        make, message = gate
        if "out of range" not in message:
            with pytest.raises(InvalidTargetError, match=message):
                make()
            return
        built = make()
        with pytest.raises(InvalidTargetError, match=message):
            sim.Circuit(2, (built,))
        with pytest.raises(InvalidTargetError, match=message):
            sim.apply_gate(np.full(4, 0.5), built)

    def test_bad_initial_index(self):
        with pytest.raises(ValueError):
            sim.run(sim.Circuit(2), 4)

    @pytest.mark.parametrize("index", [1.5, 2.0, True, "1", None])
    def test_non_integer_index_rejected(self, index):
        with pytest.raises(ValidationError, match="integer"):
            sim.basis_state(2, index)
        with pytest.raises(ValidationError, match="integer"):
            sim.run(sim.Circuit(2), index)

    def test_numpy_integer_index_accepted(self):
        assert np.array_equal(sim.run(sim.Circuit(2), np.int64(2)), sim.basis_state(2, 2))

    def test_bad_state_length(self):
        with pytest.raises(ValueError):
            sim.apply_gate(np.ones(3), sim.h(0))


class TestRunAndUnitary:
    def test_empty_circuit_is_identity(self):
        np.testing.assert_array_equal(sim.unitary_of(sim.Circuit(2)), np.eye(4))

    def test_solution_circuit_state(self):
        # Two Hadamards and two CNOTs map |00> to the uniform real state.
        circuit = sim.Circuit(2, (sim.h(0), sim.h(1), sim.cx(0, 1), sim.cx(1, 0)))
        state = sim.run(circuit)
        np.testing.assert_allclose(state, [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_initial_basis_index(self):
        circuit = sim.Circuit(2, (sim.x(0),))
        np.testing.assert_array_equal(sim.run(circuit, 2), sim.basis_state(2, 3))

    def test_columns_equal_run_exactly(self):
        rng = np.random.default_rng(40)
        for n in range(1, 7):
            gates = every_gate(n, rng)
            circuit = sim.Circuit(n, tuple(gates[int(i)] for i in rng.permutation(len(gates))))
            u = sim.unitary_of(circuit)
            for j in range(2**n):
                assert u[:, j].tobytes() == sim.run(circuit, j).tobytes()

    def test_random_circuits_stay_unitary(self):
        rng = np.random.default_rng(23)
        makers = [sim.h, sim.x, sim.z]
        for _ in range(20):
            n = int(rng.integers(1, 4))
            ops = []
            for _ in range(15):
                if n >= 2 and rng.random() < 0.3:
                    pair = rng.choice(n, size=2, replace=False)
                    ops.append(sim.cx(int(pair[0]), int(pair[1])))
                elif rng.random() < 0.1:
                    ops.append(sim.phase_flip({int(rng.integers(0, 2**n))}))
                else:
                    maker = makers[int(rng.integers(0, len(makers)))]
                    ops.append(maker(int(rng.integers(0, n))))
            u = sim.unitary_of(sim.Circuit(n, tuple(ops)))
            np.testing.assert_allclose(u.T @ u, np.eye(2**n), atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        state = rng.normal(size=8)
        state /= np.linalg.norm(state)
        out = sim.apply_gate(state, sim.h(2))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        # Input untouched.
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


class TestBlockKernel:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", [1, 5])
    def test_block_equals_column_by_column(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        block = rng.normal(size=(2**n, k))
        before = block.copy()
        for gate in every_gate(n, rng):
            out = sim.apply_gate(block, gate)
            columns = np.column_stack([sim.apply_gate(block[:, j], gate) for j in range(k)])
            assert out.shape == block.shape
            assert out.tobytes() == columns.tobytes(), gate
        assert np.array_equal(block, before)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cx_and_cz_equal_the_index_array_reference(self, n):
        rng = np.random.default_rng(70 + n)
        state = rng.normal(size=2**n)
        block = rng.normal(size=(2**n, 5))
        # X and Z too.  +-0, units, denormals and 1/2 after gates that leave signed zeros: Z turns row 3's -0
        # into +0, and CZ negates that +0 to -0, as the real multiply by -1 of the reference does.
        seeded = seeded_block(n, rng)
        seeded[3] = -0.0
        layered = fold(seeded, sim.Circuit(n, (sim.z(0), sim.phase_flip(range(0, 2**n, 2)))))
        assert not np.signbit(layered[3]).any() and np.signbit(sim.apply_gate(layered, sim.cz(0, 1))[3]).all()
        for amps in (state, block, layered):
            before = amps.copy()
            for a in range(n):
                assert sim.apply_gate(amps, sim.x(a)).tobytes() == x_by_index(amps, a).tobytes()
                assert sim.apply_gate(amps, sim.z(a)).tobytes() == z_by_index(amps, a).tobytes()
                for b in range(n):
                    if a == b:
                        continue
                    assert sim.apply_gate(amps, sim.cx(a, b)).tobytes() == cx_by_index(amps, a, b).tobytes()
                    assert sim.apply_gate(amps, sim.cz(a, b)).tobytes() == cz_by_index(amps, a, b).tobytes()
            assert amps.tobytes() == before.tobytes()

    @pytest.mark.parametrize("gate", [sim.x(0), sim.z(1), sim.x(2), sim.z(0)])
    def test_x_and_z_twice_give_back_the_input_bytes(self, gate):
        # A move and an exact negation: -0 and denormals come back unchanged.
        amps = np.array([-0.0, 0.5, 0.0, -0.5, -0.0, -0.0, 0.25, 1e-310])
        once = sim.apply_gate(amps, gate)
        assert sim.apply_gate(once, gate).tobytes() == amps.tobytes()
        block = np.column_stack([amps, -amps])
        assert sim.apply_gate(sim.apply_gate(block, gate), gate).tobytes() == block.tobytes()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_h_equals_the_einsum_reference(self, n):
        # H is the butterfly (a + b, a - b) times sqrt(1/2): the index oracle's
        # bits, and the contraction with 1/sqrt(2) up to rounding.  Signed zeros,
        # units and denormals; then a generic state.
        rng = np.random.default_rng(90 + n)
        values = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, -2.5e-300, INV_SQRT2])
        for shape in [(2**n,), (2**n, 3)]:
            seeded = rng.choice(values, size=shape)
            seeded[0], seeded[-1] = -0.0, -0.0
            generic = rng.normal(size=shape)
            for amps in (seeded, generic):
                before = amps.tobytes()
                for q in range(n):
                    out = sim.apply_gate(amps, sim.h(q))
                    assert out.tobytes() == run_by_index(amps, [sim.h(q)]).tobytes(), (shape, q)
                    np.testing.assert_allclose(out, h_by_einsum(amps, q), rtol=0, atol=1e-15 * abs(amps).max())
                assert amps.tobytes() == before

    def test_h_keeps_the_oracle_zero_signs_after_a_phase_flip(self):
        # A phase flip of exact zeros leaves -0 in the state, and -0 + -0 stays -0.
        state = sim.run(sim.Circuit(8, (sim.phase_flip(range(256)),)))
        assert np.signbit(state[1:]).all()
        for q in range(8):
            out = sim.apply_gate(state, sim.h(q))
            assert out.tobytes() == run_by_index(state, [sim.h(q)]).tobytes()
            assert np.signbit(out[out == 0]).any()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_apply_gate_equals_the_one_gate_run(self, n):
        for gate in every_gate(n, np.random.default_rng(100 + n)):
            assert sim.unitary_of(sim.Circuit(n, (gate,))).dtype == np.float64
            for j in range(2**n):
                alone = sim.run(sim.Circuit(n, (gate,)), j)
                assert alone.dtype == np.float64
                assert sim.apply_gate(sim.basis_state(n, j), gate).tobytes() == alone.tobytes(), (gate, j)

    def test_h_takes_parts_up_to_half_the_largest_double_and_other_gates_any_finite_part(self):
        half = sys.float_info.max / 2
        out = sim.apply_gate([half, half], sim.h(0))
        assert out.tobytes() == np.array([sys.float_info.max * math.sqrt(0.5), 0]).tobytes()
        huge = np.array([1e308, -1e308])
        for gate in (sim.x(0), sim.z(0), sim.phase_flip({0})):
            assert np.isfinite(sim.apply_gate(huge, gate)).all()

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            sim.apply_gate(np.ones((4, 2, 2)), sim.h(0))

    def test_block_rows_must_be_a_power_of_two(self):
        with pytest.raises(ValueError):
            sim.apply_gate(np.ones((3, 2)), sim.h(0))


class TestCircuitCheckedOnce:
    def test_a_built_circuit_is_not_checked_again(self):
        circuit = sim.Circuit(2, (sim.h(0), sim.cx(0, 1), sim.cz(0, 1)))
        with mock.patch.object(sim, "_check_gate", side_effect=AssertionError("checked again")):
            first = sim.run(circuit)
            assert sim.run(circuit).tobytes() == first.tobytes()
            sim.unitary_of(circuit)
            qasm.circuit_to_qasm(circuit)
            # apply_gate keeps its own check.
            with pytest.raises(AssertionError, match="checked again"):
                sim.apply_gate(first, sim.h(0))

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("op", [1, "h", None])
    def test_an_op_that_is_not_a_gate_raises_on_every_run(self, n, op):
        # No circuit can hold it, so every run of one stops where the circuit is built.
        for _ in range(2):
            with pytest.raises(InvalidTargetError, match="expected a Gate"):
                sim.run(sim.Circuit(n, (sim.h(0), op)))
            with pytest.raises(InvalidTargetError, match="expected a Gate"):
                sim.unitary_of(sim.Circuit(n, (sim.h(0), op)))

    @pytest.mark.parametrize("n", [8, 10])
    @pytest.mark.parametrize("iterations", [1, 3, 25])
    def test_each_distinct_gate_object_is_checked_once(self, n, iterations):
        # n H gates, the oracle and the zero flip, however many times they repeat.
        with mock.patch.object(sim, "_check_gate", wraps=sim._check_gate) as check:
            circuit = grover.build_grover_circuit(n, {5, 200}, iterations)
            sim.run(circuit)
        assert check.call_count == n + 2

    @pytest.mark.parametrize("n", [2, 8])
    def test_a_repeated_invalid_gate_raises_on_every_run(self, n):
        # The circuit is checked as it is built, so every run of one stops there.
        for _ in range(2):
            with pytest.raises(InvalidTargetError) as raised:
                sim.run(sim.Circuit(n, (sim.h(0),) + (sim.h(n),) * 100))
            assert str(raised.value) == f"target ({n},) out of range for {n} qubits"

    def test_the_earlier_of_two_invalid_gates_raises(self):
        late, early = sim.cz(0, 4), sim.x(3)
        with pytest.raises(InvalidTargetError, match=r"^target \(3,\) out of range"):
            sim.Circuit(2, (sim.h(0), early, late, early, late))
        with pytest.raises(InvalidTargetError, match=r"^target \(0, 4\) out of range"):
            sim.Circuit(2, (late, early, late))

    def test_equality_and_hash_unchanged_by_a_run(self):
        ops = (sim.h(0), sim.cz(0, 1))
        ran, fresh = sim.Circuit(2, ops), sim.Circuit(2, ops)
        before = hash(ran)
        sim.run(ran)
        assert "_unitary" in ran.__dict__
        assert ran == fresh
        assert hash(ran) == hash(fresh) == before
        assert ran != sim.Circuit(2, ops[:1])


class TestSmallCircuitUnitary:
    """On 3 qubits or fewer, `run` and `unitary_of` copy a unitary kept on the circuit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_run_equals_the_gate_by_gate_loop(self, n):
        # The loop is the index oracle's fold, unscaled H then one scale.
        rng = np.random.default_rng(60 + n)
        gates = every_gate(n, rng)
        # Ending on CZ and a phase flip leaves -0 entries, which the copy must keep.  With an H on
        # every qubit a real circuit's states have no zeros, so those circuits leave out the top one.
        tail = [sim.cz(0, 1)] if n >= 2 else []
        tail.append(sim.phase_flip(range(2**n)))
        signed_zeros = 0
        for trial in range(4):
            ops = [gates[int(i)] for i in rng.permutation(len(gates))]
            if trial % 2:
                ops = [gate for gate in ops if gate != sim.h(n - 1)] + tail
            circuit = sim.Circuit(n, tuple(ops))
            for j in range(2**n):
                state = run_by_index(sim.basis_state(n, j), circuit.ops)
                for _ in range(2):
                    assert sim.run(circuit, j).tobytes() == state.tobytes(), (trial, j)
                signed_zeros += int(np.sum(np.signbit(state) & (state == 0)))
            assert "_unitary" in circuit.__dict__
        assert signed_zeros > 0

    def test_results_are_fresh_writable_arrays(self):
        circuit = sim.Circuit(2, (sim.h(0), sim.cx(0, 1)))
        first_state, first_unitary = sim.run(circuit, 1), sim.unitary_of(circuit)
        for result in (sim.run(circuit, 1), sim.unitary_of(circuit)):
            assert result.flags.writeable
            result[...] = 7.0
        assert sim.run(circuit, 1).tobytes() == first_state.tobytes()
        assert sim.unitary_of(circuit).tobytes() == first_unitary.tobytes()

    def test_kept_unitary_is_read_only(self):
        circuit = sim.Circuit(3, (sim.h(2), sim.cz(0, 2)))
        sim.run(circuit)
        kept = circuit.__dict__["_unitary"]
        assert not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 0.0

    @pytest.mark.parametrize("n", [4, 10])
    def test_wide_grover_circuits_keep_no_unitary(self, n):
        circuit = grover.build_grover_circuit(n, {3}, 2)
        sim.run(circuit)
        assert "_unitary" not in circuit.__dict__

    def test_bad_index_raises_as_basis_state_does(self):
        circuit = sim.Circuit(2, (sim.h(0),))
        sim.run(circuit)
        for index, message in [(4, "out of range"), (-1, "out of range"), (1.0, "integer"), (True, "integer")]:
            with pytest.raises(ValidationError, match=message) as from_run:
                sim.run(circuit, index)
            with pytest.raises(ValidationError) as from_basis:
                sim.basis_state(2, index)
            assert type(from_run.value) is type(from_basis.value)
            assert str(from_run.value) == str(from_basis.value)


def wide_circuit(n, rng):
    """Full, partial and descending H layers mixed with every other gate kind.

    A partial layer stops the rotating layout part way round, so the next gate
    or the end of the circuit finds the state rotated.
    """
    others = [gate for gate in every_gate(n, rng) if gate.kind != "h"]
    ops = []
    for _ in range(int(rng.integers(3, 9))):
        shape = int(rng.integers(5))
        if shape == 0:
            ops += [sim.h(q) for q in range(n)]
        elif shape == 1:
            ops += [sim.h(q) for q in range(int(rng.integers(1, n)))]
        elif shape == 2:
            ops += [sim.h(q) for q in reversed(range(n))]
        elif shape == 3:
            ops.append(sim.h(int(rng.integers(n))))
        else:
            ops += [others[int(i)] for i in rng.choice(len(others), size=2, replace=False)]
    if rng.random() < 0.5:
        ops += [sim.h(q) for q in range(int(rng.integers(1, n)))]
    return sim.Circuit(n, tuple(ops))


def seeded_block(n, rng):
    """A (2**n, 3) block of +-0, units and denormals, where two layouts could differ by a bit."""
    return rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.5]), size=(2**n, 3))


def fold(block, circuit):
    for gate in circuit.ops:
        block = sim.apply_gate(block, gate)
    return block


def oracle(block, circuit):
    return run_by_index(block, circuit.ops)


class TestRotatingLayout:
    """Every circuit runs on a bit-rotating layout, with the bits of the index oracle's fold.

    That fold runs H as the unscaled butterfly and scales once at the end, so
    it rounds at most once where an `apply_gate` fold rounds at every H.
    `wide_circuit` needs 2 qubits; `TestSmallCircuitUnitary` covers one.
    """

    @pytest.mark.parametrize("n", range(2, 11))
    def test_run_and_unitary_equal_the_apply_gate_fold(self, n):
        # Bit for bit the oracle's fold; within rounding the `apply_gate` fold.
        rng = np.random.default_rng(110 + n)
        for _ in range(6 if n <= 7 else 2):
            circuit = wide_circuit(n, rng)
            for j in rng.choice(2**n, size=min(2**n, 6), replace=False):
                j = int(j)
                state = sim.run(circuit, j)
                assert state.tobytes() == oracle(sim.basis_state(n, j), circuit).tobytes(), j
                np.testing.assert_allclose(state, fold(sim.basis_state(n, j), circuit), rtol=0, atol=1e-12)
            if n <= 8:
                eye = np.eye(2**n)
                assert sim.unitary_of(circuit).tobytes() == oracle(eye, circuit).tobytes()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_seeded_block_is_left_untouched(self, n):
        # +-0, units and denormals, where two layouts could differ by a bit.
        rng = np.random.default_rng(130 + n)
        block = seeded_block(n, rng)
        before = block.tobytes()
        for _ in range(3):
            circuit = wide_circuit(n, rng)
            assert sim._apply_circuit(circuit, block).tobytes() == oracle(block, circuit).tobytes()
            assert block.tobytes() == before

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 10])
    def test_gates_inside_an_h_layer_keep_the_fold_bits(self, n):
        # A non-H gate part way through a layer meets a rotated state, and the
        # rest of the layer first moves its next qubit to bit 0: CZ, Z, X and
        # flips also leave -0 for the butterfly to add.
        rng = np.random.default_rng(150 + n)
        block = seeded_block(n, rng)
        for kind in ("z", "cz", "x", "phaseflip"):
            ops = []
            for _ in range(3):
                cut = int(rng.integers(1, n))
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                inner = {
                    "z": sim.z(a),
                    "cz": sim.cz(a, b),
                    "x": sim.x(a),
                    "phaseflip": sim.phase_flip(int(i) for i in rng.choice(2**n, size=2**n // 3, replace=False)),
                }[kind]
                ops += [sim.h(q) for q in range(cut)] + [inner] + [sim.h(q) for q in range(cut, n)]
            circuit = sim.Circuit(n, tuple(ops))
            assert sim._apply_circuit(circuit, block).tobytes() == oracle(block, circuit).tobytes(), kind

    @pytest.mark.parametrize("n", [2, 3, 8, 10])
    def test_a_first_h_keeps_the_oracle_zero_signs_of_the_input(self, n):
        # The butterfly adds no +0, so -0 + -0 = -0 of the input survives.
        block = seeded_block(n, np.random.default_rng(160 + n))
        block[:2] = -0.0  # the pair that H on qubit 0 adds into row 0
        for k in (1, 2, n):
            circuit = sim.Circuit(n, tuple(sim.h(q) for q in range(k)))
            out = sim._apply_circuit(circuit, block)
            assert out.tobytes() == oracle(block, circuit).tobytes(), k
        assert np.signbit(sim._apply_circuit(sim.Circuit(n, (sim.h(0),)), block)[0]).all()

    @pytest.mark.parametrize("n", [2, 3, 8, 10])
    def test_an_h_after_a_phase_flip_keeps_the_oracle_zero_signs(self, n):
        # Flipping an exact zero gives -0.  A full layer maps the all-ones column
        # to one nonzero amplitude, so the in-place flip after it meets zeros.
        layer = tuple(sim.h(q) for q in range(n))
        flip_all = sim.phase_flip(range(2**n))
        cases = [
            (layer + (flip_all, sim.h(0)), np.ones((2**n, 1))),
            ((sim.h(0), flip_all, sim.h(0)), np.eye(2**n, 4)),
        ]
        for ops, block in cases:
            circuit = sim.Circuit(n, ops)
            out = sim._apply_circuit(circuit, block)
            assert out.tobytes() == oracle(block, circuit).tobytes(), len(ops)
            assert np.signbit(out[out == 0]).any(), len(ops)

    @pytest.mark.parametrize("n", [2, 3, 8, 10])
    def test_a_leading_phase_flip_leaves_the_input_untouched(self, n):
        rng = np.random.default_rng(170 + n)
        block = seeded_block(n, rng)
        before = block.tobytes()
        flip = sim.phase_flip(range(0, 2**n, 3))
        layer = tuple(sim.h(q) for q in range(n))
        circuit = sim.Circuit(n, (flip,) + layer + (flip, sim.phase_flip(())) + layer)
        result = sim._apply_circuit(circuit, block)
        assert block.tobytes() == before
        assert result.tobytes() == oracle(block, circuit).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 8, 10])
    def test_one_index_and_empty_flips_keep_the_oracle_bits(self, n):
        # A one-index flip negates one entry or row through a scalar index; an
        # empty flip negates nothing.  Flipped zeros of both signs must match.
        rng = np.random.default_rng(190 + n)
        block = seeded_block(n, rng)
        block[[0, 1, 2**n - 1]] = [[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]
        before = block.tobytes()
        layer = tuple(sim.h(q) for q in range(n))
        empty = sim.phase_flip(())
        for index in (0, 1, 2**n - 1, int(rng.integers(2**n))):
            flip = sim.phase_flip({index})
            for ops in ((flip,), (flip, empty, flip), (empty,), layer + (flip,) + layer, (sim.h(0), flip, empty)):
                circuit = sim.Circuit(n, ops)
                for states in (block, block[:, 1]):
                    result = sim._apply_circuit(circuit, states)
                    assert result.tobytes() == oracle(states, circuit).tobytes(), (index, len(ops))
                assert block.tobytes() == before

    @pytest.mark.parametrize("n", [2, 3, 8, 10])
    def test_an_ascending_run_from_a_later_qubit_wraps_with_one_copy_in(self, n):
        # H on qubit s first rotates it to bit 0; then s, s + 1, ..., n - 1, 0, 1, ...
        # each find their qubit at bit 0, and only the end rotates back.
        block = seeded_block(n, np.random.default_rng(200 + n))
        for start in {1, n - 1}:
            ops = tuple(sim.h((start + i) % n) for i in range(2 * n + 3))
            circuit = sim.Circuit(n, ops)
            with mock.patch.object(sim, "_rotate", wraps=sim._rotate) as rotate:
                result = sim._apply_circuit(circuit, block)
            assert rotate.call_count == 1 + bool((start + len(ops)) % n), start
            assert result.tobytes() == oracle(block, circuit).tobytes(), start

    def test_ascending_layers_make_no_layout_copy(self):
        circuit = grover.build_grover_circuit(8, {5}, 3)
        with mock.patch.object(sim, "_rotate", wraps=sim._rotate) as rotate:
            state = sim.run(circuit, 0)
        assert rotate.call_count == 0
        assert state.tobytes() == oracle(sim.basis_state(8, 0), circuit).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_the_norm_is_rescaled_every_1024_h_gates(self, n):
        # 2,500 H gates grow the norm by 2**1250 unscaled, past the largest double.
        rng = np.random.default_rng(180 + n)
        ops = tuple(sim.h(int(q)) for q in rng.integers(n, size=2500))
        circuit = sim.Circuit(n, ops + (sim.cz(0, n - 1),) if n > 1 else ops)
        block = seeded_block(n, rng)
        assert sim._apply_circuit(circuit, block).tobytes() == oracle(block, circuit).tobytes()

    def test_a_grover_run_rescaled_inside_a_layer_keeps_the_oracle_bits(self):
        # 10 + 52 * 20 H gates: the 1024th is the fourth H of the 103rd layer.
        circuit = grover.build_grover_circuit(10, {37}, 52)
        assert [i for i, gate in enumerate(circuit.ops) if gate.kind == "h"][1023] == 1024 + 2 * 51 - 1
        for j in (0, 37, 1023):
            state = sim.run(circuit, j)
            assert state.tobytes() == oracle(sim.basis_state(10, j), circuit).tobytes(), j

    def test_a_grover_run_at_the_iteration_cap_stays_normalized(self):
        circuit = grover.build_grover_circuit(10, {37}, grover.MAX_ITERATIONS)
        assert sum(gate.kind == "h" for gate in circuit.ops) == 20_490
        probs = sim.probabilities(sim.run(circuit))
        assert np.isfinite(probs).all()
        assert abs(probs.sum() - 1.0) <= 1e-12


class TestExactCatalog:
    def test_every_catalog_state_is_a_signed_column_of_the_transpose(self):
        # Each solution circuit is real Clifford, so its states are exact: +-A^T e_b.
        for spec in family.enumerate_family():
            target = linsys.inverse_operator(spec.matrix)
            result = synth.synthesize(target)
            for b in range(4):
                state = sim.run(result.circuit, b)
                assert state.tobytes() == (result.matched_sign * target[:, b]).tobytes(), (spec.label, b)


class TestBitstrings:
    @pytest.mark.parametrize(
        "index, n, expected", [(0, 2, "00"), (1, 2, "01"), (2, 2, "10"), (5, 4, "0101")]
    )
    def test_msb_first(self, index, n, expected):
        assert sim.bitstring(index, n) == expected

    def test_every_index_of_the_widest_register(self):
        labels = [sim.bitstring(i, sim.MAX_QUBITS) for i in range(2**sim.MAX_QUBITS)]
        assert labels[0] == "0" * 10 and labels[-1] == "1" * 10 and len(set(labels)) == 1024


class TestWidth:
    """A register width outside 1..MAX_QUBITS is refused before any 2**n_qubits is formed."""

    MAKERS = {
        "Circuit": sim.Circuit,
        "basis_state": lambda n: sim.basis_state(n, 0),
        "bitstring": lambda n: sim.bitstring(0, n),
        "run": lambda n: sim.run(sim.Circuit(n)),
    }

    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
    @pytest.mark.parametrize("n_qubits", [10**400, 2**64, 200, 11, np.int64(11), 0, -1, True, 1.5, math.nan])
    def test_refused_without_allocating(self, make, n_qubits):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError):
                make(n_qubits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
    def test_the_widest_register_is_accepted(self, make):
        make(sim.MAX_QUBITS)

    def test_grover_has_the_same_bound(self):
        grover.build_grover_circuit(sim.MAX_QUBITS, {0}, 1)
        with pytest.raises(InvalidCountsError, match="^n_qubits must lie in 1..10, got 11$"):
            grover.build_grover_circuit(sim.MAX_QUBITS + 1, {0}, 1)

    def test_a_wider_state_is_refused_by_apply_gate(self):
        with pytest.raises(ValidationError, match="^n_qubits must be at most 10, got 11$"):
            sim.apply_gate(np.zeros(2**11), sim.x(0))


class TestProbabilities:
    def test_uniform_state(self):
        state = np.full(4, 0.5, dtype=complex)
        np.testing.assert_allclose(sim.probabilities(state), [0.25] * 4, atol=1e-15)

    def test_phases_do_not_matter(self):
        state = np.array([0.5, -0.5, 0.5j, -0.5j])
        np.testing.assert_allclose(sim.probabilities(state), [0.25] * 4, atol=1e-15)

    def test_real_and_complex_forms_give_the_same_bytes(self):
        rng = np.random.default_rng(7)
        grover_state = sim.run(grover.build_grover_circuit(3, {5}, 2))
        for state in (rng.normal(size=8), np.array([-0.0, 0.0, 5e-324, -1e-200]), grover_state):
            real = sim.probabilities(state)
            assert real.dtype == np.float64
            assert real.tobytes() == sim.probabilities(state.astype(complex)).tobytes()
            assert real.tobytes() == sim.probabilities(state.tolist()).tobytes()
        assert sim.probabilities([1, 0]).tobytes() == np.array([1.0, 0.0]).tobytes()

    def test_catalog_states_and_a_wide_search_give_their_complex_casts_bytes(self):
        """A real float64 state is squared as reals, never cast: the bytes are the complex128 path's."""
        states = [
            sim.run(synth.synthesize(linsys.inverse_operator(spec.matrix)).circuit, basis)
            for spec in family.enumerate_family()
            for basis in range(4)
        ]
        states.append(sim.run(grover.build_grover_circuit(10, {37}, 25)))
        assert len(states) == 193
        for state in states:
            real = sim.probabilities(state)
            assert state.dtype == real.dtype == np.float64
            assert real.tobytes() == sim.probabilities(state.astype(complex)).tobytes()


class TestSampling:
    def test_deterministic_state_gives_all_counts(self):
        table = sim.sample_distribution(sim.probabilities(sim.basis_state(2, 2)), 100, 0)
        assert table.counts == {"00": 0, "01": 0, "10": 100, "11": 0}

    def test_counts_sum_to_shots(self):
        state = np.full(4, 0.5, dtype=complex)
        table = sim.sample_distribution(sim.probabilities(state), 1024, 3)
        assert sum(table.counts.values()) == 1024
        assert table.shots == 1024
        assert table.seed == 3

    def test_same_seed_same_counts(self):
        state = np.full(4, 0.5, dtype=complex)
        a = sim.sample_distribution(sim.probabilities(state), 1024, 42)
        b = sim.sample_distribution(sim.probabilities(state), 1024, 42)
        assert a.counts == b.counts

    def test_different_seeds_differ(self):
        state = np.full(4, 0.5, dtype=complex)
        probs = sim.probabilities(state)
        assert sim.sample_distribution(probs, 1024, 0).counts != sim.sample_distribution(probs, 1024, 1).counts

    def test_frequencies(self):
        table = sim.ShotTable(10, 0, {"0": 4, "1": 6})
        assert table.frequencies == {"0": 0.4, "1": 0.6}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_uniform_band_at_1024_shots(self, seed):
        # Three-sigma binomial band around 1/4: 3 * sqrt(.25 * .75 / 1024).
        state = np.full(4, 0.5, dtype=complex)
        table = sim.sample_distribution(sim.probabilities(state), 1024, seed)
        for freq in table.frequencies.values():
            assert abs(freq - 0.25) <= 0.0406

    def test_large_sample_converges(self):
        state = np.full(4, 0.5, dtype=complex)
        table = sim.sample_distribution(sim.probabilities(state), 100_000, 0)
        for freq in table.frequencies.values():
            assert abs(freq - 0.25) <= 0.012

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_chi_square_against_uniform(self, seed):
        scipy_stats = pytest.importorskip("scipy.stats")
        state = np.full(4, 0.5, dtype=complex)
        table = sim.sample_distribution(sim.probabilities(state), 1024, seed)
        _, p = scipy_stats.chisquare(list(table.counts.values()))
        assert p > 0.001

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            sim.sample_distribution(sim.probabilities(sim.basis_state(2, 0)), 0, 0)

    def test_negative_probabilities_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            sim.sample_counts([0.5, -0.5, 0.5, 0.5], 10, 0)

    @pytest.mark.parametrize("shots", [2.7, 3.0, "3", True, None])
    def test_non_integer_shots_rejected(self, shots):
        with pytest.raises(ValidationError, match="integer"):
            sim.sample_counts([0.5, 0.5], shots, 0)

    def test_numpy_integer_shots_accepted(self):
        assert np.array_equal(
            sim.sample_counts([0.5, 0.5], np.int64(33), 4), sim.sample_counts([0.5, 0.5], 33, 4)
        )

    def test_shots_up_to_the_largest_c_long_are_drawn(self):
        assert sim.sample_counts([1.0], 2**63 - 1, 0).tolist() == [2**63 - 1]
        assert sim.sample_counts([[0.0, 1.0]] * 2, 2**63 - 1, 0).tolist() == [[0, 2**63 - 1]] * 2

    @pytest.mark.parametrize("probs", [[1.0, 1.0], [0.5, 0.4999], [0.0, 0.0], [[0.5, 0.5], [0.7, 0.7]]])
    def test_unnormalized_rows_rejected(self, probs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalizedError, match="sum to 1"):
                sim.sample_counts(probs, 10, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            sim.sample_counts([bad, 0.5, 0.5, 0.0], 10, 0)

    def test_rows_within_tolerance_are_divided_by_their_sum(self):
        p = np.array([0.25 + 4e-7, 0.25, 0.25, 0.25])
        want = np.random.default_rng(8).multinomial(1000, p / p.sum())
        assert np.array_equal(sim.sample_counts(p, 1000, 8), want)

    @pytest.mark.parametrize("shape", [(), (0,), (2, 2, 2)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValidationError):
            sim.sample_counts(np.full(shape, 0.5), 10, 0)

    @pytest.mark.parametrize("shots", [1, 7, 1024])
    def test_block_equals_row_by_row_calls(self, shots):
        rng = np.random.default_rng(41)
        block = rng.random((9, 4))
        block /= block.sum(axis=1, keepdims=True)
        block[3, 2] = 0.0
        block[3] /= block[3].sum()
        for seed in (0, 17):
            # One generator per call: the block's rows are its in-order draws.
            draws = np.random.default_rng(seed)
            rows = np.stack([draws.multinomial(shots, row / row.sum()) for row in block])
            got = sim.sample_counts(block, shots, seed)
            assert got.shape == (9, 4)
            assert np.array_equal(got, rows)
            assert np.array_equal(got.sum(axis=1), np.full(9, shots))

    @pytest.mark.parametrize("rows", [0, 1])
    def test_short_blocks_keep_their_shape(self, rows):
        block = np.full((rows, 4), 0.25)
        got = sim.sample_counts(block, 12, 5)
        assert got.shape == (rows, 4) and got.dtype == np.int64
        assert got.tolist() == [sim.sample_counts(np.full(4, 0.25), 12, 5).tolist()][:rows]

    def test_distribution_counts_are_python_ints(self):
        table = sim.sample_distribution([0.25, 0.25, 0.5, 0.0], 100, 3)
        assert list(table.counts) == ["00", "01", "10", "11"]
        assert all(type(c) is int for c in table.counts.values())
        assert list(table.counts.values()) == sim.sample_counts([0.25, 0.25, 0.5, 0.0], 100, 3).tolist()

    @pytest.mark.parametrize("d", [2, 4, 64, 1024])
    def test_wide_block_equals_row_by_row_calls(self, d):
        rng = np.random.default_rng(d)
        block = rng.random((5, d))
        block /= block.sum(axis=1, keepdims=True)
        draws = np.random.default_rng(30)
        rows = np.stack([draws.multinomial(1000, row / row.sum()) for row in block])
        for layout in (block, np.asfortranarray(block)):
            assert sim.sample_counts(layout, 1000, 30).tobytes() == rows.tobytes()
        # Neighbouring seeds share no rows; a generator seeded per row, seed + i, made them share all but one.
        assert not np.array_equal(sim.sample_counts(block, 1000, 31)[:-1], rows[1:])

    @pytest.mark.parametrize("d", [2, 4, 1024])
    def test_negative_zeros_and_strided_views_draw_as_their_values(self, d):
        # -0 reads above 2.0 by its bits and takes the guarded path; a view's check reads only the view's entries.
        rng = np.random.default_rng(d)
        block = rng.random((3, d))
        block[:, : d // 2] = 0.0
        block /= block.sum(axis=1, keepdims=True)
        want = sim.sample_counts(block, 500, 9)
        signed = block.copy()
        signed[:, : d // 2] = -0.0
        assert sim.sample_counts(signed, 500, 9).tobytes() == want.tobytes()
        assert sim.sample_counts(signed[1], 500, 9).tobytes() == sim.sample_counts(block[1], 500, 9).tobytes()
        padded = np.full((3, 2 * d), -7.0)
        padded[:, ::2] = signed
        assert sim.sample_counts(padded[:, ::2], 500, 9).tobytes() == want.tobytes()

    def test_one_bad_row_rejects_the_block(self):
        block = np.full((3, 4), 0.25)
        block[1, 0] = -0.25
        with pytest.raises(InvalidProbabilityError):
            sim.sample_counts(block, 10, 0)
