import math
import warnings

import numpy as np
import pytest

from qlinsys import sim
from qlinsys.errors import (
    InvalidTargetError,
    NegativeProbabilityError,
    NotNormalizedError,
    ValidationError,
)

from oracles import cx_by_index, cz_by_index

INV_SQRT2 = 1.0 / math.sqrt(2.0)

H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) * INV_SQRT2
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
Y_MAT = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
S_MAT = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG_MAT = np.array([[1, 0], [0, -1j]], dtype=complex)
T_MAT = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
I2 = np.eye(2, dtype=complex)

ONE_QUBIT_MAKERS = (sim.h, sim.x, sim.y, sim.z, sim.s, sim.sdg, sim.t)


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


class TestSingleQubitGates:
    @pytest.mark.parametrize(
        "gate, matrix",
        [
            (sim.h(0), H_MAT),
            (sim.x(0), X_MAT),
            (sim.y(0), Y_MAT),
            (sim.z(0), Z_MAT),
            (sim.s(0), S_MAT),
            (sim.sdg(0), SDG_MAT),
            (sim.t(0), T_MAT),
        ],
    )
    def test_matrix_on_low_qubit(self, gate, matrix):
        # Qubit 0 is the least significant bit, so its gate is kron(I, G).
        realized = sim.unitary_of(sim.Circuit(2, (gate,)))
        np.testing.assert_allclose(realized, np.kron(I2, matrix), atol=1e-12)

    @pytest.mark.parametrize(
        "gate, matrix",
        [(sim.h(1), H_MAT), (sim.x(1), X_MAT), (sim.y(1), Y_MAT)],
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
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        np.testing.assert_allclose(realized, expected, atol=1e-12)

    def test_cx_control1_matrix(self):
        realized = sim.unitary_of(sim.Circuit(2, (sim.cx(1, 0),)))
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
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
        state = np.full(4, 0.5, dtype=complex)
        flipped = sim.apply_gate(state, sim.phase_flip({1, 2}))
        np.testing.assert_allclose(flipped, [0.5, -0.5, -0.5, 0.5], atol=1e-15)


class TestGateValidation:
    @pytest.mark.parametrize(
        "gate",
        [
            sim.h(2),
            sim.cx(0, 2),
            sim.cx(1, 1),
            sim.Gate("h", (0, 1)),
            sim.Gate("cx", (0,)),
            sim.Gate("phaseflip", (0,), frozenset({0})),
            sim.phase_flip({4}),
        ],
    )
    def test_rejected_on_two_qubits(self, gate):
        with pytest.raises(InvalidTargetError):
            sim.apply_gate(np.zeros(4, dtype=complex) + 0.5, gate)

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
            sim.apply_gate(np.ones(3, dtype=complex), sim.h(0))


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
        makers = [sim.h, sim.x, sim.y, sim.z, sim.s, sim.sdg, sim.t]
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
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2**n), atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
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
        block = rng.normal(size=(2**n, k)) + 1j * rng.normal(size=(2**n, k))
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
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        block = rng.normal(size=(2**n, 5)) + 1j * rng.normal(size=(2**n, 5))
        for amps in (state, block):
            before = amps.copy()
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    assert sim.apply_gate(amps, sim.cx(a, b)).tobytes() == cx_by_index(amps, a, b).tobytes()
                    assert sim.apply_gate(amps, sim.cz(a, b)).tobytes() == cz_by_index(amps, a, b).tobytes()
            assert amps.tobytes() == before.tobytes()

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            sim.apply_gate(np.ones((4, 2, 2), dtype=complex), sim.h(0))

    def test_block_rows_must_be_a_power_of_two(self):
        with pytest.raises(ValueError):
            sim.apply_gate(np.ones((3, 2), dtype=complex), sim.h(0))


class TestBitstrings:
    @pytest.mark.parametrize(
        "index, n, expected", [(0, 2, "00"), (1, 2, "01"), (2, 2, "10"), (5, 4, "0101")]
    )
    def test_msb_first(self, index, n, expected):
        assert sim.bitstring(index, n) == expected


class TestProbabilities:
    def test_uniform_state(self):
        state = np.full(4, 0.5, dtype=complex)
        np.testing.assert_allclose(sim.probabilities(state), [0.25] * 4, atol=1e-15)

    def test_phases_do_not_matter(self):
        state = np.array([0.5, -0.5, 0.5j, -0.5j])
        np.testing.assert_allclose(sim.probabilities(state), [0.25] * 4, atol=1e-15)


class TestSqrtReadout:
    def test_square_root(self):
        np.testing.assert_allclose(
            sim.amplitudes_from_probabilities([0.25, 0.25, 0.25, 0.25]), [0.5] * 4
        )

    def test_negative_rejected(self):
        with pytest.raises(NegativeProbabilityError):
            sim.amplitudes_from_probabilities([0.5, -0.1, 0.3, 0.3])

    def test_signs_are_lost(self):
        signed = np.array([0.5, -0.5, -0.5, 0.5])
        readout = sim.amplitudes_from_probabilities(signed**2)
        np.testing.assert_allclose(readout, np.abs(signed), atol=1e-15)
        assert np.max(np.abs(readout - signed)) == 1.0


class TestSampling:
    def test_deterministic_state_gives_all_counts(self):
        table = sim.sample(sim.basis_state(2, 2), 100, 0)
        assert table.counts == {"00": 0, "01": 0, "10": 100, "11": 0}

    def test_counts_sum_to_shots(self):
        state = np.full(4, 0.5, dtype=complex)
        table = sim.sample(state, 1024, 3)
        assert sum(table.counts.values()) == 1024
        assert table.shots == 1024
        assert table.seed == 3

    def test_same_seed_same_counts(self):
        state = np.full(4, 0.5, dtype=complex)
        a = sim.sample(state, 1024, 42)
        b = sim.sample(state, 1024, 42)
        assert a.counts == b.counts

    def test_different_seeds_differ(self):
        state = np.full(4, 0.5, dtype=complex)
        assert sim.sample(state, 1024, 0).counts != sim.sample(state, 1024, 1).counts

    def test_frequencies(self):
        table = sim.ShotTable(10, 0, {"0": 4, "1": 6})
        assert table.frequencies == {"0": 0.4, "1": 0.6}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_uniform_band_at_1024_shots(self, seed):
        # Three-sigma binomial band around 1/4: 3 * sqrt(.25 * .75 / 1024).
        state = np.full(4, 0.5, dtype=complex)
        table = sim.sample(state, 1024, seed)
        for freq in table.frequencies.values():
            assert abs(freq - 0.25) <= 0.0406

    def test_large_sample_converges(self):
        state = np.full(4, 0.5, dtype=complex)
        table = sim.sample(state, 100_000, 0)
        for freq in table.frequencies.values():
            assert abs(freq - 0.25) <= 0.012

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_chi_square_against_uniform(self, seed):
        scipy_stats = pytest.importorskip("scipy.stats")
        state = np.full(4, 0.5, dtype=complex)
        table = sim.sample(state, 1024, seed)
        _, p = scipy_stats.chisquare(list(table.counts.values()))
        assert p > 0.001

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            sim.sample(sim.basis_state(2, 0), 0, 0)

    def test_negative_probabilities_rejected(self):
        with pytest.raises(NegativeProbabilityError):
            sim.sample_counts([0.5, -0.5, 0.5, 0.5], 10, 0)

    @pytest.mark.parametrize("shots", [2.7, 3.0, "3", True, None])
    def test_non_integer_shots_rejected(self, shots):
        with pytest.raises(ValidationError, match="integer"):
            sim.sample_counts([0.5, 0.5], shots, 0)

    def test_numpy_integer_shots_accepted(self):
        assert np.array_equal(
            sim.sample_counts([0.5, 0.5], np.int64(33), 4), sim.sample_counts([0.5, 0.5], 33, 4)
        )

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
            rows = np.stack([sim.sample_counts(row, shots, seed + i) for i, row in enumerate(block)])
            got = sim.sample_counts(block, shots, seed)
            assert got.shape == (9, 4)
            assert np.array_equal(got, rows)
            assert np.array_equal(got.sum(axis=1), np.full(9, shots))

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
        rows = np.stack([sim.sample_counts(row, 1000, 30 + i) for i, row in enumerate(block)])
        for layout in (block, np.asfortranarray(block)):
            assert sim.sample_counts(layout, 1000, 30).tobytes() == rows.tobytes()

    def test_one_bad_row_rejects_the_block(self):
        block = np.full((3, 4), 0.25)
        block[1, 0] = -0.25
        with pytest.raises(NegativeProbabilityError):
            sim.sample_counts(block, 10, 0)
