import math

import numpy as np
import pytest

from qlinsys import grover, sim
from qlinsys.errors import InvalidCountsError, ValidationError


class TestGeometry:
    def test_four_states_one_marked(self):
        assert grover.theta(4, 1) == pytest.approx(math.pi / 6, abs=1e-12)

    def test_eight_states_one_marked(self):
        theta = grover.theta(8, 1)
        # Checked against the defining relation instead of the forward formula.
        assert math.sin(theta) ** 2 == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert theta == pytest.approx(0.361367, abs=1e-6)

    def test_fully_marked_search(self):
        assert grover.theta(4, 4) == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("n_states, n_marked", [(3, 1), (0, 1), (4, 0), (4, 5)])
    def test_invalid_counts(self, n_states, n_marked):
        with pytest.raises(InvalidCountsError):
            grover.theta(n_states, n_marked)


class TestOptimalIterations:
    @pytest.mark.parametrize(
        "n_states, n_marked, expected",
        [(4, 1, 1), (4, 4, 0), (8, 1, 2), (2, 1, 0), (1024, 1, 25)],
    )
    def test_known_counts(self, n_states, n_marked, expected):
        assert grover.optimal_iterations(grover.theta(n_states, n_marked)) == expected

    def test_square_root_scaling(self):
        # For a single target the count tracks (pi/4) * sqrt(N); the slack
        # covers rounding plus the half-iteration offset at tiny N.
        for exponent in range(1, 11):
            n_states = 2**exponent
            k = grover.optimal_iterations(grover.theta(n_states, 1))
            assert abs(k - (math.pi / 4.0) * math.sqrt(n_states)) <= 1.5

    def test_optimality_over_neighbors(self):
        for n_states in (8, 64, 256):
            theta = grover.theta(n_states, 1)
            best = grover.optimal_iterations(theta)
            p_best = grover.success_probability(theta, best)
            for other in (best - 1, best + 1):
                if other >= 0:
                    assert p_best >= grover.success_probability(theta, other) - 1e-12


class TestSuccessProbability:
    def test_single_iteration_on_four_states_is_certain(self):
        theta = grover.theta(4, 1)
        assert abs(grover.success_probability(theta, 1) - 1.0) <= 1e-12

    def test_no_iterations_gives_uniform_mass(self):
        theta = grover.theta(8, 3)
        assert grover.success_probability(theta, 0) == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_eight_state_two_iterations(self):
        # sin(5 theta) for sin(theta) = 1/(2 sqrt 2) works out to 11 sqrt(2)/16,
        # so the success probability is exactly 121/128.
        theta = grover.theta(8, 1)
        assert grover.success_probability(theta, 2) == pytest.approx(121.0 / 128.0, abs=1e-10)
        assert grover.success_probability(theta, 2) == pytest.approx(0.9453, abs=5e-5)

    def test_negative_iterations(self):
        with pytest.raises(ValueError):
            grover.success_probability(grover.theta(4, 1), -1)

    @pytest.mark.parametrize("iterations", [2**1022, 2**1023 - 1], ids=["2**1022", "2**1023-1"])
    def test_count_whose_angle_could_overflow_is_refused(self, iterations):
        # Below 2**1022, (2k + 1) * theta is finite for every theta up to pi/2;
        # 2**1023 - 1 already overflows the conversion of 2k + 1 to a double.
        assert 0.0 <= grover.success_probability(grover.theta(4, 4), 2**1022 - 1) <= 1.0
        with pytest.raises(ValidationError, match=r"^iterations must be below 2\*\*1022$"):
            grover.success_probability(grover.theta(4, 4), iterations)


def _marked_mass(n_qubits, marked, iterations):
    circuit = grover.build_grover_circuit(n_qubits, marked, iterations)
    probs = sim.probabilities(sim.run(circuit, 0))
    return float(sum(probs[m] for m in marked))


class TestCircuits:
    def test_two_qubit_single_iteration_is_exact(self):
        assert _marked_mass(2, {3}, 1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_iterations_is_uniform(self):
        assert _marked_mass(2, {0, 1, 2, 3}, 0) == pytest.approx(1.0, abs=1e-12)

    def test_three_qubit_two_iterations(self):
        assert _marked_mass(3, {5}, 2) == pytest.approx(121.0 / 128.0, abs=1e-10)

    def test_closed_form_agreement_sweep(self):
        for n_qubits in (2, 3, 4):
            for marked in range(2**n_qubits):
                theta = grover.theta(2**n_qubits, 1)
                for k in range(5):
                    simulated = _marked_mass(n_qubits, {marked}, k)
                    predicted = grover.success_probability(theta, k)
                    assert abs(simulated - predicted) <= 1e-10

    def test_state_stays_in_plane(self):
        # Amplitudes remain constant across the marked set and across its
        # complement separately, whatever the iteration count.
        marked = {1, 6}
        for k in range(5):
            circuit = grover.build_grover_circuit(3, marked, k)
            state = sim.run(circuit, 0)
            inside = [state[i] for i in sorted(marked)]
            outside = [state[i] for i in range(8) if i not in marked]
            assert np.max(np.abs(np.diff(inside))) <= 1e-10
            assert np.max(np.abs(np.diff(outside))) <= 1e-10

    def test_structure_of_circuit(self):
        circuit = grover.build_grover_circuit(3, {5}, 2)
        kinds = [gate.kind for gate in circuit.ops]
        # H layer, then per iteration: oracle flip, H layer, zero flip, H layer.
        assert kinds == ["h"] * 3 + (["phaseflip"] + ["h"] * 3 + ["phaseflip"] + ["h"] * 3) * 2

    @pytest.mark.parametrize("n_qubits", [1, 4, 10])
    def test_repeated_gates_are_shared_objects(self, n_qubits):
        # One object per H, the oracle and the zero flip, so a circuit checks n + 2 gates.
        circuit = grover.build_grover_circuit(n_qubits, {0}, 3)
        assert len({id(gate) for gate in circuit.ops}) == n_qubits + 2
        assert circuit == sim.Circuit(n_qubits, tuple(sim.Gate(g.kind, g.targets, g.flips) for g in circuit.ops))

    @pytest.mark.parametrize("n_qubits, iterations", [(1, 0), (2, 1), (5, 3), (10, 25)])
    def test_equals_the_circuit_of_fresh_gates(self, n_qubits, iterations):
        # The H gates and the zero flip are built once and shared by every circuit.
        marked = {2**n_qubits - 1}
        layer = [sim.h(q) for q in range(n_qubits)]
        ops = layer + ([sim.phase_flip(marked)] + layer + [sim.phase_flip({0})] + layer) * iterations
        circuit = grover.build_grover_circuit(n_qubits, marked, iterations)
        assert circuit == sim.Circuit(n_qubits, tuple(ops))
        again = grover.build_grover_circuit(n_qubits, {0}, 1)
        assert all(a is b for a, b in zip(circuit.ops, again.ops[:n_qubits]))

    @pytest.mark.parametrize("marked", [set(), {8}, {-1}])
    def test_bad_marked_sets(self, marked):
        with pytest.raises(InvalidCountsError):
            grover.build_grover_circuit(3, marked, 1)

    @pytest.mark.parametrize("n_qubits", [0, 11])
    def test_qubit_range(self, n_qubits):
        with pytest.raises(ValueError):
            grover.build_grover_circuit(n_qubits, {0}, 1)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            grover.build_grover_circuit(2, {0}, -1)

    def test_iterations_bounded(self):
        circuit = grover.build_grover_circuit(1, {0}, grover.MAX_ITERATIONS)
        assert len(circuit.ops) == 1 + 4 * grover.MAX_ITERATIONS
        with pytest.raises(ValidationError, match="at most 1024"):
            grover.build_grover_circuit(1, {0}, grover.MAX_ITERATIONS + 1)
