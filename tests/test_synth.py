import math
import time
from collections import Counter

import numpy as np
import pytest

from qlinsys import family, linsys, sim, synth
from qlinsys.errors import (
    DimensionMismatchError,
    NotOrthogonalError,
    SynthesisNotFoundError,
    ValidationError,
)

from oracles import VOCABULARY_MATRICES, mat_mul, max_abs_diff, vocabulary_group


def _gate_names(result):
    return [gate.kind for gate in result.circuit.ops]


class TestSynthesize:
    def test_identity_needs_no_gates(self):
        result = synth.synthesize(np.eye(4))
        assert result.gate_count == 0
        assert result.circuit.ops == ()
        assert result.matched_sign == 1
        assert result.max_deviation <= 1e-12

    def test_hadamard_tensor_square(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        result = synth.synthesize(np.kron(h, h))
        assert result.gate_count == 2
        assert sorted(_gate_names(result)) == ["h", "h"]

    def test_head_solution_operator(self):
        target = linsys.inverse_operator(
            family.matrix_for(family.FamilyLabel.parse("A_1234"))
        )
        result = synth.synthesize(target)
        assert result.gate_count == 4
        assert Counter(_gate_names(result)) == Counter({"h": 2, "cx": 2})
        assert result.max_deviation <= 1e-10

    def test_negated_target_matches_with_sign(self):
        target = linsys.inverse_operator(
            family.matrix_for(family.FamilyLabel.parse("A_1234"))
        )
        result = synth.synthesize(-target)
        assert result.matched_sign == -1
        assert result.max_deviation <= 1e-10

    def test_realized_unitary_checked_by_loop_multiply(self):
        matrix = family.matrix_for(family.FamilyLabel.parse("B_2143"))
        result = synth.synthesize(linsys.inverse_operator(matrix))
        realized = np.real(sim.unitary_of(result.circuit))
        product = mat_mul((result.matched_sign * realized).tolist(), matrix.tolist())
        assert max_abs_diff(product, np.eye(4).tolist()) <= 1e-10

    def test_rejects_non_orthogonal_target(self):
        with pytest.raises(NotOrthogonalError):
            synth.synthesize(np.ones((4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_target(self, bad):
        with pytest.raises(NotOrthogonalError):
            synth.synthesize(np.full((4, 4), bad))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            synth.synthesize(np.eye(3))

    def test_unreachable_orthogonal_target(self):
        # A generic rotation is orthogonal but lies outside the finite group
        # the vocabulary generates.
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.eye(4)
        rot[0, 0] = rot[1, 1] = c
        rot[0, 1], rot[1, 0] = -s, s
        with pytest.raises(SynthesisNotFoundError):
            synth.synthesize(rot)

    def test_budget_zero_only_fits_identity(self):
        assert synth.synthesize(np.eye(4), max_gates=0).gate_count == 0
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        with pytest.raises(SynthesisNotFoundError):
            synth.synthesize(np.kron(h, h), max_gates=0)


    @pytest.mark.parametrize("budget", [2.5, 3.0, True, None, "8"])
    def test_non_integer_budget_rejected(self, budget):
        with pytest.raises(ValidationError, match="integer"):
            synth.synthesize(np.eye(4), budget)

    def test_numpy_integer_budget_accepted(self):
        assert synth.synthesize(np.eye(4), np.int64(0)).gate_count == 0

    def test_huge_budget_only_filters_the_table(self):
        target = linsys.inverse_operator(family.matrix_for(family.FamilyLabel.parse("B_4213")))
        expected = synth.synthesize(target, max_gates=8)
        start = time.perf_counter()
        result = synth.synthesize(target, max_gates=10**9)
        assert time.perf_counter() - start < 1.0
        assert result == expected


class TestWholeGroup:
    def test_every_element_is_synthesized_at_its_bfs_depth(self):
        group = vocabulary_group()
        assert len(group) == 1152
        assert max(depth for _, depth in group) == 7
        for matrix, depth in group:
            result = synth.synthesize(matrix)
            assert result.gate_count == depth
            assert result.max_deviation <= 1e-12
            realized = np.eye(4)
            for gate in result.circuit.ops:
                name = gate.kind + "".join(str(q) for q in gate.targets)
                realized = VOCABULARY_MATRICES[name] @ realized
            assert np.max(np.abs(realized - result.matched_sign * matrix)) <= 1e-12

    def test_every_element_and_its_negative_share_a_circuit(self):
        for matrix, _ in vocabulary_group():
            plus, minus = synth.synthesize(matrix), synth.synthesize(-matrix)
            assert plus.circuit == minus.circuit
            assert {plus.matched_sign, minus.matched_sign} == {1, -1}
            stored = np.real(sim.unitary_of(plus.circuit))
            for t, result in ((matrix, plus), (-matrix, minus)):
                assert result.max_deviation == float(np.max(np.abs(stored - result.matched_sign * t)))


class TestTable:
    def test_stored_unitaries_are_those_of_their_circuits(self):
        table = synth._closure()
        assert len(table) == 2 * 1152
        assert len({id(circuit) for circuit, _, _ in table.values()}) == 1152
        assert len({id(unitary) for _, unitary, _ in table.values()}) == 1152
        for key, (circuit, unitary, sign) in table.items():
            assert sign in (1, -1)
            assert unitary.tobytes() == np.real(sim.unitary_of(circuit)).tobytes()
            signed = sign * unitary
            code = np.rint(4.0 * signed * np.abs(signed)).astype(np.int8)
            assert key == code.tobytes()
            # Exact entries: the key decoded, sign(c) sqrt(|c| / 4), equals +-U.
            assert np.array_equal(np.sign(code) * np.sqrt(np.abs(code) / 4.0), signed)

    def test_warm_lookup_simulates_nothing(self, monkeypatch):
        synth._closure()

        def fail(*args):
            raise AssertionError("synthesize simulated a circuit")

        monkeypatch.setattr(sim, "unitary_of", fail)
        monkeypatch.setattr(sim, "apply_gate", fail)
        for spec in family.enumerate_family():
            assert synth.synthesize(linsys.inverse_operator(spec.matrix)).gate_count >= 1


class TestNearGroupTargets:
    @pytest.mark.parametrize("eps", [5e-14, -5e-14, 5e-12, -5e-12])
    def test_hadamard_off_by_eps_is_one_gate(self, eps):
        h0 = np.real(sim.unitary_of(sim.Circuit(2, (sim.h(0),))))
        result = synth.synthesize(h0 + eps * np.sign(h0))
        assert result.circuit.ops == (sim.h(0),)
        assert result.matched_sign == 1
        assert result.max_deviation == pytest.approx(abs(eps), rel=0, abs=1e-15)

    def _rotation(self, angle):
        rot = np.eye(4)
        rot[0, 0] = rot[1, 1] = math.cos(angle)
        rot[0, 1], rot[1, 0] = -math.sin(angle), math.sin(angle)
        return rot

    def test_rotation_within_the_bound_is_the_identity(self):
        result = synth.synthesize(self._rotation(1e-11))
        assert result.gate_count == 0
        assert result.max_deviation <= 1e-10

    def test_rotation_beyond_the_bound_is_not_found(self):
        with pytest.raises(SynthesisNotFoundError):
            synth.synthesize(self._rotation(1e-9))


@pytest.fixture(scope="module")
def results():
    start = time.perf_counter()
    out = synth.synthesize_family()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    return out


class TestSynthesizeFamily:

    def test_covers_all_48(self, results):
        assert len(results) == 48
        labels = {str(label) for label in results}
        assert {str(spec.label) for spec in family.enumerate_family()} == labels

    def test_every_result_verifies(self, results):
        # The circuit's unitary, rebuilt from the oracle's gate matrices and
        # signed by the matched sign, must invert the catalog matrix.
        for label, result in results.items():
            product = family.matrix_for(label).tolist()
            for gate in result.circuit.ops:
                name = gate.kind + "".join(str(t) for t in gate.targets)
                product = mat_mul(VOCABULARY_MATRICES[name], product)
            signed = [[result.matched_sign * v for v in row] for row in product]
            assert max_abs_diff(signed, np.eye(4).tolist()) <= 1e-10
            assert result.max_deviation <= 1e-10

    def test_gate_counts_are_small(self, results):
        counts = [r.gate_count for r in results.values()]
        assert max(counts) <= 8
        assert results[family.FamilyLabel.parse("A_1234")].gate_count <= 4
        assert results[family.FamilyLabel.parse("A_1342")].gate_count == 2

    def test_minimality_spot_check(self, results):
        # Shortening the budget below the returned length must fail.
        spot = ["A_1234", "A_1342", "A_2143", "A_4321", "B_1234", "B_1342", "B_3142", "B_4321"]
        for name in spot:
            label = family.FamilyLabel.parse(name)
            result = results[label]
            target = linsys.inverse_operator(family.matrix_for(label))
            if result.gate_count == 0:
                continue
            with pytest.raises(SynthesisNotFoundError):
                synth.synthesize(target, max_gates=result.gate_count - 1)

    def test_circuit_probabilities_match_solutions(self, results):
        # Up to the matched sign, running each circuit from |00> must land on
        # the solution amplitudes of the canonical system.
        for label, result in results.items():
            x = linsys.solve(family.matrix_for(label), [1, 0, 0, 0])
            state = sim.run(result.circuit, 0)
            np.testing.assert_allclose(
                np.real(state), result.matched_sign * x, rtol=0, atol=1e-10
            )


class TestVocabulary:
    def test_order_and_size(self):
        kinds = [(g.kind, g.targets) for g in synth.VOCABULARY]
        assert kinds == [
            ("h", (0,)),
            ("h", (1,)),
            ("x", (0,)),
            ("x", (1,)),
            ("z", (0,)),
            ("z", (1,)),
            ("cx", (0, 1)),
            ("cx", (1, 0)),
            ("cz", (0, 1)),
        ]

    def test_all_vocabulary_gates_are_real(self):
        for gate in synth.VOCABULARY:
            u = sim.unitary_of(sim.Circuit(2, (gate,)))
            assert np.max(np.abs(u.imag)) == 0.0
