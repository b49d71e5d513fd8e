import math
import time
from collections import Counter

import numpy as np
import pytest

from qlinsys import family, linsys, sim, synth
from qlinsys.errors import (
    DimensionMismatchError,
    NotOrthonormalError,
    SynthesisNotFoundError,
    is_orthonormal,
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
        realized = sim.unitary_of(result.circuit)
        product = mat_mul((result.matched_sign * realized).tolist(), matrix.tolist())
        assert max_abs_diff(product, np.eye(4).tolist()) <= 1e-10

    def test_rejects_non_orthogonal_target(self):
        with pytest.raises(NotOrthonormalError):
            synth.synthesize(np.ones((4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_target(self, bad):
        with pytest.raises(NotOrthonormalError):
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
        with pytest.raises(SynthesisNotFoundError, match="^no circuit reaches the target within 1e-10$"):
            synth.synthesize(rot)

    @pytest.mark.parametrize("extra", [((8,), {}), ((), {"max_gates": 8})], ids=["positional", "keyword"])
    def test_takes_no_gate_budget(self, extra):
        args, kwargs = extra
        with pytest.raises(TypeError):
            synth.synthesize(np.eye(4), *args, **kwargs)


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
            stored = sim.unitary_of(plus.circuit)
            for t, result in ((matrix, plus), (-matrix, minus)):
                assert result.max_deviation == float(np.max(np.abs(stored - result.matched_sign * t)))


class TestTable:
    def test_stored_unitaries_are_those_of_their_circuits(self):
        table = synth._table()
        assert len(table) == 2 * 1152
        assert len({id(result.circuit) for result in table.values()}) == 1152
        for key, result in table.items():
            assert result.matched_sign in (1, -1)
            assert (result.gate_count, repr(result.max_deviation)) == (len(result.circuit.ops), "0.0")
            # Exact entries with +0.0 zeros: the snapped +-U is sign * U of the circuit, bit for bit.
            assert key == (result.matched_sign * sim.unitary_of(result.circuit) + 0.0).tobytes()

    def test_warm_lookup_simulates_nothing(self, monkeypatch):
        synth._table()

        def fail(*args):
            raise AssertionError("synthesize simulated a circuit")

        monkeypatch.setattr(sim, "unitary_of", fail)
        monkeypatch.setattr(sim, "apply_gate", fail)
        for spec in family.enumerate_family():
            assert synth.synthesize(linsys.inverse_operator(spec.matrix)).gate_count >= 1

    def test_catalog_targets_take_the_exact_index(self, monkeypatch):
        synth._table()

        def fail(*args):
            raise AssertionError("synthesize checked a catalog target's orthogonality")

        monkeypatch.setattr(synth, "is_orthonormal", fail)
        for spec in family.enumerate_family():
            result = synth.synthesize(linsys.inverse_operator(spec.matrix))
            assert result.matched_sign == 1 and result.max_deviation == 0.0


class TestExactIndex:
    """Every signed stored element, exact or moved off the index by 1e-13, gives the same answer."""

    def test_index_holds_each_signed_element_once(self):
        assert len(synth._table()) == 2 * 1152

    def test_zero_of_the_other_sign_takes_the_checked_path(self):
        target = np.where(np.eye(4) == 1.0, 1.0, -0.0)
        assert target.tobytes() not in synth._table()
        result = synth.synthesize(target)
        assert (result.gate_count, result.matched_sign, repr(result.max_deviation)) == (0, 1, "0.0")

    def test_negated_zeros_miss_the_bytes_and_hit_snapped(self):
        with_zero = 0
        for key, stored in synth._table().items():
            target = np.frombuffer(key).reshape(4, 4)
            if (target != 0.0).all():
                continue
            with_zero += 1
            flipped = np.where(target == 0.0, -0.0, target)
            assert flipped.tobytes() not in synth._table()
            result = synth.synthesize(flipped)
            assert (result.circuit, result.matched_sign) == (stored.circuit, stored.matched_sign)
            assert (result.gate_count, repr(result.max_deviation)) == (stored.gate_count, "0.0")
        assert 0 < with_zero < len(synth._table())

    def test_exact_and_near_targets_agree_on_the_whole_group(self):
        for key, stored in synth._table().items():
            target = np.frombuffer(key).reshape(4, 4)
            circuit, sign = stored.circuit, stored.matched_sign
            assert is_orthonormal(target), "a stored element must pass the check it skips"
            near = target.copy()
            near[1, 2] += 1e-13
            assert target.tobytes() in synth._table() and near.tobytes() not in synth._table()
            exact, moved = synth.synthesize(target), synth.synthesize(near)
            assert (exact.circuit, exact.gate_count, exact.matched_sign) == (circuit, len(circuit.ops), sign)
            assert repr(exact.max_deviation) == "0.0"
            assert (moved.circuit, moved.gate_count, moved.matched_sign) == (circuit, len(circuit.ops), sign)
            assert 0.0 < moved.max_deviation < 1e-12


class TestNearGroupTargets:
    @pytest.mark.parametrize("eps", [5e-14, -5e-14, 5e-12, -5e-12])
    def test_hadamard_off_by_eps_is_one_gate(self, eps):
        h0 = sim.unitary_of(sim.Circuit(2, (sim.h(0),)))
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

    @pytest.mark.parametrize("angle, found", [(5e-11, True), (9.9e-11, True), (1.01e-10, False), (2e-10, False)])
    def test_the_1e_10_bound_is_the_only_limit(self, angle, found):
        # An orthogonal target's one limit is its distance from the group; no gate count refuses it.
        target = self._rotation(angle)
        assert is_orthonormal(target)
        if found:
            result = synth.synthesize(target)
            assert (result.gate_count, result.max_deviation) == (0, pytest.approx(angle, rel=1e-6))
        else:
            with pytest.raises(SynthesisNotFoundError, match="^no circuit reaches the target within 1e-10$"):
                synth.synthesize(target)


@pytest.fixture(scope="module")
def results():
    start = time.perf_counter()
    out = {spec.label: synth.synthesize(linsys.inverse_operator(spec.matrix)) for spec in family.enumerate_family()}
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

    def test_circuit_probabilities_match_solutions(self, results):
        # Up to the matched sign, running each circuit from |00> must land on
        # the solution amplitudes of the canonical system.
        for label, result in results.items():
            x = linsys.solve(family.matrix_for(label), [1, 0, 0, 0])
            state = sim.run(result.circuit, 0)
            np.testing.assert_allclose(
                state, result.matched_sign * x, rtol=0, atol=1e-10
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
            assert u.dtype == np.float64
