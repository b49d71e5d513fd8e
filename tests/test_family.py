import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from qlinsys import family, grover, sim

from oracles import dot, mat_mul, max_abs_diff, run_by_index, transpose

EXPECTED_A = [
    [0.5, 0.5, 0.5, 0.5],
    [0.5, -0.5, -0.5, 0.5],
    [0.5, -0.5, 0.5, -0.5],
    [0.5, 0.5, -0.5, -0.5],
]
EXPECTED_B = [
    [0.5, 0.5, 0.5, -0.5],
    [0.5, 0.5, -0.5, 0.5],
    [0.5, -0.5, 0.5, 0.5],
    [0.5, -0.5, -0.5, -0.5],
]


def _base_columns(kind):
    """The class's columns in index order 1..4, read off its identity-permutation matrix."""
    return list(family.matrix_for(family.FamilyLabel(kind, (1, 2, 3, 4))).T)


class TestBaseColumns:
    @pytest.mark.parametrize(
        "kind, expected", [("A", EXPECTED_A), ("B", EXPECTED_B)]
    )
    def test_frozen_values(self, kind, expected):
        cols = _base_columns(kind)
        assert len(cols) == 4
        for col, want in zip(cols, expected):
            np.testing.assert_array_equal(col, want)

    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_mutually_orthonormal(self, kind):
        cols = _base_columns(kind)
        for i in range(4):
            for j in range(4):
                want = 1.0 if i == j else 0.0
                assert dot(cols[i], cols[j]) == pytest.approx(want, abs=1e-15)

    def test_classes_share_no_column_even_up_to_sign(self):
        # Any column permutation with sign flips keeps a matrix inside its
        # class, so disjointness here means the two halves of the catalog
        # are genuinely different systems, not relabelings of each other.
        b_cols = {tuple(col) for col in EXPECTED_B}
        signed_a = {tuple(col) for col in EXPECTED_A} | {
            tuple(-v for v in col) for col in EXPECTED_A
        }
        assert b_cols & signed_a == set()

    def test_classes_exhaust_the_candidate_columns(self):
        # Exactly 8 vectors in {+1/2, -1/2}^4 start positive; the two classes
        # partition them.
        candidates = {
            tuple(s / 2.0 for s in (1,) + signs)
            for signs in itertools.product((1, -1), repeat=3)
        }
        catalog = {tuple(col) for col in EXPECTED_A} | {tuple(col) for col in EXPECTED_B}
        assert catalog == candidates

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            family.FamilyLabel("C", (1, 2, 3, 4))
        with pytest.raises(ValueError):
            family.FamilyLabel.parse("C_1234")
        assert {spec.label.kind for spec in family.enumerate_family()} == {"A", "B"}


class TestFamilyLabel:
    def test_parse_roundtrip(self):
        label = family.FamilyLabel.parse("B_3142")
        assert label.kind == "B"
        assert label.perm == (3, 1, 4, 2)
        assert str(label) == "B_3142"
        assert label.subset == "B3"

    @pytest.mark.parametrize("text", ["A1234", "C_1234", "A_1134", "A_123", "a_1234"])
    def test_malformed_labels(self, text):
        with pytest.raises(ValueError):
            family.FamilyLabel.parse(text)

    def test_integer_like_perm_is_stored_as_an_int_tuple(self):
        label = family.FamilyLabel("A", [np.int64(3), 1, 4, 2])
        assert label.perm == (3, 1, 4, 2) and type(label.perm[0]) is int
        assert label == family.FamilyLabel.parse("A_3142")
        assert hash(label) == hash(family.FamilyLabel.parse("A_3142"))
        assert str(label) == "A_3142"


class TestMatrixFor:
    def test_identity_permutation_stacks_base_columns(self):
        m = family.matrix_for(family.FamilyLabel.parse("A_1234"))
        np.testing.assert_array_equal(m.T, EXPECTED_A)

    def test_permuted_label_reorders_columns(self):
        m = family.matrix_for(family.FamilyLabel.parse("A_3142"))
        for j, p in enumerate((3, 1, 4, 2)):
            np.testing.assert_array_equal(m[:, j], EXPECTED_A[p - 1])

    def test_a_1342_is_hadamard_tensor_square(self):
        h = np.array([[1, 1], [1, -1]], dtype=float) / math.sqrt(2)
        m = family.matrix_for(family.FamilyLabel.parse("A_1342"))
        np.testing.assert_allclose(m, np.kron(h, h), rtol=0, atol=1e-12)

    def test_result_is_read_only(self):
        m = family.matrix_for(family.FamilyLabel.parse("A_1234"))
        with pytest.raises(ValueError):
            m[0, 0] = 2.0

    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_injective_within_class(self, kind):
        seen = set()
        for perm in itertools.permutations((1, 2, 3, 4)):
            m = family.matrix_for(family.FamilyLabel(kind, perm))
            seen.add(m.tobytes())
        assert len(seen) == 24


class TestEnumerateFamily:
    def test_counts_and_grouping(self):
        specs = family.enumerate_family()
        assert len(specs) == 48
        by_subset = {}
        for spec in specs:
            by_subset.setdefault(spec.label.subset, []).append(str(spec.label))
        assert sorted(by_subset) == ["A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"]
        assert all(len(v) == 6 for v in by_subset.values())
        assert by_subset["A1"] == [
            "A_1234",
            "A_1243",
            "A_1324",
            "A_1342",
            "A_1423",
            "A_1432",
        ]

    def test_all_matrices_distinct(self):
        specs = family.enumerate_family()
        assert len({spec.matrix.tobytes() for spec in specs}) == 48

    def test_all_orthonormal(self):
        for spec in family.enumerate_family():
            gram = mat_mul(transpose(spec.matrix), spec.matrix.tolist())
            assert max_abs_diff(gram, np.eye(4).tolist()) == 0.0
            assert np.max(np.abs(spec.matrix.T @ spec.matrix - np.eye(4))) <= 1e-12

    def test_canonical_rhs(self):
        for spec in family.enumerate_family():
            np.testing.assert_array_equal(spec.y, [1.0, 0.0, 0.0, 0.0])


class TestEquations:
    def test_head_system_rendering(self):
        eqs = family.equations_for(family.FamilyLabel.parse("A_1234"))
        assert eqs == [
            "x1 + x2 + x3 + x4 = 2",
            "x1 - x2 - x3 + x4 = 0",
            "x1 - x2 + x3 - x4 = 0",
            "x1 + x2 - x3 - x4 = 0",
        ]

    def test_class_b_head_rendering(self):
        eqs = family.equations_for(family.FamilyLabel.parse("B_1234"))
        assert eqs[0] == "x1 + x2 + x3 + x4 = 2"
        assert eqs[3] == "-x1 + x2 + x3 - x4 = 0"



def _gate(kind, *targets, flips=()):
    """A stand-in gate for `oracles.run_by_index`, which reads only kind, targets and flips."""
    return SimpleNamespace(kind=kind, targets=targets, flips=frozenset(flips))


_LAYER = (_gate("h", 0), _gate("h", 1))
# One Grover round for marked {0}: O0, then H (x) H, the flip about |00>, H (x) H, which is -D O0.
_ROUND = (_gate("phaseflip", flips={0}), *_LAYER, _gate("phaseflip", flips={0}), *_LAYER)


def _operators_by_index():
    """H (x) H and D O0 folded over the identity by `oracles.run_by_index`, without the package."""
    return {"A": run_by_index(np.eye(4), _LAYER), "B": -run_by_index(np.eye(4), _ROUND)}


def _operators_by_simulator():
    """The same two from `sim.unitary_of` of `grover`'s circuit for marked {0}: its H layer, then its round."""
    ops = grover.build_grover_circuit(2, {0}, 1).ops
    return {"A": sim.unitary_of(sim.Circuit(2, ops[:2])), "B": -sim.unitary_of(sim.Circuit(2, ops[2:]))}


def _column_order(matrix, operator):
    """For each column of `matrix`, the index of the column of `operator` with the same bytes, or -1."""
    columns = [column.tobytes() for column in operator.T]
    return [columns.index(col.tobytes()) if col.tobytes() in columns else -1 for col in matrix.T]


@pytest.mark.parametrize("build", [_operators_by_index, _operators_by_simulator], ids=["by_index", "by_simulator"])
class TestGroverOperators:
    """Class A is H (x) H and class B the 2-qubit Grover iterate D O0, each with its columns permuted."""

    def test_operators_are_the_textbook_ones(self, build):
        s = np.full(4, 0.5)
        h = np.array([[1.0, 1.0], [1.0, -1.0]])
        textbook = {"A": np.kron(h, h) / 2.0, "B": (2.0 * np.outer(s, s) - np.eye(4)) @ np.diag([-1.0, 1, 1, 1])}
        built = build()
        for kind in "AB":
            assert built[kind].tobytes() == textbook[kind].tobytes()

    def test_every_catalog_matrix_permutes_its_class_operator(self, build):
        operators = build()
        unpermuted = []
        for spec in family.enumerate_family():
            order = _column_order(spec.matrix, operators[spec.label.kind])
            assert sorted(order) == [0, 1, 2, 3], spec.label  # so the matrix is operator[:, order], bit for bit
            if order == [0, 1, 2, 3]:
                unpermuted.append(str(spec.label))
        assert unpermuted == ["A_1342", "B_4321"]
