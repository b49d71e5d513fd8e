import itertools

import numpy as np
import pytest

from qlinsys import family, linsys
from qlinsys.errors import (
    DimensionMismatchError,
    NotNormalizedError,
    NotOrthonormalError,
)

from oracles import gauss_solve, mat_mul, mat_vec, max_abs_diff

# Frozen by hand: columns (1,1,1,1)/2, (1,-1,-1,1)/2, (1,-1,1,-1)/2, (1,1,-1,-1)/2.
A_1234 = np.array(
    [
        [1, 1, 1, 1],
        [1, -1, -1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
    ],
    dtype=float,
) / 2.0

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])


class TestChecks:
    def test_orthonormal_rejects_repeated_column(self):
        bad = A_1234.copy()
        bad[:, 1] = bad[:, 0]
        # Columns stay unit length, so only the orthogonality check can catch this.
        assert np.max(np.abs(np.sqrt((bad * bad).sum(axis=0)) - 1.0)) <= 1e-12
        with pytest.raises(NotOrthonormalError):
            linsys.inverse_operator(bad)
        with pytest.raises(NotOrthonormalError):
            linsys.solve(bad, E1)

    def test_gram_matrix_matches_loop_oracle(self):
        a = A_1234.tolist()
        gram = mat_mul([[a[i][j] for i in range(4)] for j in range(4)], a)
        assert max_abs_diff(gram, np.eye(4).tolist()) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            linsys.inverse_operator(np.ones((3, 4)))


class TestInverseOperator:
    def test_is_transpose(self):
        u = linsys.inverse_operator(A_1234)
        assert np.array_equal(u, A_1234.T)

    def test_left_inverse_property(self):
        u = linsys.inverse_operator(A_1234)
        product = mat_mul(u.tolist(), A_1234.tolist())
        assert max_abs_diff(product, np.eye(4).tolist()) <= 1e-15

    def test_involution(self):
        twice = linsys.inverse_operator(linsys.inverse_operator(A_1234))
        assert np.array_equal(twice, A_1234)

    def test_returns_fresh_array(self):
        u = linsys.inverse_operator(A_1234)
        u[0, 0] = 99.0
        assert A_1234[0, 0] == 0.5

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormalError):
            linsys.inverse_operator(np.ones((4, 4)))


class TestSolve:
    def test_catalog_head_system(self):
        x = linsys.solve(A_1234, E1)
        np.testing.assert_allclose(x, [0.5, 0.5, 0.5, 0.5], rtol=0, atol=1e-15)

    def test_second_basis_vector_flips_signs(self):
        x = linsys.solve(A_1234, E2)
        np.testing.assert_allclose(x, [0.5, -0.5, -0.5, 0.5], rtol=0, atol=1e-15)

    def test_identity_matrix(self):
        np.testing.assert_allclose(linsys.solve(np.eye(4), E2), E2, atol=1e-15)

    def test_matches_gaussian_elimination(self):
        x = linsys.solve(A_1234, E1)
        reference = gauss_solve(A_1234.tolist(), E1.tolist())
        np.testing.assert_allclose(x, reference, rtol=0, atol=1e-10)

    def test_gaussian_oracle_across_catalog(self):
        for spec in family.enumerate_family():
            x = linsys.solve(spec.matrix, spec.y)
            reference = gauss_solve(spec.matrix.tolist(), spec.y.tolist())
            np.testing.assert_allclose(x, reference, rtol=0, atol=1e-10)

    def test_solution_stays_normalized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = rng.normal(size=4)
            y /= np.linalg.norm(y)
            x = linsys.solve(A_1234, y)
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
            assert max_abs_diff(mat_vec(A_1234, x), y) <= 1e-10

    def test_random_orthonormal_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            y = rng.normal(size=4)
            y /= np.linalg.norm(y)
            x = linsys.solve(q, y)
            assert max_abs_diff(mat_vec(q, x), y) <= 1e-10

    def test_rejects_unnormalized_rhs(self):
        with pytest.raises(NotNormalizedError):
            linsys.solve(A_1234, [1.0, 1.0, 0.0, 0.0])

    def test_rejects_non_orthonormal_matrix(self):
        with pytest.raises(NotOrthonormalError):
            linsys.solve(np.ones((4, 4)), E1)

    def test_rejects_wrong_length_rhs(self):
        with pytest.raises(DimensionMismatchError):
            linsys.solve(A_1234, [1.0, 0.0, 0.0])


class TestPermutationCovariance:
    @pytest.mark.parametrize("kind", ["A", "B"])
    @pytest.mark.parametrize("rhs", [E1, E2])
    def test_solution_permutes_with_columns(self, kind, rhs):
        base = family.matrix_for(family.FamilyLabel(kind, (1, 2, 3, 4)))
        x_base = linsys.solve(base, rhs)
        for perm in itertools.permutations((1, 2, 3, 4)):
            label = family.FamilyLabel(kind, perm)
            x_perm = linsys.solve(family.matrix_for(label), rhs)
            expected = [x_base[p - 1] for p in perm]
            np.testing.assert_allclose(x_perm, expected, rtol=0, atol=1e-15)


class TestCsvIo:
    def test_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in A_1234) + "\n")
        loaded = linsys.load_matrix(path)
        np.testing.assert_array_equal(loaded, A_1234)

    def test_vector_single_row(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("0,1,0,0\n")
        np.testing.assert_array_equal(linsys.load_vector(path), E2)

    def test_vector_one_entry_per_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("0\n1\n0\n0\n")
        np.testing.assert_array_equal(linsys.load_vector(path), E2)

    def test_vector_rejects_matrix_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1\n")
        with pytest.raises(DimensionMismatchError):
            linsys.load_vector(path)
