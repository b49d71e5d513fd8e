import itertools

import numpy as np
import pytest

from qlinsys import family, linsys
from qlinsys.errors import (
    DimensionMismatchError,
    NotNormalizedError,
    NotOrthonormalError,
    ValidationError,
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


def _gram_off_by(deviation):
    """The identity with entry (1, 0) set: A^T A - I is exactly `deviation` at (0, 1) and (1, 0)."""
    a = np.eye(4)
    a[1, 0] = deviation
    return a


def _with_entry(value):
    a = A_1234.copy()
    a[2, 3] = value
    return a


def _strided(a):
    """A view of `a` with a stride of 2 in both axes."""
    wide = np.zeros((2 * a.shape[0], 2 * a.shape[1]))
    wide[::2, ::2] = a
    return wide[::2, ::2]


_TOL_STEPS = {"below": np.nextafter(1e-10, 0.0), "at": 1e-10, "above": np.nextafter(1e-10, 1.0)}

#: Inputs on both sides of every rule the orthonormality verdict meets.
_ADVERSARIAL_MATRICES = {
    **{f"gram_{name}": _gram_off_by(d) for name, d in _TOL_STEPS.items()},
    **{f"gram_{name}_transposed": _gram_off_by(d).T for name, d in _TOL_STEPS.items()},
    "nan": _with_entry(np.nan),
    "inf": _with_entry(np.inf),
    "-inf": _with_entry(-np.inf),
    "huge": np.full((4, 4), 1e200),
    "plus_zero": np.eye(4),
    "minus_zero": np.where(np.eye(4) == 1.0, 1.0, -0.0),
    "minus_identity": -np.eye(4),  # every zero is -0.0
    "a1234_transposed": A_1234.T,
    "a1234_strided": _strided(A_1234),
    "repeated_column_strided": _strided(np.repeat(A_1234[:, :1], 4, axis=1)),
}

_VERDICT_CALLS = {
    "inverse_operator": linsys.inverse_operator,
    "solve": lambda a: linsys.solve(a, E1),
}


def _outcome(call, a):
    """The result's dtype and bytes, or the error's class and message."""
    try:
        result = call(a)
    except ValidationError as exc:
        return type(exc), str(exc)
    return result.dtype, result.tobytes()


class TestVerdictMemo:
    """A cached orthonormality verdict gives what a fresh check gives, and the memo stays bounded."""

    @pytest.mark.parametrize("call", _VERDICT_CALLS)
    @pytest.mark.parametrize("name", _ADVERSARIAL_MATRICES)
    def test_repeat_and_cleared_calls_match_the_first(self, name, call):
        call, a = _VERDICT_CALLS[call], _ADVERSARIAL_MATRICES[name]
        linsys._orthonormal.cache_clear()
        first = _outcome(call, a)
        again = _outcome(call, a)
        linsys._orthonormal.cache_clear()
        assert first == again == _outcome(call, a)

    @pytest.mark.parametrize("call", _VERDICT_CALLS)
    @pytest.mark.parametrize("name", [name for name in _ADVERSARIAL_MATRICES if "transposed" in name or "strided" in name])
    def test_a_view_gets_its_c_ordered_copys_verdict(self, name, call):
        call, view = _VERDICT_CALLS[call], _ADVERSARIAL_MATRICES[name]
        assert not view.flags.c_contiguous
        linsys._orthonormal.cache_clear()
        of_view = _outcome(call, view)
        linsys._orthonormal.cache_clear()
        assert of_view == _outcome(call, np.ascontiguousarray(view))

    def test_the_tolerance_holds_on_each_side_of_one_ulp(self):
        for name, expected in [("below", True), ("at", True), ("above", False)]:
            for a in (_gram_off_by(_TOL_STEPS[name]), _gram_off_by(_TOL_STEPS[name]).T):
                for _ in range(2):
                    outcome = _outcome(linsys.inverse_operator, a)
                    assert (outcome[0] is not NotOrthonormalError) == expected, name

    def test_a_non_finite_matrix_says_so_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValidationError, match="^matrix entries must be finite$"):
                linsys.inverse_operator(_with_entry(np.nan))

    @pytest.mark.parametrize("call", _VERDICT_CALLS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_cached_false_verdict_still_says_not_finite(self, value, call):
        """The verdict covers finiteness: a cached False one still raises the finiteness error."""
        linsys._orthonormal.cache_clear()
        for _ in range(3):
            with pytest.raises(ValidationError, match="^matrix entries must be finite$") as raised:
                _VERDICT_CALLS[call](_with_entry(value))
            assert type(raised.value) is ValidationError
        assert linsys._orthonormal.cache_info()[:2] == (2, 1)  # hits, misses

    @pytest.mark.parametrize("rhs", ["abc", [1j, 0, 0, 0], [[1.0]], [np.nan, 0, 0, 0], [1.0, 0.0], [2.0, 0, 0, 0]])
    def test_a_non_finite_matrix_is_refused_before_a_bad_right_hand_side(self, rhs):
        linsys._orthonormal.cache_clear()
        for _ in range(2):
            with pytest.raises(ValidationError, match="^matrix entries must be finite$"):
                linsys.solve(_with_entry(np.nan), rhs)

    def test_catalog_matrices_take_the_memo(self, monkeypatch):
        specs = family.enumerate_family()
        for spec in specs:
            linsys.inverse_operator(spec.matrix)

        def fail(*args):
            raise AssertionError("a catalog matrix's orthonormality was checked again")

        monkeypatch.setattr(linsys, "is_orthonormal", fail)
        for spec in specs:
            assert np.array_equal(linsys.inverse_operator(spec.matrix), spec.matrix.T)
            for b in range(4):
                rhs = np.eye(4)[b]
                assert np.array_equal(linsys.solve(spec.matrix, rhs), spec.matrix.T @ rhs)

    def test_a_matrix_wider_than_64_entries_is_checked_on_every_call(self, monkeypatch):
        calls, check = [], linsys.is_orthonormal

        def counted(matrix):
            calls.append(matrix.shape)
            return check(matrix)

        monkeypatch.setattr(linsys, "is_orthonormal", counted)
        before = linsys._orthonormal.cache_info()
        for _ in range(3):
            assert np.array_equal(linsys.inverse_operator(np.eye(16)), np.eye(16))
        assert calls == [(16, 16)] * 3
        assert linsys._orthonormal.cache_info() == before

    def test_eight_by_eight_is_cached_and_nine_by_nine_is_not(self):
        linsys._orthonormal.cache_clear()
        for n in (8, 9):
            for _ in range(2):
                linsys.inverse_operator(np.eye(n))
            assert linsys._orthonormal.cache_info().currsize == 1

    def test_the_memo_holds_at_most_512_verdicts(self):
        linsys._orthonormal.cache_clear()
        for k in range(2000):
            c, s = np.cos(k / 1000), np.sin(k / 1000)
            linsys.inverse_operator([[c, -s], [s, c]])
            assert linsys._orthonormal.cache_info().currsize <= 512
        assert linsys._orthonormal.cache_info().currsize == 512
