"""Linear systems whose coefficient matrix has orthonormal columns.

For such a matrix the transpose is a left inverse, so A x = y is solved by
x = A^T y with no elimination or factorization.  Solutions inherit the norm
of y, which is what lets them double as quantum state amplitudes elsewhere
in the package.  Orthonormality and unit norm are checked to a fixed 1e-10.
Complex input is refused, never truncated.  The orthonormality verdict is
memoized per exact input by `errors.memo_verdict`, which has room for the 48
catalog matrices.  Shape is checked on every call, and the verdict covers
finiteness, so results and errors are those of an uncached check.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotOrthonormalError,
    ValidationError,
    as_doubles,
    check_finite,
    check_unit_norm,
    check_vector,
    is_orthonormal,
    memo_verdict,
)


@memo_verdict
def _orthonormal(a: np.ndarray) -> bool:
    """`is_orthonormal`, memoized per exact input."""
    return is_orthonormal(a)


def _as_matrix(matrix) -> tuple[np.ndarray, bool]:
    """The matrix as floats, real, square, non-empty and finite, and whether its columns are orthonormal."""
    out = as_doubles(matrix, "matrix entries must be real")
    if out.ndim != 2 or out.shape[0] != out.shape[1] or not out.size:
        raise DimensionMismatchError(f"expected a non-empty square matrix, got shape {out.shape}")
    orthonormal = _orthonormal(out)
    if not orthonormal:  # a True verdict is only given to a finite matrix
        check_finite(out, "matrix entries must be finite")
    return out, orthonormal


def inverse_operator(matrix) -> np.ndarray:
    """Return the left inverse of a column-orthonormal matrix, i.e. its transpose.

    The result is a fresh array, so mutating it cannot corrupt the input.
    Applying the operation twice returns the original matrix exactly.
    """
    a, orthonormal = _as_matrix(matrix)
    if not orthonormal:
        raise NotOrthonormalError("matrix columns are not orthonormal; transpose is not an inverse")
    return a.T.copy()


def solve(matrix, y) -> np.ndarray:
    """Solve A x = y for column-orthonormal A and unit-norm y.

    A^T A must equal I and |y| must equal 1, each within 1e-10.  Returns
    x = A^T y.  Because A preserves inner products, x is again a unit vector
    and the residual A x - y vanishes to rounding error.
    """
    a, orthonormal = _as_matrix(matrix)
    rhs = check_vector(as_doubles(y, "vector entries must be real"), "right-hand side")
    try:  # only a y that fails a test pays for the finiteness pass, whose error comes before every other
        if rhs.size != a.shape[0]:
            raise DimensionMismatchError(f"right-hand side has length {rhs.size}, matrix is {a.shape[0]}x{a.shape[1]}")
        if not orthonormal:
            raise NotOrthonormalError("matrix columns are not orthonormal")
        check_unit_norm(rhs, "right-hand side")
        return a.T @ rhs
    except ValidationError as refusal:
        failed = refusal  # raised below, after the finiteness pass, so that neither error chains the other
    check_finite(rhs, "vector entries must be finite")
    raise failed


def _load_csv(path) -> np.ndarray:
    """The numbers in a CSV file; ValidationError, naming the file, if it holds none or a row is not numbers."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # numpy only warns on a file with no data
        try:
            return np.loadtxt(path, delimiter=",", dtype=float)
        except UserWarning:
            raise ValidationError(f"{path} holds no numbers") from None
        except ValueError as exc:
            raise ValidationError(f"{path} is not a CSV of numbers: {exc}") from None


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a CSV file, one row per line."""
    return np.atleast_2d(_load_csv(path))


def load_vector(path) -> np.ndarray:
    """Read a vector from a CSV file: a single row, or one entry per line."""
    data = _load_csv(path)
    if data.ndim > 1:
        raise DimensionMismatchError(f"expected a vector, file holds shape {data.shape}")
    return np.atleast_1d(data)
