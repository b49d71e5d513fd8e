"""Linear systems whose coefficient matrix has orthonormal columns.

For such a matrix the transpose is a left inverse, so A x = y is solved by
x = A^T y with no elimination or factorization.  Solutions inherit the norm
of y, which is what lets them double as quantum state amplitudes elsewhere
in the package.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotNormalizedError,
    NotOrthonormalError,
    ValidationError,
)

DEFAULT_TOL = 1e-10


def _as_matrix(matrix) -> np.ndarray:
    out = np.asarray(matrix, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValidationError("matrix entries must be finite")
    return out


def _as_vector(vector) -> np.ndarray:
    out = np.asarray(vector, dtype=float).reshape(-1)
    if not np.all(np.isfinite(out)):
        raise ValidationError("vector entries must be finite")
    return out


def check_column_normalization(matrix, tol: float = DEFAULT_TOL) -> bool:
    """Return True when every column of `matrix` has unit Euclidean norm."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    a = _as_matrix(matrix)
    norms = np.sqrt((a * a).sum(axis=0))
    return bool(np.max(np.abs(norms - 1.0)) <= tol)


def check_orthonormal_columns(matrix, tol: float = DEFAULT_TOL) -> bool:
    """Return True when A^T A = I entrywise within `tol`."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    a = _as_matrix(matrix)
    gram = a.T @ a
    return bool(np.max(np.abs(gram - np.eye(a.shape[0]))) <= tol)


def inverse_operator(matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return the left inverse of a column-orthonormal matrix, i.e. its transpose.

    The result is a fresh array, so mutating it cannot corrupt the input.
    Applying the operation twice returns the original matrix exactly.
    """
    a = _as_matrix(matrix)
    if not check_orthonormal_columns(a, tol):
        raise NotOrthonormalError("matrix columns are not orthonormal; transpose is not an inverse")
    return a.T.copy()


def solve(matrix, y, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve A x = y for column-orthonormal A and unit-norm y.

    Returns x = A^T y.  Because A preserves inner products, x is again a
    unit vector and the residual A x - y vanishes to rounding error.
    """
    a = _as_matrix(matrix)
    rhs = _as_vector(y)
    if rhs.size != a.shape[0]:
        raise DimensionMismatchError(
            f"right-hand side has length {rhs.size}, matrix is {a.shape[0]}x{a.shape[1]}"
        )
    if not check_orthonormal_columns(a, tol):
        raise NotOrthonormalError("matrix columns are not orthonormal")
    norm = float(np.sqrt(rhs @ rhs))
    if abs(norm - 1.0) > tol:
        raise NotNormalizedError(f"right-hand side has norm {norm}, expected 1")
    return a.T @ rhs


def residual(matrix, x, y) -> float:
    """Max-norm of A x - y; zero means x solves the system exactly."""
    a = _as_matrix(matrix)
    xv = _as_vector(x)
    yv = _as_vector(y)
    if xv.size != a.shape[1] or yv.size != a.shape[0]:
        raise DimensionMismatchError(
            f"matrix is {a.shape[0]}x{a.shape[1]}, got x of length {xv.size} and y of length {yv.size}"
        )
    return float(np.max(np.abs(a @ xv - yv)))


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a CSV file, one row per line."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))


def load_vector(path) -> np.ndarray:
    """Read a vector from a CSV file: a single row, or one entry per line."""
    data = np.loadtxt(path, delimiter=",", dtype=float)
    if data.ndim > 1:
        raise DimensionMismatchError(f"expected a vector, file holds shape {data.shape}")
    return np.atleast_1d(data)
