"""Exception types shared across the package, and the input rules that raise them.

Everything user-triggerable derives from ValidationError so callers (and the
CLI) can distinguish bad input from a failed circuit search.  Each rule has
one class, and each rule that several modules apply to their inputs is
written once here; every call site passes its own name or message, so each
error keeps its site's wording.
"""

import functools
import math

import numpy as np


class QlinsysError(Exception):
    """Base class for all package errors."""


class ValidationError(QlinsysError, ValueError):
    """An input failed a documented precondition."""


class NotOrthonormalError(ValidationError):
    """Matrix columns are not orthonormal within tolerance: a square matrix is not orthogonal."""


class NotNormalizedError(ValidationError):
    """Vector does not have unit Euclidean norm within tolerance."""


class DimensionMismatchError(ValidationError):
    """Operand shapes are incompatible."""


class InvalidTargetError(ValidationError):
    """Gate targets are out of range, repeated, or wrong in number."""


class InvalidProbabilityError(ValidationError):
    """A probability entry is negative, or a probability parameter lies outside [0, 1]."""


class InvalidCountsError(ValidationError):
    """Search-space size, marked-state count or marked set is out of range."""


class UnsupportedGateError(ValidationError):
    """Circuit contains a gate with no OpenQASM 2.0 counterpart."""


class SynthesisNotFoundError(QlinsysError):
    """No circuit over the synthesis vocabulary realizes the target."""


def shown(value) -> str:
    """How a message echoes a caller's value (a checked integer as an int): its repr, or its type if that fails."""
    try:
        return repr(value)
    except ValueError:  # an int of more than sys.get_int_max_str_digits() digits, or a container of one
        return f"<{type(value).__name__} too long to print>"


def check_int(value, name: str) -> int:
    """Return `value` as an int; raise ValidationError if it is a bool or not an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {shown(value)}")
    return int(value)


def check_real(value, name: str, error: type = ValidationError) -> float:
    """Return `value` as a float; raise `error` if it is a bool, not a real number, or an int no double holds."""
    try:
        if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
            return float(value)
    except OverflowError:  # 10**400, say
        pass
    raise error(f"{name} must be a real number, got {shown(value)}")


def as_doubles(values, message: str, dtype: type = float) -> np.ndarray:
    """`values` as a float64 array, or complex128 if `dtype` is complex; ValidationError(message) for complex values
    in float mode, which it would truncate, and for any dtype but bool, int or float: text, sets, objects, 10**400."""
    try:
        out = np.asarray(values)
        if out.dtype.kind in ("biufc" if dtype is complex else "biuf"):
            return out.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):  # entries of unequal shapes, say
        pass
    raise ValidationError(message)


def check_finite(values: np.ndarray, message: str, error: type = ValidationError) -> None:
    """Raise `error(message)` unless every entry is finite."""
    if not np.isfinite(values).all():
        raise error(message)


def check_vector(values: np.ndarray, name: str) -> np.ndarray:
    """Return `values` if it is one-dimensional; raise DimensionMismatchError for any other shape."""
    if values.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a vector, got shape {values.shape}")
    return values


def check_unit_norm(vector: np.ndarray, name: str) -> None:
    """Raise NotNormalizedError unless the vector is finite with Euclidean norm 1 within 1e-10.

    The norm is a hypot over the entries' magnitudes, which cannot overflow
    and is NaN or infinite exactly when an entry is, so a finite unit vector
    pays for no separate finiteness pass.
    """
    norm = math.hypot(*np.abs(vector).tolist())
    if not abs(norm - 1.0) <= 1e-10:
        check_finite(vector, f"{name} entries must be finite", NotNormalizedError)
        raise NotNormalizedError(f"{name} has norm {norm}, expected 1")


ORTHONORMAL_TOL = 1e-10  # entrywise bound on M^T M - I for a matrix with orthonormal columns


def is_orthonormal(matrix: np.ndarray) -> bool:
    """Whether the real matrix's columns are orthonormal, M^T M = I within 1e-10.  Never with NaN, inf or an entry
    above 2 in magnitude, whose column's norm is above 2: that test comes first, so M^T M cannot overflow."""
    return bool(abs(matrix).max() <= 2.0 and abs(matrix.T @ matrix - np.eye(matrix.shape[1])).max() <= ORTHONORMAL_TOL)


def memo_verdict(check):
    """Memoize a verdict `check(m) -> bool` by m's C-ordered bytes, dtype and shape: the last 512 keys of at
    most 64 entries (8x8, the widest unitary `sim` keeps).  A miss, and a wider m on every call, checks the
    C-ordered copy, so a view gets its copy's verdict.  `cache_info` and `cache_clear` are the cache's."""
    @functools.lru_cache(maxsize=512)
    def cached(data: bytes, dtype: np.dtype, shape: tuple) -> bool:
        return check(np.frombuffer(data, dtype).reshape(shape))

    @functools.wraps(check)
    def verdict(m: np.ndarray) -> bool:
        return (cached if m.size <= 64 else cached.__wrapped__)(m.tobytes(), m.dtype, m.shape)

    verdict.cache_info, verdict.cache_clear = cached.cache_info, cached.cache_clear
    return verdict
