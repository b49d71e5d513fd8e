"""Two-qubit state tomography by Pauli linear inversion.

A 4x4 density matrix is fixed by the expectations of the sixteen two-letter
Pauli words: rho = (1/4) * sum_P <P> P.  An ExpectationTable holds them as one
(16,) array in PAULI_WORDS order, from exact traces or from counts in the nine
{X, Y, Z}^2 settings.  A setting reads four words, each with its letters either
I or the setting's, and the projector onto its outcome k is 1/4 of their sum,
each word signed by the parity it gives k.  So the 36 outcome probabilities are
one fixed (36, 16) table times rho's entries; no measurement circuit is
simulated.  The fixed algebra is computed once at import: the sixteen word
matrices as one stacked basis, the parity sign of every (word, outcome) pair,
and that table.  The nine settings are sampled as one block, its rows drawn in
order from one generator.  Reconstruction is one ordered accumulation: the
sixteen value * matrix products are summed over the stack's first axis from +0
in PAULI_WORDS order, the order and start of a word-by-word loop, so it matches
that loop byte for byte.  It then clips negative eigenvalues and renormalizes,
so the output is always a valid state even for noisy tables.

The physicality that `apply_depolarizing` and `pauli_expectations` require is
memoized per exact complex input by `errors.memo_verdict`, which has room for
the 384 densities of the 192 catalog solutions, clean and depolarized at the
calibrated p.  Shape is checked on every call, and the verdict covers
finiteness, so verdicts and errors are those of an uncached check.

The first letter of a Pauli word refers to qubit 1 (the most significant
bit), matching the bitstring convention in `sim`.

Sampled sign recovery has an envelope, which tests/envelope.py prints.  Of
960 runs (the 192 catalog solutions, seeds 10007 + 5k + j for solution k,
j < 5), these many miss +-sign(x) at 4, 16, 64, 128 and 1024 shots per
setting: 3, 0, 0, 0, 0 at the calibrated p; 27, 0, 0, 0, 0 at p = 0.1; 165, 2,
0, 0, 0 at 0.3; 367, 46, 0, 0, 0 at 0.5; 704, 497, 151, 22, 0 at 0.8.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import (
    DimensionMismatchError,
    InvalidProbabilityError,
    ValidationError,
    as_doubles,
    check_finite,
    check_real,
    check_unit_norm,
    check_vector,
    memo_verdict,
    shown,
)

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: The sixteen measurement words, in lexicographic I < X < Y < Z order.
PAULI_WORDS: tuple[str, ...] = tuple(
    "".join(w) for w in itertools.product("IXYZ", repeat=2)
)

#: The sixteen word matrices kron(P1, P2), stacked in PAULI_WORDS order.
_PAULI_MATRICES = np.stack(
    [np.kron(_PAULI_1Q[word[0]], _PAULI_1Q[word[1]]) for word in PAULI_WORDS]
)

#: The nine sampled measurement settings, the rows of a sampled block in this order.
MEASUREMENT_SETTINGS: tuple[str, ...] = tuple(
    "".join(w) for w in itertools.product("XYZ", repeat=2)
)

_TOL = 1e-8  # bound on a physical state's Hermiticity, trace and eigenvalues
_NOT_PHYSICAL = "input is not a physical density matrix"

#: Depolarizing strength that reproduces the readout fidelity observed when
#: these circuits were run on a 5-qubit superconducting device.
CALIBRATED_DEPOLARIZING_P = 0.016267


@dataclass(frozen=True, eq=False)
class ExpectationTable:
    """Pauli-word expectations, a (16,) real array in PAULI_WORDS order, plus a record of how they were obtained."""

    values: np.ndarray
    mode: str
    shots: int | None = None
    seed: int | None = None


def density_from_state(psi) -> np.ndarray:
    """Outer product |psi><psi| of a normalized state vector."""
    v = check_vector(as_doubles(psi, "state entries must be numbers", complex), "state")
    check_unit_norm(v, "state")
    return v[:, None] * v.conj()  # np.outer's own product


def is_physical(rho) -> bool:
    """Complex doubles, square, non-empty, finite, Hermitian and unit trace within 1e-8, no eigenvalue below -1e-8."""
    try:
        _check_density(rho)
    except ValidationError:
        return False
    return True


@memo_verdict
def _physical(m: np.ndarray) -> bool:
    """Whether the square complex matrix m is finite, Hermitian, of unit trace and PSD within 1e-8."""
    adjoint = m.conj().T
    if not np.isfinite(m).all() or abs(m - adjoint).max() > _TOL:  # finite first: inf - inf warns
        return False
    trace = m.trace()
    if abs(trace.real - 1.0) > _TOL or abs(trace.imag) > _TOL:
        return False
    return bool(np.linalg.eigvalsh((m + adjoint) / 2).min() >= -_TOL)


def _check_density(rho) -> np.ndarray:
    """rho as a complex128 array if `is_physical(rho)`, else ValidationError."""
    m = as_doubles(rho, _NOT_PHYSICAL, complex)
    if m.ndim == 2 and m.shape[0] == m.shape[1] and m.size > 0 and _physical(m):
        return m
    raise ValidationError(_NOT_PHYSICAL)


def apply_depolarizing(rho, p: float) -> np.ndarray:
    """Mix the state with the maximally mixed one: (1 - p) rho + p I/d, for a real p in [0, 1]."""
    # As a float: a float32 or float16 p would round 1 - p in its own precision and break the trace.
    p = check_real(p, "depolarizing strength", InvalidProbabilityError)
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError(f"depolarizing strength must lie in [0, 1], got {p}")
    m = _check_density(rho)
    dim = m.shape[0]
    return (1.0 - p) * m + p * np.eye(dim) / dim


#: For each Pauli word, the setting whose counts estimate it: I is read as Z.
_WORD_SETTING = np.array(
    [MEASUREMENT_SETTINGS.index(word.replace("I", "Z")) for word in PAULI_WORDS]
)

#: _PARITY_SIGNS[w, outcome]: the sign word w gives an outcome of a setting
#: that reads it, -1 for each non-I letter whose qubit reads 1: the diagonal of
#: the word with X and Y replaced by Z.
_PARITY_SIGNS = (
    _PAULI_MATRICES[[PAULI_WORDS.index(w.replace("X", "Z").replace("Y", "Z")) for w in PAULI_WORDS]]
    .diagonal(axis1=1, axis2=2)
    .real.copy()
)

#: _READS[s, w]: whether setting s reads word w, each letter of w I or s's own.
_READS = np.array([[a in "I" + s[0] and b in "I" + s[1] for a, b in PAULI_WORDS] for s in MEASUREMENT_SETTINGS])

#: Row 4s + k holds the transposed projector of setting s's outcome k,
#: 1/4 sum_w sign(w, k) P_w over the words s reads, so that the row times
#: rho.ravel() is Tr(rho Pi).  Every entry is a multiple of 1/4, so exact.
_OUTCOME_TABLE = np.einsum("sw,wk,wji->skij", _READS, _PARITY_SIGNS, _PAULI_MATRICES).reshape(36, 16) / 4.0


def pauli_expectations(rho, mode: str = "analytic", shots: int = 1024, seed: int = 0) -> ExpectationTable:
    """Measure all sixteen Pauli-word expectations of a 4x4 density matrix.

    In "analytic" mode each value is the exact trace of rho * P.  In
    "sampled" mode the nine settings are sampled `shots` times each in one
    block call to the simulator's multinomial sampler, one generator seeded
    with `seed` drawing them in order, and expectations of words containing I
    come from marginals of the matching Z-filled setting.
    """
    m = _check_density(rho)
    if m.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 density matrix, got shape {m.shape}")
    if not isinstance(mode, str) or mode not in ("analytic", "sampled"):
        raise ValidationError(f"mode must be 'analytic' or 'sampled', got {shown(mode)}")

    if mode == "analytic":
        values = (m @ _PAULI_MATRICES).trace(axis1=1, axis2=2).real
        values[0] = 1.0  # II
        return ExpectationTable(values=values, mode="analytic")

    probs = (_OUTCOME_TABLE @ m.ravel()).real.reshape(9, 4).clip(0.0)
    freq = sim.sample_counts(probs, shots, seed) / shots
    values = (_PARITY_SIGNS * freq[_WORD_SETTING]).sum(axis=1)
    values[0] = 1.0  # II
    return ExpectationTable(values=values, mode="sampled", shots=shots, seed=seed)


def _project(m: np.ndarray) -> np.ndarray:
    """Clip the negative eigenvalues of m's Hermitian part to zero and renormalize the trace to 1.

    m is finite, non-empty and square.  The result is a valid state, not in general the nearest
    one; a physical m comes back unchanged up to rounding.
    """
    hermitian = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(hermitian)
    vals = vals.clip(0.0)
    total = float(vals.sum())
    if total <= 0.0:
        return np.eye(m.shape[0], dtype=complex) / m.shape[0]
    return (vecs * (vals / total)) @ vecs.conj().T


def reconstruct(table: ExpectationTable) -> np.ndarray:
    """Linear inversion rho = (1/4) sum <P> P, projected back to a valid state.

    The table's values must be sixteen finite real numbers, in PAULI_WORDS order.
    """
    values = as_doubles(table.values, "expectation values must be real numbers")
    if values.shape != (16,):
        raise ValidationError(f"expectation table must hold 16 values, got shape {values.shape}")
    check_finite(values, "expectation values must be finite")
    linear = np.add.reduce(values[:, None, None] * _PAULI_MATRICES, axis=0, initial=0j)
    return _project(linear / 4.0)


def fidelity(rho, psi) -> float:
    """Overlap <psi| rho |psi> of a state with a pure target.

    psi must have unit norm within 1e-10.  A value within 1e-9 of [0, 1] is
    clipped into it against rounding; one further out, or a rho with a
    non-finite entry, means rho is not a state and raises ValidationError.
    The square-root convention is the CLI's, under --sqrt-fidelity.
    """
    m = as_doubles(rho, "density matrix entries must be numbers", complex)
    v = check_vector(as_doubles(psi, "state entries must be numbers", complex), "state")
    if m.shape != (v.size, v.size):
        raise DimensionMismatchError(f"density matrix {m.shape} does not match state of length {v.size}")
    check_unit_norm(v, "state")
    # A non-finite rho gets a NaN overlap instead of a product that would warn;
    # the check is written so that a NaN overlap fails it.
    value = float(np.real(v.conj() @ m @ v)) if np.isfinite(m).all() else math.nan
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise ValidationError(f"overlap {value} lies outside [0, 1]; rho is not a state")
    return min(max(value, 0.0), 1.0)
