"""Dense state-vector simulator for small qubit registers.

Conventions, fixed across the package:

* Qubit 0 is the least significant bit: basis index i assigns bit
  (i >> q) & 1 to qubit q.  A gate on qubit 0 therefore acts as
  kron(I, G) on a 2-qubit register, and a gate on qubit 1 as kron(G, I).
* Bitstrings are written most-significant qubit first, so index 2 on two
  qubits reads "10" (qubit 1 set, qubit 0 clear).
* Sampling uses numpy's default PCG64 generator, seeded explicitly; one
  multinomial draw per probability row, row i seeded with seed + i, keeps
  identical (probs, shots, seed) inputs byte-for-byte reproducible.

States are plain complex ndarrays of length 2**n.  Gates also act on a
block of shape (2**n, k), one state per column, exactly as on each column
alone; `unitary_of` runs the identity block through the circuit in one pass.
Circuits are immutable; applying one never mutates its input state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidTargetError,
    NegativeProbabilityError,
    NotNormalizedError,
    ValidationError,
)

_SQRT2 = math.sqrt(2.0)

_GATES_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, (1 + 1j) / _SQRT2]], dtype=complex),
}

GATE_KINDS = frozenset(_GATES_1Q) | {"cx", "cz", "phaseflip"}


@dataclass(frozen=True)
class Gate:
    """A single operation: kind, target qubits, and (for phaseflip) basis indices."""

    kind: str
    targets: tuple[int, ...] = ()
    flips: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise InvalidTargetError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "flips", frozenset(int(i) for i in self.flips))


def h(qubit: int) -> Gate:
    return Gate("h", (qubit,))


def x(qubit: int) -> Gate:
    return Gate("x", (qubit,))


def y(qubit: int) -> Gate:
    return Gate("y", (qubit,))


def z(qubit: int) -> Gate:
    return Gate("z", (qubit,))


def s(qubit: int) -> Gate:
    return Gate("s", (qubit,))


def sdg(qubit: int) -> Gate:
    return Gate("sdg", (qubit,))


def t(qubit: int) -> Gate:
    return Gate("t", (qubit,))


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


def cz(a: int, b: int) -> Gate:
    return Gate("cz", (a, b))


def phase_flip(indices) -> Gate:
    """Diagonal gate that negates the amplitude of each listed basis index."""
    return Gate("phaseflip", (), frozenset(indices))


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError("a circuit needs at least one qubit")
        object.__setattr__(self, "ops", tuple(self.ops))


@dataclass(frozen=True)
class ShotTable:
    """Counts from one sampling run, keyed by bitstring; includes the seed used."""

    shots: int
    seed: int
    counts: dict[str, int]

    @property
    def frequencies(self) -> dict[str, float]:
        return {key: count / self.shots for key, count in self.counts.items()}


def _qubit_count(state: np.ndarray, ndims: tuple[int, ...] = (1,)) -> int:
    if state.ndim not in ndims:
        raise DimensionMismatchError(f"state has {state.ndim} dimensions, expected one of {ndims}")
    length = state.shape[0]
    n = int(length).bit_length() - 1
    if length != 2**n or length < 2:
        raise DimensionMismatchError(f"state length {length} is not a power of two")
    return n


def _check_gate(gate: Gate, n_qubits: int) -> None:
    if gate.kind == "phaseflip":
        if gate.targets:
            raise InvalidTargetError("phaseflip addresses basis indices, not qubits")
        if not all(0 <= i < 2**n_qubits for i in gate.flips):
            raise InvalidTargetError(f"phaseflip index out of range for {n_qubits} qubits")
        return
    expected = 2 if gate.kind in ("cx", "cz") else 1
    if len(gate.targets) != expected:
        raise InvalidTargetError(f"{gate.kind} takes {expected} target(s), got {len(gate.targets)}")
    if len(set(gate.targets)) != len(gate.targets):
        raise InvalidTargetError(f"{gate.kind} targets must be distinct, got {gate.targets}")
    if not all(0 <= q < n_qubits for q in gate.targets):
        raise InvalidTargetError(f"target {gate.targets} out of range for {n_qubits} qubits")


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
        raise ValidationError(f"basis index must be an integer, got {index!r}")
    if not 0 <= index < 2**n_qubits:
        raise ValidationError(f"basis index {index} out of range for {n_qubits} qubits")
    out = np.zeros(2**n_qubits, dtype=complex)
    out[index] = 1.0
    return out


def bitstring(index: int, n_qubits: int) -> str:
    """Render a basis index with the most significant qubit first."""
    return format(index, f"0{n_qubits}b")


def apply_gate(state, gate: Gate) -> np.ndarray:
    """Apply one gate to a (2**n,) state or a (2**n, k) block of state columns.

    Returns the new state or block; the input is left untouched.
    """
    amps = np.asarray(state, dtype=complex)
    n = _qubit_count(amps, ndims=(1, 2))
    _check_gate(gate, n)
    return _apply(amps, gate, n)


def _pair_view(amps: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """A contiguous array viewed as (high, bit max(a, b), middle, bit min(a, b), low[, columns])."""
    hi, lo = (a, b) if a > b else (b, a)
    return amps.reshape((2 ** (n - hi - 1), 2, 2 ** (hi - lo - 1), 2, 2**lo, *amps.shape[1:]))


def _apply(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """One checked gate on a validated complex state or block, as a new array."""
    if gate.kind in _GATES_1Q:
        g = _GATES_1Q[gate.kind]
        q = gate.targets[0]
        # Reshape to (high bits, target bit, low bits[, columns]) and contract
        # the target axis.
        cube = amps.reshape((2 ** (n - q - 1), 2, 2**q) + amps.shape[1:])
        return np.einsum("ab,ibj...->iaj...", g, cube).reshape(amps.shape)

    out = amps.copy()
    if gate.kind == "cx":
        # Where the control bit is set, swap the target-clear and target-set
        # amplitudes: pure moves, so the result is exactly the permuted input.
        control, target = gate.targets
        pairs = _pair_view(out, control, target, n)
        target_clear = (slice(None), 1, slice(None), 0) if control > target else (slice(None), 0, slice(None), 1)
        moved = pairs[target_clear].copy()
        pairs[target_clear] = pairs[:, 1, :, 1]
        pairs[:, 1, :, 1] = moved
    elif gate.kind == "cz":
        _pair_view(out, *gate.targets, n)[:, 1, :, 1] *= -1.0
    elif gate.flips:
        out[sorted(gate.flips)] *= -1.0
    return out


def _apply_circuit(circuit: Circuit, states: np.ndarray) -> np.ndarray:
    n = _qubit_count(states, ndims=(1, 2))
    for gate in circuit.ops:
        _check_gate(gate, n)
        states = _apply(states, gate, n)
    return states


def run(circuit: Circuit, initial_basis_index: int = 0) -> np.ndarray:
    """Run the circuit on a basis state and return the final state vector."""
    return _apply_circuit(circuit, basis_state(circuit.n_qubits, initial_basis_index))


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full matrix of the circuit; column j is exactly run(circuit, j)."""
    return _apply_circuit(circuit, np.eye(2**circuit.n_qubits, dtype=complex))


def probabilities(state) -> np.ndarray:
    amps = np.asarray(state, dtype=complex)
    _qubit_count(amps)
    return np.abs(amps) ** 2


def amplitudes_from_probabilities(probs) -> np.ndarray:
    """Entrywise square root of a probability vector.

    This is the readout a hardware run gives you: magnitudes only.  Any sign
    or phase information in the underlying amplitudes is unrecoverable from
    probabilities alone; recovering signs takes tomography.
    """
    p = np.asarray(probs, dtype=float)
    if np.any(p < 0):
        raise NegativeProbabilityError(f"probabilities must be non-negative, min is {p.min()}")
    return np.sqrt(p)


def sample_counts(probs, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts of `shots` outcomes from a (d,) vector or (k, d) block.

    Row i of a block is drawn from its own generator seeded with seed + i, so
    a block gives exactly the counts of k separate calls with those seeds.
    Each row must be finite, non-negative and sum to 1 within 1e-6; it is
    divided by its own sum before the draw.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim not in (1, 2):
        raise ValidationError(f"expected a probability vector or a block of rows, got shape {p.shape}")
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValidationError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValidationError("shots must be at least 1")
    if not np.isfinite(p).all():
        raise ValidationError("probabilities must be finite")
    lowest = p.min(initial=0.0)
    if lowest < 0:
        raise NegativeProbabilityError(f"probabilities must be non-negative, min is {lowest}")
    rows = p if p.ndim == 2 else p[np.newaxis]
    totals = rows.sum(axis=1).tolist()
    deviation = max((abs(total - 1.0) for total in totals), default=0.0)
    if deviation > 1e-6:
        raise NotNormalizedError(f"probability rows must sum to 1, worst is off by {deviation}")
    counts = np.empty(rows.shape, dtype=np.int64)
    for i, (row, total) in enumerate(zip(rows, totals)):
        counts[i] = np.random.default_rng(seed + i).multinomial(shots, row / total)
    return counts.reshape(p.shape)


def sample_distribution(probs, shots: int, seed: int) -> ShotTable:
    p = np.asarray(probs, dtype=float)
    n = _qubit_count(p)
    counts = sample_counts(p, shots, seed)
    return ShotTable(
        shots=shots,
        seed=seed,
        counts={bitstring(i, n): c for i, c in enumerate(counts.tolist())},
    )


def sample(state, shots: int, seed: int) -> ShotTable:
    """Sample measurement outcomes of `state` in the computational basis."""
    return sample_distribution(probabilities(state), shots, seed)
