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

The gate kinds are H, X, Z, S-dagger, CX, CZ, and a phase flip on listed
basis indices.  States are complex ndarrays of length 2**n, and a gate acts
on a (2**n, k) block one column at a time.  Gates and circuits are immutable
and checked when built: a gate its shape, a circuit each distinct gate
object against its width, once.  A run never writes its input.  Every output
has the bits of a gate-by-gate `apply_gate` fold, where H, X, Z and S-dagger
contract the target axis with einsum.  One loop keeps those bits, on a
bit-rotating layout as a constant-geometry FFT uses: H on the qubit at bit 0
writes the sums of adjacent pairs to the low half and their differences to
the high half, so each operand is 1-D; an ascending H layer rotates the
qubits back (see `_apply_circuit`).  On 3 qubits or fewer the first `run` or
`unitary_of` keeps the circuit's unitary, read-only (at most 1 KiB), and
later calls copy from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidTargetError,
    NegativeProbabilityError,
    NotNormalizedError,
    ValidationError,
    check_finite,
    check_int,
    check_vector,
)

_GATES_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}

GATE_KINDS = frozenset(_GATES_1Q) | {"cx", "cz", "phaseflip"}
_H_SCALE = _GATES_1Q["h"][0, 0]  # complex128 scalars: a Python float costs a conversion per call
_ZERO = np.complex128(0.0)
# The widest circuit that keeps its unitary (see `run`): 8x8 complex, 1 KiB.
_UNITARY_MAX_QUBITS = 3


@dataclass(frozen=True)
class Gate:
    """A single operation: kind, target qubits, and (for phaseflip) basis indices."""

    kind: str
    targets: tuple[int, ...] = ()
    flips: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise InvalidTargetError(f"unknown gate kind {self.kind!r}")
        if not (np.iterable(self.targets) and np.iterable(self.flips)):
            raise InvalidTargetError(f"{self.kind} targets and flips must be sequences of integers")
        object.__setattr__(self, "targets", tuple(check_int(q, "gate target") for q in self.targets))
        object.__setattr__(self, "flips", frozenset(check_int(i, "phase-flip index") for i in self.flips))
        expected = {"phaseflip": 0, "cx": 2, "cz": 2}.get(self.kind, 1)
        if len(self.targets) != expected:
            if not expected:
                raise InvalidTargetError("phaseflip addresses basis indices, not qubits")
            raise InvalidTargetError(f"{self.kind} takes {expected} target(s), got {len(self.targets)}")
        if len(set(self.targets)) != expected:
            raise InvalidTargetError(f"{self.kind} targets must be distinct, got {self.targets}")


def h(qubit: int) -> Gate:
    return Gate("h", (qubit,))


def x(qubit: int) -> Gate:
    return Gate("x", (qubit,))


def z(qubit: int) -> Gate:
    return Gate("z", (qubit,))


def sdg(qubit: int) -> Gate:
    return Gate("sdg", (qubit,))


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


def cz(a: int, b: int) -> Gate:
    return Gate("cz", (a, b))


def phase_flip(indices) -> Gate:
    """Diagonal gate that negates the amplitude of each listed basis index."""
    return Gate("phaseflip", (), indices)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[Gate, ...] = ()

    def __post_init__(self):
        if check_int(self.n_qubits, "n_qubits") < 1:
            raise ValidationError("a circuit needs at least one qubit")
        object.__setattr__(self, "ops", tuple(self.ops))
        # A frozen Gate repeated checks the same; first-occurrence order keeps the first invalid op raising.
        for gate in {id(gate): gate for gate in self.ops}.values():
            _check_gate(gate, self.n_qubits)

    @cached_property
    def _unitary(self) -> np.ndarray:
        """The read-only matrix that small-circuit runs copy from; kept in __dict__, outside eq and hash."""
        u = _apply_circuit(self, np.eye(2**self.n_qubits, dtype=complex))
        u.flags.writeable = False
        return u


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
    if not isinstance(gate, Gate):
        raise InvalidTargetError(f"expected a Gate, got {gate!r}")
    if gate.kind == "phaseflip":
        if not all(0 <= i < 2**n_qubits for i in gate.flips):
            raise InvalidTargetError(f"phaseflip index out of range for {n_qubits} qubits")
    elif not all(0 <= q < n_qubits for q in gate.targets):
        raise InvalidTargetError(f"target {gate.targets} out of range for {n_qubits} qubits")


def _check_basis_index(n_qubits: int, index: int) -> int:
    if not 0 <= check_int(index, "basis index") < 2**n_qubits:
        raise ValidationError(f"basis index {index} out of range for {n_qubits} qubits")
    return int(index)


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    out = np.zeros(2**n_qubits, dtype=complex)
    out[_check_basis_index(n_qubits, index)] = 1.0
    return out


def bitstring(index: int, n_qubits: int) -> str:
    """Render a basis index with the most significant qubit first."""
    return format(index, f"0{n_qubits}b")


def apply_gate(state, gate: Gate) -> np.ndarray:
    """Apply one gate to a (2**n,) state or a (2**n, k) block of state columns.

    Returns the new state or block; the input is left untouched.  Every entry
    must be finite.
    """
    amps = np.asarray(state, dtype=complex)
    n = _qubit_count(amps, ndims=(1, 2))
    check_finite(amps, "state entries must be finite")
    _check_gate(gate, n)
    return _apply(amps, gate, n)


def _pair_view(amps: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """A contiguous array viewed as (high, bit max(a, b), middle, bit min(a, b), low[, columns])."""
    hi, lo = (a, b) if a > b else (b, a)
    return amps.reshape((2 ** (n - hi - 1), 2, 2 ** (hi - lo - 1), 2, 2**lo, *amps.shape[1:]))


def _apply(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """One checked gate on a validated complex state or block, as a new array."""
    if gate.kind in _GATES_1Q:
        # Reshape to (high bits, target bit, low bits[, columns]) and contract
        # the target axis.
        q = gate.targets[0]
        shape = (2 ** (n - q - 1), 2, 2**q) + amps.shape[1:]
        return np.einsum("ab,ibj...->iaj...", _GATES_1Q[gate.kind], amps.reshape(shape)).reshape(amps.shape)

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


def _unrotate(amps: np.ndarray, rot: int, n: int) -> np.ndarray:
    """A copy of a rotated-layout array in the canonical layout (see `_apply_circuit`)."""
    return amps.reshape((2**rot, 2 ** (n - rot), *amps.shape[1:])).swapaxes(0, 1).reshape(amps.shape)


def _apply_circuit(circuit: Circuit, states: np.ndarray) -> np.ndarray:
    n = circuit.n_qubits
    # Rotating layout: logical qubit q sits at physical bit (q - rot) % n.  H on
    # bit 0 is a butterfly on adjacent pairs, which moves that qubit to the top
    # bit.  It has einsum's bits: einsum forms (0 + g0*x0) + g1*x1, so adding +0
    # turns a -0 product into +0 as that zero start does, and x + (-y) is x - y.
    half = states.shape[0] // 2
    scaled = np.empty(states.shape, dtype=complex)
    out = np.empty(states.shape, dtype=complex)
    pairs = scaled.reshape((half, 2, *states.shape[1:]))
    even, odd, low, high = pairs[:, 0], pairs[:, 1], out[:half], out[half:]
    rot, after_h = 0, False
    for gate in circuit.ops:
        if gate.kind == "h" and gate.targets[0] == rot:
            np.multiply(states, _H_SCALE, out=scaled)
            # An H output holds no -0 (a sum or difference of parts that are not -0 is not -0),
            # nor does its scaled copy, so only the first H of a run needs the +0.
            if not after_h:
                scaled += _ZERO
            np.add(even, odd, out=low)
            np.subtract(even, odd, out=high)
            states, rot, after_h = out, (rot + 1) % n, True
            continue
        if rot:
            states, rot = _unrotate(states, rot, n), 0
        after_h = False
        if gate.kind == "phaseflip" and states is out:
            out[sorted(gate.flips)] *= -1.0  # `_apply`'s flip, on the loop's own buffer
        else:
            states = _apply(states, gate, n)
    return _unrotate(states, rot, n) if rot else states


def run(circuit: Circuit, initial_basis_index: int = 0) -> np.ndarray:
    """Run the circuit on a basis state and return the final state vector, a fresh array.

    On 3 qubits or fewer this is a copy of one column of the circuit's kept
    unitary, computed on its first run; wider circuits run gate by gate.
    """
    n = circuit.n_qubits
    if n <= _UNITARY_MAX_QUBITS:
        return circuit._unitary[:, _check_basis_index(n, initial_basis_index)].copy()
    return _apply_circuit(circuit, basis_state(n, initial_basis_index))


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full matrix of the circuit, a fresh array; column j is exactly run(circuit, j).

    On 3 qubits or fewer this is a copy of the circuit's kept unitary.
    """
    if circuit.n_qubits <= _UNITARY_MAX_QUBITS:
        return circuit._unitary.copy()
    return _apply_circuit(circuit, np.eye(2**circuit.n_qubits, dtype=complex))


def probabilities(state) -> np.ndarray:
    """Squared magnitudes of a finite state whose squares do not overflow."""
    amps = np.asarray(state, dtype=complex)
    _qubit_count(amps)
    magnitudes = abs(amps)
    peak = float(magnitudes.max())  # its square is finite exactly when every entry and square is
    if not peak * peak < math.inf:
        check_finite(amps, "state entries must be finite")
        raise ValidationError(f"state magnitudes must have finite squares, largest is {peak}")
    return magnitudes**2


def amplitudes_from_probabilities(probs) -> np.ndarray:
    """Entrywise square root of a probability vector.

    This is the readout a hardware run gives you: magnitudes only.  Any sign
    or phase information in the underlying amplitudes is unrecoverable from
    probabilities alone; recovering signs takes tomography.
    """
    p = check_vector(np.asarray(probs, dtype=float), "probabilities")
    check_finite(p, "probabilities must be finite")
    if np.any(p < 0):
        raise NegativeProbabilityError(f"probabilities must be non-negative, min is {p.min()}")
    return np.sqrt(p)


def sample_counts(probs, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts of `shots` outcomes from a (d,) vector or (k, d) block.

    Row i of a block is drawn from its own generator seeded with seed + i, so
    a block gives exactly the counts of k separate calls with those seeds.
    Rules, in the order checked: the shape; shots, an integer of at least 1;
    the seed, a non-negative integer; entries finite, then non-negative; each
    row sums to 1 within 1e-6.  Each row is divided by its sum for the draw.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim not in (1, 2):
        raise ValidationError(f"expected a probability vector or a block of rows, got shape {p.shape}")
    if check_int(shots, "shots") < 1:
        raise ValidationError("shots must be at least 1")
    if check_int(seed, "seed") < 0:
        raise ValidationError("seed must be non-negative")
    # Rows that pass both tests are finite, so only a failing input pays for the
    # finiteness pass.  The sum waits for the minimum, as inf + -inf warns.
    lowest = p.min(initial=0.0)
    if not lowest >= 0:
        check_finite(p, "probabilities must be finite")
        raise NegativeProbabilityError(f"probabilities must be non-negative, min is {lowest}")
    sums = p.sum(axis=-1, keepdims=True)
    deviation = max((abs(total - 1.0) for total in sums.ravel().tolist()), default=0.0)
    if not deviation <= 1e-6:
        check_finite(p, "probabilities must be finite")
        raise NotNormalizedError(f"probability rows must sum to 1, worst is off by {deviation}")
    if p.ndim == 1:
        return np.random.default_rng(seed).multinomial(shots, p / sums)
    draws = [np.random.default_rng(seed + i).multinomial(shots, row) for i, row in enumerate(p / sums)]
    return np.array(draws, dtype=np.int64).reshape(p.shape)


@lru_cache(maxsize=1)
def _bitstrings(n_qubits: int) -> tuple[str, ...]:
    """`bitstring` of every basis index, for the width sampled last."""
    return tuple(bitstring(i, n_qubits) for i in range(2**n_qubits))


def sample_distribution(probs, shots: int, seed: int) -> ShotTable:
    p = np.asarray(probs, dtype=float)
    n = _qubit_count(p)
    return ShotTable(shots, seed, dict(zip(_bitstrings(n), sample_counts(p, shots, seed).tolist())))
