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
object against its width, once.  A run never writes its input.  H is the
unscaled Walsh-Hadamard butterfly (a + b, a - b), and a run's k H gates are
scaled once by sqrt(1/2)**k, which rounds only if k is odd: a real Clifford
circuit, as each catalog circuit is, gives exact states (see
`_apply_circuit`).  `apply_gate` is the one-gate run.  On 3 qubits or fewer
the first `run` or `unitary_of` keeps the unitary (at most 1 KiB) to copy.
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
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}

GATE_KINDS = frozenset(_GATES_1Q) | {"h", "cx", "cz", "phaseflip"}
# The double nearest 1/sqrt(2); 1 / math.sqrt(2) is one ulp below it.
_SQRT_HALF = math.sqrt(0.5)
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
        if self.flips and self.kind != "phaseflip":
            raise InvalidTargetError(f"{self.kind} takes no phase-flip indices")
        expected = {"phaseflip": 0, "cx": 2, "cz": 2}.get(self.kind, 1)
        if len(self.targets) != expected:
            if not expected:
                raise InvalidTargetError("phaseflip addresses basis indices, not qubits")
            raise InvalidTargetError(f"{self.kind} takes {expected} target(s), got {len(self.targets)}")
        if len(set(self.targets)) != expected:
            raise InvalidTargetError(f"{self.kind} targets must be distinct, got {self.targets}")

    @cached_property
    def _flip_index(self) -> np.ndarray:  # the sorted flips that a run negates; outside eq and hash
        return np.array(sorted(self.flips), dtype=np.intp)


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
    """One gate on a (2**n,) state or (2**n, k) block of finite columns, as a new array: the one-gate `run`."""
    amps = np.asarray(state, dtype=complex)
    n = _qubit_count(amps, ndims=(1, 2))
    check_finite(amps, "state entries must be finite")
    circuit = Circuit(n, (gate,))
    peak = float(max(abs(amps.real).max(), abs(amps.imag).max())) if gate.kind == "h" else 0.0
    if not 2.0 * peak < math.inf:  # H adds before it scales
        raise ValidationError(f"H needs state parts of at most half the largest double, largest is {peak}")
    return _apply_circuit(circuit, amps)


def _pair_view(amps: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """A contiguous array viewed as (high, bit max(a, b), middle, bit min(a, b), low[, columns])."""
    hi, lo = (a, b) if a > b else (b, a)
    return amps.reshape((2 ** (n - hi - 1), 2, 2 ** (hi - lo - 1), 2, 2**lo, *amps.shape[1:]))


def _apply(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """One checked gate other than H on a validated complex state or block, as a new array."""
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
    else:
        out[gate._flip_index] *= -1.0
    return out


def _rotate(amps: np.ndarray, d: int, n: int) -> np.ndarray:
    """A copy with the physical bits shifted down by d, cyclically (see `_apply_circuit`)."""
    return amps.reshape((2 ** (n - d), 2**d, *amps.shape[1:])).swapaxes(0, 1).reshape(amps.shape)


def _halves(amps: np.ndarray) -> tuple:
    """`amps` with views of its even and odd rows (adjacent pairs) and of its low and high halves."""
    half = len(amps) // 2
    return amps, amps[0::2], amps[1::2], amps[:half], amps[half:]


def _apply_circuit(circuit: Circuit, states: np.ndarray) -> np.ndarray:
    n = circuit.n_qubits
    # Rotating layout, as in a constant-geometry FFT: logical qubit q sits at
    # physical bit (q - rot) % n.  H on the qubit at bit 0 writes a + b of each
    # adjacent pair to the low half and a - b to the high half, from one owned
    # buffer into the other, moving that qubit to the top bit.  One copy brings
    # any other H's qubit to bit 0, or the canonical layout for other gates.
    # Scaling is part by part: a complex multiply by a real can flip a zero's
    # sign.  Each H grows the norm by sqrt(2); every 1024th scales by 2**-512.
    given, held, spare = states, None, None  # views of the owned buffer holding `states`, and of a free one
    rot = k = 0
    for gate in circuit.ops:
        bit = gate.targets[0] if gate.kind == "h" else 0
        if rot != bit:
            states, rot = _rotate(states, (bit - rot) % n, n), bit
            held, spare = None, held or spare
        if gate.kind == "h":
            source = held or _halves(states)
            target = spare or _halves(np.empty(states.shape, dtype=complex))
            np.add(source[1], source[2], out=target[3])
            np.subtract(source[1], source[2], out=target[4])
            states, held, spare, rot, k = target[0], target, held, (rot + 1) % n, k + 1
            if not k % 1024:
                parts = states.view(np.float64)
                parts *= 2.0**-512
        elif gate.kind == "phaseflip" and states is not given:
            states[gate._flip_index] *= -1.0  # `_apply`'s flip, on an array the loop owns
        else:
            states, held, spare = _apply(states, gate, n), None, held or spare
    if rot:
        states = _rotate(states, n - rot, n)
    m = k % 1024
    if m:
        parts = states.view(np.float64)
        parts *= math.ldexp(_SQRT_HALF if m % 2 else 1.0, -(m // 2))
    return states


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
    with np.errstate(over="ignore"):  # a sum that overflows is inf, which the next test rejects
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
