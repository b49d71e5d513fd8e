"""Dense state-vector simulator for small qubit registers.

Conventions, fixed across the package:

* Qubit 0 is the least significant bit: basis index i assigns bit
  (i >> q) & 1 to qubit q.  A gate on qubit 0 therefore acts as
  kron(I, G) on a 2-qubit register, and a gate on qubit 1 as kron(G, I).
* Bitstrings are written most-significant qubit first, so index 2 on two
  qubits reads "10" (qubit 1 set, qubit 0 clear).
* Sampling uses numpy's default PCG64 generator, one per call, seeded
  explicitly; a block's rows are drawn in order from it, so identical
  (probs, shots, seed) inputs are byte-for-byte reproducible.

The six gate kinds are H, X, Z, CX, CZ, and a phase flip on listed basis
indices, all real.  States are float64 ndarrays of length 2**n, n from 1 to
MAX_QUBITS, and a gate acts on all columns of a (2**n, k) block at once.
Gates and circuits are immutable and checked when built: a gate its shape, a
circuit its width and each distinct gate object against it, once.  A run never
writes its input.  H is the unscaled Walsh-Hadamard butterfly (a + b, a - b),
and a run's k H gates are scaled once by sqrt(1/2)**k, which rounds only if k
is odd: a real Clifford circuit, as each catalog circuit is, gives exact states
(see `_apply_circuit`).  `apply_gate` is the one-gate run.  On 3 qubits or
fewer the first `run` or `unitary_of` keeps the unitary (8x8 float64 at most,
512 B) to copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidProbabilityError,
    InvalidTargetError,
    NotNormalizedError,
    ValidationError,
    as_doubles,
    check_finite,
    check_int,
    shown,
)

GATE_KINDS = frozenset({"h", "x", "z", "cx", "cz", "phaseflip"})
MAX_QUBITS = 10  # the widest register, whose state is 2**10 float64 entries, 8 KiB
# The double nearest 1/sqrt(2); 1 / math.sqrt(2) is one ulp below it.
_SQRT_HALF = math.sqrt(0.5)
# The widest circuit that keeps its unitary (see `run`): 8x8 float64, 512 B.
_UNITARY_MAX_QUBITS = 3


@dataclass(frozen=True)
class Gate:
    """A single operation: kind, target qubits, and (for phaseflip) basis indices."""

    kind: str
    targets: tuple[int, ...] = ()
    flips: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in GATE_KINDS:
            raise InvalidTargetError(f"unknown gate kind {shown(self.kind)}")
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
            raise InvalidTargetError(f"{self.kind} targets must be distinct, got {shown(self.targets)}")

    @cached_property
    def _flip_index(self) -> int | np.ndarray:  # what a run negates, one index or the sorted flips; outside eq and hash
        return next(iter(self.flips)) if len(self.flips) == 1 else np.array(sorted(self.flips), dtype=np.intp)


def h(qubit: int) -> Gate:
    return Gate("h", (qubit,))


def x(qubit: int) -> Gate:
    return Gate("x", (qubit,))


def z(qubit: int) -> Gate:
    return Gate("z", (qubit,))


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
        _check_width(self.n_qubits)
        if not np.iterable(self.ops):
            raise InvalidTargetError(f"circuit ops must be a sequence of gates, got {shown(self.ops)}")
        object.__setattr__(self, "ops", tuple(self.ops))
        # A frozen Gate repeated checks the same; first-occurrence order keeps the first invalid op raising.
        for gate in {id(gate): gate for gate in self.ops}.values():
            _check_gate(gate, self.n_qubits)

    @cached_property
    def _unitary(self) -> np.ndarray:
        """The read-only matrix that small-circuit runs copy from; kept in __dict__, outside eq and hash."""
        u = _apply_circuit(self, np.eye(2**self.n_qubits))
        u.flags.writeable = False
        return u


@dataclass(slots=True)
class ShotTable:
    """Counts from one sampling run, keyed by bitstring, and its seed; a row of a block draw has the block's seed."""

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
        raise InvalidTargetError(f"expected a Gate, got {shown(gate)}")
    if gate.kind == "phaseflip":
        if not all(0 <= i < 2**n_qubits for i in gate.flips):
            raise InvalidTargetError(f"phaseflip index out of range for {n_qubits} qubits")
    elif not all(0 <= q < n_qubits for q in gate.targets):
        raise InvalidTargetError(f"target {shown(gate.targets)} out of range for {n_qubits} qubits")


def _check_width(n_qubits: int) -> int:
    """n_qubits as an int from 1 to MAX_QUBITS, checked before any 2**n_qubits is formed."""
    if check_int(n_qubits, "n_qubits") < 1:
        raise ValidationError("a circuit needs at least one qubit")
    if n_qubits > MAX_QUBITS:
        raise ValidationError(f"n_qubits must be at most {MAX_QUBITS}, got {shown(int(n_qubits))}")
    return int(n_qubits)


def _check_basis_index(n_qubits: int, index: int) -> int:
    if not 0 <= check_int(index, "basis index") < 2**n_qubits:
        raise ValidationError(f"basis index {shown(int(index))} out of range for {n_qubits} qubits")
    return int(index)


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    out = np.zeros(2 ** _check_width(n_qubits))
    out[_check_basis_index(n_qubits, index)] = 1.0
    return out


def bitstring(index: int, n_qubits: int) -> str:
    """Render a basis index with the most significant qubit first."""
    return format(_check_basis_index(_check_width(n_qubits), index), f"0{n_qubits}b")


def apply_gate(state, gate: Gate) -> np.ndarray:
    """One gate on a (2**n,) state or (2**n, k) block of real finite columns, as a new array: the one-gate `run`."""
    amps = as_doubles(state, "state entries must be real")
    n = _qubit_count(amps, ndims=(1, 2))
    check_finite(amps, "state entries must be finite")
    circuit = Circuit(n, (gate,))
    peak = float(abs(amps).max()) if gate.kind == "h" else 0.0
    if not 2.0 * peak < math.inf:  # H adds before it scales
        raise ValidationError(f"H needs state entries of at most half the largest double, largest is {peak}")
    return _apply_circuit(circuit, amps)


def _bit_view(amps: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """A contiguous array viewed with one length-2 leading axis per listed qubit, in order, then the other bits."""
    high_first = sorted(qubits, reverse=True)
    shape, top = [], n
    for q in high_first:
        shape += [2 ** (top - q - 1), 2]
        top = q
    view = amps.reshape((*shape, 2**top, *amps.shape[1:]))
    lead = [2 * high_first.index(q) + 1 for q in qubits]
    return view.transpose(lead + [axis for axis in range(view.ndim) if axis not in lead])


def _apply(amps: np.ndarray, gate: Gate, n: int) -> None:
    """One checked gate other than H, in place on a contiguous state or block that the run owns."""
    if gate.kind == "phaseflip":  # one index negates an entry, or a block's row, through a scalar index
        amps[gate._flip_index] *= -1.0
        return
    # Where CX's control or CZ's first qubit is set, X and CX swap the last
    # target's clear and set halves and Z and CZ negate its set half: moves and
    # exact negations, so X X and Z Z give back the input bit for bit.
    pair = _bit_view(amps, gate.targets, n)[(1,) * (len(gate.targets) - 1)]
    if gate.kind in ("z", "cz"):
        pair[1] *= -1.0
    else:
        pair[...] = pair[::-1].copy()


def _rotate(amps: np.ndarray, out: np.ndarray, d: int, n: int) -> None:
    """Write `amps` into `out` with the physical bits shifted down by d, cyclically (see `_apply_circuit`)."""
    rest = amps.shape[1:]
    out.reshape((2**d, 2 ** (n - d), *rest))[...] = amps.reshape((2 ** (n - d), 2**d, *rest)).swapaxes(0, 1)


def _apply_circuit(circuit: Circuit, states: np.ndarray) -> np.ndarray:
    n = circuit.n_qubits
    # Rotating layout, as in a constant-geometry FFT: logical qubit q sits at
    # physical bit (q - rot) % n, and buffer p of the run's two holds the state.
    # H on the qubit at bit 0 is two ufunc calls on views built once per run,
    # butterflies[p]: a + b of each adjacent pair into the other buffer's low
    # half and a - b into its high half, which moves that qubit to the top bit.
    # One copy into the other buffer brings any other H's qubit to bit 0, or the
    # canonical layout for the other gates, which act in place.  Each H grows
    # the norm by sqrt(2); every 1024th scales by 2**-512.
    buffers, half = (states.copy(), np.empty(states.shape)), len(states) // 2
    butterflies = tuple((a[0::2], a[1::2], b[:half], b[half:]) for a, b in (buffers, buffers[::-1]))
    add, subtract = np.add, np.subtract  # local names spare each H two attribute lookups
    p = rot = k = 0
    for gate in circuit.ops:
        if gate.kind != "h" or gate.targets[0] != rot:
            bit = gate.targets[0] if gate.kind == "h" else 0
            if rot != bit:
                _rotate(buffers[p], buffers[1 - p], (bit - rot) % n, n)
                p, rot = 1 - p, bit
            if gate.kind != "h":
                _apply(buffers[p], gate, n)
                continue
        even, odd, low, high = butterflies[p]
        add(even, odd, low)
        subtract(even, odd, high)
        p, rot, k = 1 - p, rot + 1 if rot + 1 < n else 0, k + 1
        if not k % 1024:
            np.multiply(buffers[p], 2.0**-512, out=buffers[p])
    if rot:
        _rotate(buffers[p], buffers[1 - p], n - rot, n)
        p = 1 - p
    states, m = buffers[p], k % 1024
    if m:
        states *= math.ldexp(_SQRT_HALF if m % 2 else 1.0, -(m // 2))
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
    return _apply_circuit(circuit, np.eye(2**circuit.n_qubits))


def probabilities(state) -> np.ndarray:
    """Squared magnitudes of a finite state whose squares do not overflow."""
    real = type(state) is np.ndarray and state.dtype == np.float64  # |x| is |x + 0j| bit for bit: no complex copy
    amps = state if real else as_doubles(state, "state entries must be numbers", complex)
    _qubit_count(amps)
    magnitudes = abs(amps)
    peak = float(np.maximum.reduce(magnitudes))  # its square is finite exactly when every entry and square is
    if not peak * peak < math.inf:
        check_finite(amps, "state entries must be finite")
        raise ValidationError(f"state magnitudes must have finite squares, largest is {peak}")
    return np.multiply(magnitudes, magnitudes, magnitudes)  # squared in place, the bits of magnitudes**2


def sample_counts(probs, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts of `shots` outcomes from a (d,) vector or (k, d) block.

    One generator per call, default_rng(seed); a block's rows are drawn in
    order from it.  Rules, in the order checked: a real dtype; the shape, a
    vector or a block of rows of at least one entry; shots, an integer from 1
    to 2**63 - 1; the seed, a non-negative integer; entries finite, then
    non-negative; each row sums to 1 within 1e-6.  Each row is divided by its
    sum for the draw, which is `draw_rows`.
    """
    return _draw(as_doubles(probs, "probabilities must be real"), shots, seed)


def draw_rows(p: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """`sample_counts` of probabilities that its rules on entries need not check again.

    Precondition: p is a float64 vector or block of rows, at least one entry
    each, whose entries are finite and non-negative and whose rows each sum to
    1 within 1e-6, as a caller that built p from a checked input can know.
    Shots and seed are checked by `sample_counts`' rules, in its order.
    """
    _check_shots_and_seed(shots, seed)
    return _multinomial(p, np.add.reduce(p, -1, keepdims=True), shots, seed)


def _check_shots_and_seed(shots: int, seed: int) -> None:
    if check_int(shots, "shots") < 1:
        raise ValidationError("shots must be at least 1")
    if shots >= 2**63:  # the draw takes a C long
        raise ValidationError(f"shots must be below 2**63, got {shown(int(shots))}")
    if check_int(seed, "seed") < 0:
        raise ValidationError("seed must be non-negative")


def _multinomial(p: np.ndarray, sums: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The one draw: each row of p divided by its sum, drawn in order from default_rng(seed)."""
    return np.random.default_rng(seed).multinomial(shots, p / sums)


def _draw(p: np.ndarray, shots: int, seed: int) -> np.ndarray:  # `sample_counts` of a float64 array
    if p.ndim not in (1, 2) or p.ndim == 2 and not p.shape[1]:
        raise ValidationError(f"expected a probability vector or a block of rows, got shape {p.shape}")
    _check_shots_and_seed(shots, seed)
    # Read as uint64, an entry's bits are at most 2.0's just when it lies in [+0, 2], where it cannot overflow a
    # row's sum; NaN, inf, negatives, -0 and entries above 2 read higher.  Those take the minimum, which the sum
    # waits for (inf + -inf warns), and a sum under the overflow guard.  No row that sums to 1 holds an entry
    # above 2, so -0 aside only a failing input pays for them, and for a finiteness pass.
    if np.maximum.reduce(p.view(np.uint64), None, initial=0) <= 0x4000000000000000:  # 2.0's bits
        sums = np.add.reduce(p, -1, keepdims=True)
    else:
        lowest = np.minimum.reduce(p, None, initial=0.0)
        if not lowest >= 0:
            check_finite(p, "probabilities must be finite")
            raise InvalidProbabilityError(f"probabilities must be non-negative, min is {lowest}")
        with np.errstate(over="ignore"):  # a sum that overflows is inf, which the next test rejects
            sums = np.add.reduce(p, -1, keepdims=True)
    deviation = max([abs(total - 1.0) for total in sums.ravel().tolist()], default=0.0)
    if not deviation <= 1e-6:
        check_finite(p, "probabilities must be finite")
        raise NotNormalizedError(f"probability rows must sum to 1, worst is off by {deviation}")
    return _multinomial(p, sums, shots, seed)


@lru_cache(maxsize=1)
def _bitstrings(n_qubits: int) -> tuple[str, ...]:
    """`bitstring` of every basis index, for the width sampled last."""
    return tuple(bitstring(i, n_qubits) for i in range(2**n_qubits))


def sample_distribution(probs, shots: int, seed: int) -> ShotTable:
    p = as_doubles(probs, "probabilities must be real")
    return ShotTable(shots, seed, dict(zip(_bitstrings(_qubit_count(p)), _draw(p, shots, seed).tolist())))
