"""Shortest-circuit synthesis of real 4x4 orthogonal operators.

The search enumerates 2-qubit circuits over a fixed 9-gate vocabulary in
breadth-first order, deduplicating unitaries up to global sign, so the first
circuit that hits a target is one of minimal gate count (ties broken by
vocabulary order).  The reachable set is a finite group of 1152 elements up
to sign, every one within 7 gates, so the table is built once, on first use,
to closure, and shared read-only across calls; a gate budget only filters it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import sim
from .errors import DimensionMismatchError, NotOrthogonalError, SynthesisNotFoundError, ValidationError

#: Search vocabulary, in tie-breaking order.
VOCABULARY: tuple[sim.Gate, ...] = (
    sim.h(0),
    sim.h(1),
    sim.x(0),
    sim.x(1),
    sim.z(0),
    sim.z(1),
    sim.cx(0, 1),
    sim.cx(1, 0),
    sim.cz(0, 1),
)

_VOCAB_MATRICES = tuple(
    np.real(sim.unitary_of(sim.Circuit(2, (gate,)))) for gate in VOCABULARY
)

DEFAULT_MAX_GATES = 8


@dataclass(frozen=True)
class SynthesisResult:
    """A minimal circuit together with how faithfully it matched the target."""

    circuit: sim.Circuit
    gate_count: int
    matched_sign: int
    max_deviation: float


def _canonical_key(matrix: np.ndarray) -> bytes:
    # Round before hashing so float drift cannot split one group element into
    # two table entries, and flatten -0.0 which has a distinct byte pattern.
    r = np.round(matrix, 12)
    r = np.where(r == 0, 0.0, r)
    flat = r.ravel()
    nonzero = np.nonzero(flat)[0]
    if nonzero.size and flat[nonzero[0]] < 0:
        r = -r
        r = np.where(r == 0, 0.0, r)
    return r.tobytes()


@functools.cache
def _closure() -> MappingProxyType:
    """Canonical key -> first gate sequence, in BFS order, for the whole group."""
    eye = np.eye(4)
    table = {_canonical_key(eye): ()}
    frontier = [((), eye)]
    while frontier:
        grown = []
        for ops, u in frontier:
            for gate, g in zip(VOCABULARY, _VOCAB_MATRICES):
                candidate = g @ u
                key = _canonical_key(candidate)
                if key not in table:
                    table[key] = ops + (gate,)
                    grown.append((ops + (gate,), candidate))
        frontier = grown
    return MappingProxyType(table)


def synthesize(target, max_gates: int = DEFAULT_MAX_GATES) -> SynthesisResult:
    """Find a minimal circuit whose unitary equals the target up to global sign.

    Raises SynthesisNotFoundError when no circuit of at most `max_gates`
    vocabulary gates reaches the target.
    """
    t = np.asarray(target, dtype=float)
    if t.shape != (4, 4):
        raise DimensionMismatchError(f"target must be 4x4, got shape {t.shape}")
    # Written so that a NaN deviation fails the check too.
    if not np.max(np.abs(t.T @ t - np.eye(4))) <= 1e-10:
        raise NotOrthogonalError("synthesis target must be orthogonal")
    if max_gates < 0:
        raise ValueError("max_gates must be non-negative")

    ops = _closure().get(_canonical_key(t))
    if ops is None or len(ops) > max_gates:
        raise SynthesisNotFoundError(f"no circuit with at most {max_gates} gates reaches the target")

    circuit = sim.Circuit(2, ops)
    realized = np.real(sim.unitary_of(circuit))
    sign = 1 if np.max(np.abs(realized - t)) <= np.max(np.abs(realized + t)) else -1
    deviation = float(np.max(np.abs(realized - sign * t)))
    return SynthesisResult(circuit, len(ops), sign, deviation)


def synthesize_family(max_gates: int = DEFAULT_MAX_GATES) -> dict:
    """Synthesize the solution operator A^T for every catalog matrix."""
    from . import family, linsys

    results = {}
    for spec in family.enumerate_family():
        target = linsys.inverse_operator(spec.matrix)
        results[spec.label] = synthesize(target, max_gates)
    return results


def verify(circuit: sim.Circuit, matrix) -> float:
    """Best-over-sign deviation of U_circuit * A from the identity.

    A non-finite matrix raises ValidationError rather than returning NaN.
    """
    a = np.asarray(matrix, dtype=float)
    dim = 2**circuit.n_qubits
    if a.shape != (dim, dim):
        raise DimensionMismatchError(f"matrix shape {a.shape} does not match {circuit.n_qubits} qubits")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix must be finite")
    u = sim.unitary_of(circuit)
    eye = np.eye(dim)
    deviations = (np.max(np.abs(s * u @ a - eye)) for s in (1.0, -1.0))
    return float(min(deviations))
