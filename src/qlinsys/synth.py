"""Shortest-circuit synthesis of real 4x4 orthogonal operators.

The search enumerates 2-qubit circuits over a fixed 9-gate vocabulary in
breadth-first order, deduplicating unitaries up to global sign, so the first
circuit that hits a target is one of minimal gate count (ties broken by
vocabulary order).  The reachable set is a finite group of 1152 elements up
to sign, every one within 7 gates.  The table is built once, to closure, and
shared read-only; a gate budget only filters it.  Each depth applies each gate
once, through the `sim` kernel, to the frontier's unitaries in one block, so a
stored unitary is exactly the real part of `sim.unitary_of` of its circuit.
Group entries lie in {0, +-1/2, +-1/sqrt(2), +-1}, so sign(m) round(4 m^2) as
int8 is an exact key.  Each element is stored under the keys of both U and -U,
with U and the sign of the key, so a lookup does no canonicalization.  Keys
are coarse off the group, so a hit counts only when sign * U equals the
target within 1e-10, the orthogonality bound; as nonzero entries are at least
1/2, no target is that close to both U and -U.  A call is one lookup and
simulates nothing.
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

DEFAULT_MAX_GATES = 8

_TOL = 1e-10  # entrywise bound on a target's orthogonality and on its match

#: Negates each int8 code byte (two's complement), mapping U's key to -U's.
_NEGATED = bytes(-b & 0xFF for b in range(256))


@dataclass(frozen=True)
class SynthesisResult:
    """A minimal circuit together with how faithfully it matched the target."""

    circuit: sim.Circuit
    gate_count: int
    matched_sign: int
    max_deviation: float


def _keys(matrices: np.ndarray) -> list[bytes]:
    """Exact int8 keys sign(m) round(4 m^2) of one 4x4 or a (k, 4, 4) stack."""
    blob = np.rint(4.0 * matrices * np.abs(matrices)).astype(np.int8).tobytes()
    return [blob[i : i + 16] for i in range(0, len(blob), 16)]


@functools.cache
def _closure() -> MappingProxyType:
    """Exact key of +-U -> (first circuit in BFS order, U, the sign), for the whole group."""
    table = {}

    def insert(ops: tuple, unitary: np.ndarray, key: bytes) -> tuple:
        circuit = sim.Circuit(2, ops)
        table[key] = (circuit, unitary, 1)
        table[key.translate(_NEGATED)] = (circuit, unitary, -1)
        return ops, unitary

    eye = np.eye(4)
    frontier = [insert((), eye, _keys(eye)[0])]
    while frontier:
        block = np.hstack([u for _, u in frontier])
        # Copies, so that no stored unitary keeps a whole complex block alive.
        images = [sim.apply_gate(block, gate).real.copy() for gate in VOCABULARY]
        keys = [_keys(image.reshape(4, -1, 4).transpose(1, 0, 2)) for image in images]
        # Both signs of an element go in together, so a key is present exactly
        # when its element is, whichever sign the candidate carries.
        grown = []
        for i, (ops, _) in enumerate(frontier):
            for gate, image, image_keys in zip(VOCABULARY, images, keys):
                if image_keys[i] not in table:
                    unitary = image[:, 4 * i : 4 * i + 4].copy()
                    grown.append(insert(ops + (gate,), unitary, image_keys[i]))
        frontier = grown
    return MappingProxyType(table)


def synthesize(target, max_gates: int = DEFAULT_MAX_GATES) -> SynthesisResult:
    """Find a minimal circuit whose unitary equals the target up to global sign.

    Raises SynthesisNotFoundError when no circuit of at most `max_gates`
    vocabulary gates reaches the target within 1e-10.
    """
    t = np.asarray(target, dtype=float)
    if t.shape != (4, 4):
        raise DimensionMismatchError(f"target must be 4x4, got shape {t.shape}")
    # Written so that a NaN deviation fails the check too.
    if not np.max(np.abs(t.T @ t - np.eye(4))) <= _TOL:
        raise NotOrthogonalError("synthesis target must be orthogonal")
    if isinstance(max_gates, bool) or not isinstance(max_gates, (int, np.integer)):
        raise ValidationError(f"max_gates must be an integer, got {max_gates!r}")
    if max_gates < 0:
        raise ValidationError("max_gates must be non-negative")
    hit = _closure().get(_keys(t)[0])
    if hit is not None and len(hit[0].ops) <= max_gates:
        circuit, realized, sign = hit
        # realized + t is bit for bit realized - sign * t, with no multiply.
        deviation = float(np.max(np.abs(realized - t if sign == 1 else realized + t)))
        if deviation <= _TOL:
            return SynthesisResult(circuit, len(circuit.ops), sign, deviation)
    raise SynthesisNotFoundError(f"no circuit with at most {max_gates} gates reaches the target")


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
