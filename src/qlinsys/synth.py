"""Shortest-circuit synthesis of real 4x4 orthogonal operators.

The search enumerates 2-qubit circuits over a fixed 9-gate vocabulary in
breadth-first order, deduplicating unitaries up to global sign, so the first
circuit that hits a target is one of minimal gate count (ties broken by
vocabulary order).  The reachable set is a finite group of 1152 elements up
to sign, every one within 7 gates.  The table is built once, to closure, and
shared read-only; a gate budget only filters it.  Each depth applies each gate
once, through `sim.apply_gate`, to the frontier's unitaries in one block.
Group entries lie in {0, +-1/2, +-1/sqrt(2), +-1}, so c = sign(m) round(4 m^2)
as int8 is an exact key, and a stored unitary is decoded from it exactly,
sign(c) sqrt(|c| / 4), with the sign of zero that `sim.unitary_of` of its
circuit gives, which it equals bit for bit.  Each element is stored under the
keys of both U and -U, with U and the sign of the key, so a lookup does no
canonicalization.  Keys are coarse off the group, so a hit counts only when
sign * U equals the target within 1e-10, the orthogonality bound; as nonzero
entries are at least 1/2, no target is that close to both U and -U.  A call is
one lookup and simulates nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import sim
from .errors import DimensionMismatchError, NotOrthogonalError, SynthesisNotFoundError, ValidationError, check_int

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
_MAX_ENTRY = 2.0  # a larger entry puts its column's norm above 2; no smaller ones overflow t^T t
_EYE = np.eye(4)
_EYE.flags.writeable = False  # also the empty circuit's stored unitary

#: Negates each int8 code byte (two's complement), mapping U's key to -U's.
_NEGATED = bytes(-b & 0xFF for b in range(256))


@dataclass(frozen=True)
class SynthesisResult:
    """A minimal circuit together with how faithfully it matched the target."""

    circuit: sim.Circuit
    gate_count: int
    matched_sign: int
    max_deviation: float


def _key(matrices: np.ndarray) -> bytes:
    """Exact int8 key sign(m) round(4 m^2) of one 4x4, or the keys of a (k, 4, 4) stack end to end."""
    return np.rint(4.0 * matrices * abs(matrices)).astype(np.int8).tobytes()


@functools.cache
def _closure() -> MappingProxyType:
    """Exact key of +-U -> (first circuit in BFS order, U, the sign), for the whole group."""
    table = {}

    def insert(ops: tuple, unitary: np.ndarray, key: bytes) -> tuple:
        circuit = sim.Circuit(2, ops)
        table[key] = (circuit, unitary, 1)
        table[key.translate(_NEGATED)] = (circuit, unitary, -1)
        return ops, unitary

    frontier = [insert((), _EYE, _key(_EYE))]
    while frontier:
        block = np.hstack([u for _, u in frontier])
        # Each entry decoded from its key code c, sign(c) sqrt(|c| / 4), with the image's sign, which a
        # zero also has exactly: H's rounding is undone, and exact entries and all keys are unchanged.
        raw = (sim.apply_gate(block, gate).real.reshape(4, -1, 4).transpose(1, 0, 2) for gate in VOCABULARY)
        images = [np.copysign(np.sqrt(np.rint(4 * m * m) / 4), m) for m in raw]  # no complex image outlives it
        blobs = [_key(image) for image in images]
        # Both signs of an element go in together, so a key is present exactly
        # when its element is, whichever sign the candidate carries.
        grown = []
        for i, (ops, _) in enumerate(frontier):
            for gate, unitaries, blob in zip(VOCABULARY, images, blobs):
                key = blob[16 * i : 16 * i + 16]
                if key not in table:
                    grown.append(insert(ops + (gate,), unitaries[i].copy(), key))
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
    # Written so that a NaN or infinite entry fails the check too.
    if not (abs(t).max() <= _MAX_ENTRY and abs(t.T @ t - _EYE).max() <= _TOL):
        raise NotOrthogonalError("synthesis target must be orthogonal")
    if check_int(max_gates, "max_gates") < 0:
        raise ValidationError("max_gates must be non-negative")
    hit = _closure().get(_key(t))
    if hit is not None and len(hit[0].ops) <= max_gates:
        circuit, realized, sign = hit
        # realized + t is bit for bit realized - sign * t, with no multiply.
        deviation = float(abs(realized - t if sign == 1 else realized + t).max())
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

