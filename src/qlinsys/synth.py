"""Shortest-circuit synthesis of real 4x4 orthogonal operators.

The search enumerates 2-qubit circuits over a fixed 9-gate vocabulary in
breadth-first order, deduplicating unitaries up to global sign, so the first
circuit that hits a target is one of minimal gate count (ties broken by
vocabulary order).  The reachable set is a finite group of 1152 elements up
to sign, every one within 7 gates.  The table is built once, to closure, and
shared read-only.  Each depth applies each gate once, through
`sim.apply_gate`, to the frontier's unitaries in one block.
Group entries lie in {0, +-1/2, +-1/sqrt(2), +-1}, so `_snap`, which maps each
entry m to sign(m) sqrt(round(4 m^2) / 4) and a zero to +0.0, is exact on the
group.  The table maps the float64 bytes of each snapped +-U to its finished
result.  A target whose own bytes are a key takes that result and skips the
orthogonality check, which every +-U passes; any other is checked, snapped and
looked up, and a hit counts only within 1e-10, the orthogonality bound.  As
nonzero entries are at least 1/2, no target is that close to both U and -U.
A call simulates nothing.  Whole-catalog synthesis is the caller's loop.
"""

from __future__ import annotations

import dataclasses
import functools
from types import MappingProxyType

import numpy as np

from . import sim
from .errors import ORTHONORMAL_TOL, DimensionMismatchError, NotOrthonormalError, SynthesisNotFoundError
from .errors import as_doubles, is_orthonormal

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


@dataclasses.dataclass(frozen=True, slots=True)
class SynthesisResult:
    """A minimal circuit together with how faithfully it matched the target."""

    circuit: sim.Circuit
    gate_count: int
    matched_sign: int
    max_deviation: float


def _snap(m: np.ndarray) -> np.ndarray:
    """Each entry m as sign(m) sqrt(round(4 m^2) / 4), its group value if m is near one, and a zero as +0.0."""
    return np.copysign(np.sqrt(np.rint(4 * m * m) / 4), m) + 0.0


@functools.cache
def _table() -> MappingProxyType:
    """Float64 bytes of each snapped +-U -> its finished result, the first circuit in BFS order, for the whole group."""
    table = {}

    def insert(ops: tuple, unitary: np.ndarray, key: bytes, negated_key: bytes) -> tuple:
        circuit = sim.Circuit(2, ops)
        table[key] = SynthesisResult(circuit, len(ops), 1, 0.0)
        table[negated_key] = SynthesisResult(circuit, len(ops), -1, 0.0)
        return ops, unitary

    eye = np.eye(4)
    frontier = [insert((), eye, eye.tobytes(), (0.0 - eye).tobytes())]
    while frontier:
        block = np.hstack([u for _, u in frontier])
        # Snapping undoes H's rounding: exact entries, and so every key, are unchanged.
        images = [_snap(sim.apply_gate(block, gate).reshape(4, -1, 4).transpose(1, 0, 2)) for gate in VOCABULARY]
        # Candidate i's keys, of U and of -U (0.0 - U keeps zeros at +0.0), are 128-byte slices of two blobs per gate.
        blobs = [(image.tobytes(), (0.0 - image).tobytes()) for image in images]
        # Both signs of an element go in together, so a key is present exactly
        # when its element is, whichever sign the candidate carries.
        grown = []
        for i, (ops, _) in enumerate(frontier):
            at = slice(128 * i, 128 * i + 128)
            for gate, unitaries, (blob, negated) in zip(VOCABULARY, images, blobs):
                if blob[at] not in table:
                    grown.append(insert(ops + (gate,), unitaries[i], blob[at], negated[at]))
        frontier = grown
    return MappingProxyType(table)


def synthesize(target) -> SynthesisResult:
    """Find a minimal circuit whose unitary equals the target up to global sign.

    A target whose bytes equal a stored +-U takes its finished result, any other
    the orthogonality check and a snapped lookup.  Raises SynthesisNotFoundError
    when no element of the group lies within 1e-10 of the target.
    """
    t = as_doubles(target, "synthesis target must be real")
    if t.shape != (4, 4):
        raise DimensionMismatchError(f"target must be 4x4, got shape {t.shape}")
    hit = _table().get(t.tobytes())
    if hit is not None:  # every stored +-U passes the orthogonality check
        return hit
    if not is_orthonormal(t):
        raise NotOrthonormalError("synthesis target must be orthogonal")
    snapped = _snap(t)
    deviation = float(abs(snapped - t).max())
    hit = _table().get(snapped.tobytes())
    if hit is not None and deviation <= ORTHONORMAL_TOL:  # the orthogonality bound
        return dataclasses.replace(hit, max_deviation=deviation)
    raise SynthesisNotFoundError("no circuit reaches the target within 1e-10")
