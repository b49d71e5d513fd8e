"""Amplitude amplification: iteration angle and executable circuits.

The success probability after k iterations is sin^2((2k + 1) * theta) with
theta = arcsin(sqrt(M / N)) for M marked states out of N, the angle `theta`
returns.  Circuits realize each iteration as a marked-set phase flip followed
by inversion about the mean (H layer, phase flip on index 0, H layer); the
global sign this leaves on the state has no effect on measured probabilities.
"""

from __future__ import annotations

import math

from . import sim
from .errors import InvalidCountsError, ValidationError, check_int, check_real, shown

#: Upper bound on `build_grover_circuit`'s iteration count, far above the 25
#: optimal iterations of one marked state at `sim.MAX_QUBITS`; it keeps a mistyped
#: count from building a circuit that never finishes.
MAX_ITERATIONS = 1024
# Every circuit shares these gates, built once: H on each qubit of the widest register, and the flip about |0>.
_H_GATES = tuple(sim.h(q) for q in range(sim.MAX_QUBITS))
_ZERO_FLIP = sim.phase_flip({0})


def theta(n_states: int, n_marked: int) -> float:
    """Rotation angle arcsin(sqrt(n_marked / n_states)) of a search, always above 0."""
    check_int(n_marked, "n_marked")
    if check_int(n_states, "n_states") < 2 or n_states & (n_states - 1):
        raise InvalidCountsError(f"n_states must be a power of two >= 2, got {shown(int(n_states))}")
    if not 0 < n_marked <= n_states:
        raise InvalidCountsError(f"n_marked must lie in 1..{n_states}, got {shown(int(n_marked))}")
    angle = math.asin(math.sqrt(n_marked / n_states))
    if not angle > 0.0:
        raise InvalidCountsError(f"n_marked / n_states underflows to 0 at n_states = 2**{n_states.bit_length() - 1}")
    return angle


def _angle(theta: float) -> float:
    if not 0.0 < check_real(theta, "theta") <= math.pi / 2:  # the angles `theta` returns; NaN fails too
        raise ValidationError(f"theta must lie in (0, pi/2], got {theta!r}")
    return theta


def optimal_iterations(theta: float) -> int:
    """Iteration count maximizing success probability, never negative."""
    return max(round(math.pi / (4.0 * _angle(theta)) - 0.5), 0)


def success_probability(theta: float, iterations: int) -> float:
    if check_int(iterations, "iterations") < 0:
        raise ValidationError("iterations must be non-negative")
    if iterations >= 2**1022:  # beyond it, (2k + 1) * theta can overflow a double for theta <= pi/2
        raise ValidationError("iterations must be below 2**1022")
    return math.sin((2 * iterations + 1) * _angle(theta)) ** 2


def build_grover_circuit(n_qubits: int, marked, iterations: int) -> sim.Circuit:
    """Uniform superposition followed by `iterations` amplification rounds, at most MAX_ITERATIONS."""
    if not 1 <= check_int(n_qubits, "n_qubits") <= sim.MAX_QUBITS:
        raise InvalidCountsError(f"n_qubits must lie in 1..{sim.MAX_QUBITS}, got {shown(int(n_qubits))}")
    if check_int(iterations, "iterations") < 0:
        raise ValidationError("iterations must be non-negative")
    if iterations > MAX_ITERATIONS:
        raise ValidationError(f"iterations must be at most {MAX_ITERATIONS}, got {shown(int(iterations))}")
    oracle = sim.phase_flip(marked)  # checks that each index is an integer
    if not oracle.flips:
        raise InvalidCountsError("marked set must not be empty")
    if not all(0 <= m < 2**n_qubits for m in oracle.flips):
        raise InvalidCountsError(f"marked indices {shown(sorted(oracle.flips))} out of range for {n_qubits} qubits")

    layer = _H_GATES[:n_qubits]
    return sim.Circuit(n_qubits, layer + ((oracle,) + layer + (_ZERO_FLIP,) + layer) * iterations)
