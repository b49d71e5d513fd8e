"""Solve linear systems with sign-matrix coefficients on a 2-qubit simulator.

The pipeline: `family` catalogs the 48 solvable matrices, `linsys` solves
them by the transpose, `synth` finds a minimal circuit realizing the solve
operator, `sim` executes and samples it, and `tomo` recovers the solution
signs that plain readout loses.  `grover` builds the search whose operators the
catalog permutes, `qasm` exports circuits, and `cli` prints what they return.
"""

from . import errors, family, grover, linsys, qasm, sim, synth, tomo

__version__ = "0.1.0"

__all__ = [
    "errors",
    "family",
    "grover",
    "linsys",
    "qasm",
    "sim",
    "synth",
    "tomo",
    "__version__",
]
