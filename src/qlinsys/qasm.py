"""OpenQASM 2.0 writer for circuits over the named-gate vocabulary."""

from __future__ import annotations

from . import sim
from .errors import UnsupportedGateError


def circuit_to_qasm(circuit: sim.Circuit) -> str:
    """Serialize a circuit, ending with a full-register measurement.

    Output is deterministic: same circuit, same bytes.
    """
    n = circuit.n_qubits
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    for gate in circuit.ops:
        # Every kind but phaseflip is already its qelib1 name.
        if gate.kind == "phaseflip":
            raise UnsupportedGateError(f"gate kind {gate.kind!r} has no OpenQASM 2.0 form")
        operands = ",".join(f"q[{q}]" for q in gate.targets)
        lines.append(f"{gate.kind} {operands};")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"
