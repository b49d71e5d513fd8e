"""OpenQASM 2.0 writer for circuits over the named-gate vocabulary."""

from __future__ import annotations

from . import sim
from .errors import UnsupportedGateError


def circuit_to_qasm(circuit: sim.Circuit) -> str:
    """Serialize a circuit, ending with a full-register measurement.

    Output is deterministic: same circuit, same bytes.
    """
    n = circuit.n_qubits
    text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{n}];\ncreg c[{n}];\n'
    for gate in circuit.ops:
        # Every kind but phaseflip is already its qelib1 name.
        if gate.kind == "phaseflip":
            raise UnsupportedGateError(f"gate kind {gate.kind!r} has no OpenQASM 2.0 form")
        text += f"{gate.kind} {','.join(['q[%d]' % q for q in gate.targets])};\n"
    return text + "measure q -> c;\n"
