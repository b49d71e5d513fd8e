"""OpenQASM 2.0 writer for circuits over the named-gate vocabulary."""

from __future__ import annotations

from . import sim
from .errors import UnsupportedGateError


class _Lines(dict):
    """Each gate's statement by (kind, targets), written on first use: the vocabulary's lines, no circuits."""

    def __missing__(self, key: tuple[str, tuple[int, ...]]) -> str:
        kind, targets = key
        if kind == "phaseflip":  # every other kind is already its qelib1 name
            raise UnsupportedGateError(f"gate kind {kind!r} has no OpenQASM 2.0 form")
        line = self[key] = f"{kind} {','.join(['q[%d]' % q for q in targets])};\n"
        return line


_LINES = _Lines()


def circuit_to_qasm(circuit: sim.Circuit) -> str:
    """Serialize a circuit, ending with a full-register measurement; same circuit, same bytes."""
    n, body = circuit.n_qubits, "".join([_LINES[gate.kind, gate.targets] for gate in circuit.ops])
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{n}];\ncreg c[{n}];\n{body}measure q -> c;\n'
