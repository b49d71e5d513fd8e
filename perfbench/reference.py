"""Expected values for the benchmark's correctness checks, computed with numpy only.

Nothing here imports `qlinsys`: the catalog, the gate matrices, the Grover
success probability and the physicality tests are rebuilt from their
definitions, so a check that passes is agreement between two independent
computations.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

# The two classes of mutually orthogonal sign columns (times 1/2), in index order 1..4.
_COLUMNS = {
    "A": ((1, 1, 1, 1), (1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1)),
    "B": ((1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (1, -1, -1, -1)),
}

#: Minimal gate counts of the 48 catalog solve operators, as `histogram` gives them.
GATE_COUNT_HISTOGRAM = {2: 1, 3: 5, 4: 16, 5: 20, 6: 6}

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
_QASM_GATE = re.compile(r"^(h|x|z|cx|cz) q\[(\d)\](?:,q\[(\d)\])?;$")


def catalog() -> dict[str, np.ndarray]:
    """All 48 sign matrices keyed by label, class A first, permutations in order."""
    out = {}
    for kind, cols in _COLUMNS.items():
        for perm in itertools.permutations(range(4)):
            label = f"{kind}_{''.join(str(p + 1) for p in perm)}"
            out[label] = np.column_stack([cols[p] for p in perm]) / 2.0
    return out


def histogram(gate_counts) -> dict[int, int]:
    """{gate count: how many circuits have it}, in gate-count order."""
    counts = list(gate_counts)
    return {g: counts.count(g) for g in sorted(set(counts))}


def _gate_matrix(kind: str, targets: tuple[int, ...]) -> np.ndarray:
    # Qubit 0 is the least significant bit of the basis index.
    if kind in ("h", "x", "z"):
        g = {"h": _H, "x": _X, "z": _Z}[kind]
        return np.kron(np.eye(2), g) if targets[0] == 0 else np.kron(g, np.eye(2))
    a, b = targets
    out = np.zeros((4, 4))
    for i in range(4):
        bit_a, bit_b = (i >> a) & 1, (i >> b) & 1
        if kind == "cx":
            out[i ^ (bit_a << b), i] = 1.0
        else:
            out[i, i] = -1.0 if bit_a and bit_b else 1.0
    return out


def circuit_unitary(gates) -> np.ndarray:
    """Unitary of a 2-qubit circuit given as (kind, targets) pairs in time order."""
    u = np.eye(4)
    for kind, targets in gates:
        u = _gate_matrix(kind, tuple(targets)) @ u
    return u


def parse_qasm(text: str) -> list[tuple[str, tuple[int, ...]]]:
    """Gate list of a 2-qubit OpenQASM 2.0 program; raises ValueError on anything else."""
    lines = text.splitlines()
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[2];", "creg c[2];"]
    if lines[:4] != header or lines[-1:] != ["measure q -> c;"] or not text.endswith("\n"):
        raise ValueError("not a 2-qubit OpenQASM 2.0 program with final measurement")
    gates = []
    for line in lines[4:-1]:
        m = _QASM_GATE.match(line)
        if m is None:
            raise ValueError(f"unexpected QASM line {line!r}")
        gates.append((m.group(1), tuple(int(q) for q in m.groups()[1:] if q is not None)))
    return gates


def sign_distance(a, b) -> float:
    """Max-norm distance between a and b, minimized over a global sign of b."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(min(np.max(np.abs(a - b)), np.max(np.abs(a + b))))


def solves(gates, matrix) -> bool:
    """True when the circuit's unitary is the solve operator A^T up to global sign."""
    return sign_distance(circuit_unitary(gates), matrix.T) <= 1e-9


def expected_counts(probs, shots: int, seed: int) -> list[int]:
    return [int(c) for c in np.random.default_rng(seed).multinomial(shots, probs)]


def grover_success(n_qubits: int, n_marked: int, iterations: int) -> float:
    theta = math.asin(math.sqrt(n_marked / 2**n_qubits))
    return math.sin((2 * iterations + 1) * theta) ** 2


def physical_error(rho) -> str | None:
    """Why rho is not a density matrix (Hermitian, unit trace, PSD), or None."""
    m = np.asarray(rho)
    if np.max(np.abs(m - m.conj().T)) > 1e-9:
        return "not Hermitian"
    if abs(np.trace(m) - 1.0) > 1e-9:
        return f"trace {np.trace(m)}"
    low = float(np.linalg.eigvalsh(m).min())
    if low < -1e-9:
        return f"eigenvalue {low}"
    return None


def leading_signs(rho) -> np.ndarray:
    """Sign pattern of the dominant eigenvector, with its global phase removed."""
    _, vecs = np.linalg.eigh(np.asarray(rho))
    v = vecs[:, -1]
    v = v * np.conj(v[np.argmax(np.abs(v))])
    return np.sign(v.real)
