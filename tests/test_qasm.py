import numpy as np
import pytest

from qlinsys import family, linsys, qasm, sim, synth
from qlinsys.errors import UnsupportedGateError


class TestCircuitToQasm:
    def test_empty_circuit(self):
        expected = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[2];\n"
            "creg c[2];\n"
            "measure q -> c;\n"
        )
        assert qasm.circuit_to_qasm(sim.Circuit(2)) == expected

    def test_hadamard_pair(self):
        text = qasm.circuit_to_qasm(sim.Circuit(2, (sim.h(0), sim.h(1))))
        assert "h q[0];" in text
        assert "h q[1];" in text

    def test_gate_order_and_operands(self):
        circuit = sim.Circuit(2, (sim.h(0), sim.cx(1, 0), sim.cz(0, 1), sim.z(1)))
        lines = qasm.circuit_to_qasm(circuit).splitlines()
        assert lines[4:8] == ["h q[0];", "cx q[1],q[0];", "cz q[0],q[1];", "z q[1];"]
        assert lines[-1] == "measure q -> c;"

    def test_deterministic(self):
        circuit = sim.Circuit(2, (sim.h(0), sim.cx(0, 1)))
        assert qasm.circuit_to_qasm(circuit) == qasm.circuit_to_qasm(circuit)

    def test_register_width_follows_circuit(self):
        text = qasm.circuit_to_qasm(sim.Circuit(3, (sim.x(2),)))
        assert "qreg q[3];" in text
        assert "creg c[3];" in text
        assert "x q[2];" in text

    @pytest.mark.parametrize("kind", sorted(sim.GATE_KINDS - {"phaseflip"}))
    def test_every_kind_exports_under_its_own_name(self, kind):
        # Kinds are qelib1 names, so the exported line starts with the kind.
        targets = (0, 1) if kind in ("cx", "cz") else (1,)
        lines = qasm.circuit_to_qasm(sim.Circuit(2, (sim.Gate(kind, targets),))).splitlines()
        assert lines[4] == f"{kind} " + ",".join(f"q[{q}]" for q in targets) + ";"

    def test_phase_flip_has_no_encoding(self):
        circuit = sim.Circuit(2, (sim.phase_flip({3}),))
        with pytest.raises(UnsupportedGateError):
            qasm.circuit_to_qasm(circuit)


def plain_qasm(circuit: sim.Circuit) -> str:
    """A writer with no table: every statement formatted on every call."""
    n = circuit.n_qubits
    text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{n}];\ncreg c[{n}];\n'
    for gate in circuit.ops:
        text += f"{gate.kind} " + ",".join(f"q[{q}]" for q in gate.targets) + ";\n"
    return text + "measure q -> c;\n"


def random_circuit(n: int, rng: np.random.Generator) -> sim.Circuit:
    ops = []
    for _ in range(int(rng.integers(41))):
        kind = int(rng.integers(5 if n >= 2 else 3))
        if kind < 3:
            ops.append((sim.h, sim.x, sim.z)[kind](int(rng.integers(n))))
        else:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            ops.append((sim.cx, sim.cz)[kind - 3](a, b))
    return sim.Circuit(n, tuple(ops))


class TestLineTable:
    """Each statement is written once into a table keyed by (kind, targets); the text is the plain writer's."""

    def test_every_catalog_circuit_matches_the_plain_writer(self):
        for spec in family.enumerate_family():
            circuit = synth.synthesize(linsys.inverse_operator(spec.matrix)).circuit
            assert qasm.circuit_to_qasm(circuit) == plain_qasm(circuit), spec.label

    @pytest.mark.parametrize("n", range(1, sim.MAX_QUBITS + 1))
    def test_random_circuits_match_the_plain_writer(self, n):
        rng = np.random.default_rng(2900 + n)
        for _ in range(30):
            circuit = random_circuit(n, rng)
            assert qasm.circuit_to_qasm(circuit) == plain_qasm(circuit)

    def test_the_table_holds_statements_not_circuits(self):
        circuit = sim.Circuit(3, (sim.h(0), sim.cx(2, 1), sim.h(0), sim.cz(1, 0)))
        qasm.circuit_to_qasm(circuit)
        for gate in circuit.ops:
            assert qasm._LINES[gate.kind, gate.targets] == plain_qasm(sim.Circuit(3, (gate,))).splitlines(True)[4]
        assert all(type(key) is tuple and len(key) == 2 for key in qasm._LINES)
        assert all(type(line) is str for line in qasm._LINES.values())

    def test_a_phase_flip_raises_on_every_call_and_adds_no_entry(self):
        circuit = sim.Circuit(2, (sim.h(0), sim.phase_flip({3}), sim.x(1)))
        for _ in range(3):
            with pytest.raises(UnsupportedGateError, match="^gate kind 'phaseflip' has no OpenQASM 2.0 form$"):
                qasm.circuit_to_qasm(circuit)
            assert all(kind != "phaseflip" for kind, _ in qasm._LINES)

    def test_equal_but_distinct_circuits_give_identical_text(self):
        first = sim.Circuit(2, (sim.h(0), sim.cx(0, 1), sim.z(1)))
        second = sim.Circuit(2, (sim.h(0), sim.cx(0, 1), sim.z(1)))
        assert first == second and first is not second and first.ops[0] is not second.ops[0]
        assert qasm.circuit_to_qasm(first) == qasm.circuit_to_qasm(second) == plain_qasm(first)

    def test_numpy_integer_targets_write_the_same_statement(self):
        # Gate converts each target to an int, so a numpy integer keys the same entry.
        circuit = sim.Circuit(2, (sim.cx(np.int64(1), np.int8(0)),))
        assert qasm.circuit_to_qasm(circuit) == plain_qasm(sim.Circuit(2, (sim.cx(1, 0),)))
