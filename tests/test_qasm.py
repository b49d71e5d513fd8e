import pytest

from qlinsys import qasm, sim
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
