"""Timers and counters that the benchmark wraps around its calls into qlinsys.

The program itself is not instrumented: a traced run swaps each function the
workloads call for a wrapper that records the call's wall time under
`<module>.<function>` and adds the work counts the call implies.  An
untraced run calls the functions directly, so it pays nothing.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter_ns
from types import SimpleNamespace

# Work each traced call implies, from its arguments and result.
_COUNTS = {
    "sim.run": lambda args, out: {
        "sim.gates_applied": len(args[0].ops),
        "sim.amp_updates": len(args[0].ops) << args[0].n_qubits,
    },
    "sim.sample_distribution": lambda args, out: {"sim.shots_sampled": out.shots},
    "synth.synthesize": lambda args, out: {"synth.gates_emitted": out.gate_count},
    "qasm.circuit_to_qasm": lambda args, out: {"qasm.bytes_emitted": len(out.encode())},
    "tomo.pauli_expectations": lambda args, out: {
        "tomo.shots_sampled": 9 * out.shots if out.mode == "sampled" else 0
    },
}


#: The public qlinsys functions the in-process workloads call, by traced name.
TRACED = (
    "family.enumerate_family",
    "linsys.inverse_operator",
    "linsys.solve",
    "synth.synthesize",
    "sim.run",
    "sim.probabilities",
    "sim.sample_distribution",
    "tomo.density_from_state",
    "tomo.apply_depolarizing",
    "tomo.pauli_expectations",
    "tomo.reconstruct",
    "tomo.fidelity",
    "grover.build_grover_circuit",
    "qasm.circuit_to_qasm",
)

#: Work counters, each summed over the calls that imply it.
COUNTERS = (
    "sim.gates_applied",
    "sim.amp_updates",
    "sim.shots_sampled",
    "synth.gates_emitted",
    "qasm.bytes_emitted",
    "tomo.shots_sampled",
)


def layer_functions() -> dict:
    """The functions named in TRACED, imported from the qlinsys package."""
    functions = {}
    for name in TRACED:
        module, function = name.split(".")
        functions[name] = getattr(importlib.import_module(f"qlinsys.{module}"), function)
    return functions


class Tracer:
    """Per-name call durations (ns) and work counters, kept in memory."""

    def __init__(self):
        self.durations: dict[str, array] = {}
        self.counts: Counter = Counter()

    def record(self, name: str, ns: int) -> None:
        self.durations.setdefault(name, array("q")).append(ns)

    def wrap(self, name: str, fn):
        durations = self.durations.setdefault(name, array("q"))
        counts = self.counts
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            start = perf_counter_ns()
            out = fn(*args, **kwargs)
            durations.append(perf_counter_ns() - start)
            if count is not None:
                counts.update(count(args, out))
            return out

        return traced

    def busy_ns(self, name: str) -> int:
        return sum(self.durations.get(name, ()))


def layers(functions: dict, tracer: Tracer | None = None) -> SimpleNamespace:
    """Callables named by function (`run`, `synthesize`, ...), traced when a tracer is given.

    Function names are unique across the traced modules, so the short name
    is enough for the workloads to call through.
    """
    return SimpleNamespace(
        **{
            name.split(".")[1]: fn if tracer is None else tracer.wrap(name, fn)
            for name, fn in functions.items()
        }
    )
