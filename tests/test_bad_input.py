"""Bad values at every public entry point raise a QlinsysError, or the call returns, and nothing warns.

`ROWS` names each public callable of `sim`, `tomo`, `linsys`, `synth` and
`grover`, one row per argument slot that takes a value, with good arguments
for the other slots.  Each row is called once per value in `BAD_VALUES`, that
slot replaced, with every warning an error.  A bare numpy or Python error, or a
warning, is an escape.  Object-typed parameters (a `Circuit`, a `Gate`, an
`ExpectationTable`) and file paths are outside the conversion rules and get no
row of their own; `tomo.reconstruct`'s row puts the bad value into the table's
values, and `tomo.fidelity` has a second rho row against a psi of two non-zero
entries.  `sim.draw_rows` takes its probabilities under a stated precondition,
not as a checked value, so that slot gets no row either: the blocks of its
one caller, sampled tomography, are checked against that precondition in
tests/test_tomo.py and tests/test_properties.py.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

from qlinsys import grover, linsys, sim, synth, tomo
from qlinsys.errors import QlinsysError

BAD_VALUES = {
    "text": "abc",
    "numeric_text": "0.5",
    "bytes": b"abc",
    "ragged": [[1.0, 0.0], [0.0]],
    "huge": 10**400,
    "huge_list": [10**400, 0],
    "huge_int": 10**5000,  # more digits than Python prints
    "nan": math.nan,
    "inf": math.inf,
    "complex_list": [1j, 0.0],
    "none": None,
    "empty_list": [],
    "empty_matrix": np.zeros((0, 0)),
    "set": {1, 2},
    "object_array": np.array([1, 2**70], dtype=object),
    "minus_one": -1,
    "fraction": 1.5,
    "bool": True,
    "array": np.array([0.5, 0.5]),
    "huge_matrix": np.full((2, 2), 1e308),  # finite, but its trace or a product overflows
    "huge_values": np.full(16, 1e308),
}


def _reconstruct(values):
    return tomo.reconstruct(tomo.ExpectationTable(values, "analytic"))


def _fidelity_spread(rho):
    """`tomo.fidelity` against a psi whose two non-zero entries meet every entry of rho."""
    return tomo.fidelity(rho, [0.6, 0.8])


_MIXED_1Q = np.eye(2) / 2
_MIXED_2Q = np.eye(4) / 4
_SAMPLING = ([0.5, 0.5], 10, 0)

#: (callable, slot, good arguments).
ROWS = [
    (sim.Gate, 0, ("h", (0,))),
    (sim.Gate, 1, ("h", (0,))),
    (sim.Gate, 2, ("phaseflip", (), {1})),
    *[(gate, 0, (0,)) for gate in (sim.h, sim.x, sim.z)],
    *[(gate, slot, (0, 1)) for gate in (sim.cx, sim.cz) for slot in (0, 1)],
    (sim.phase_flip, 0, ({1},)),
    (sim.Circuit, 0, (1,)),
    (sim.Circuit, 1, (1, (sim.h(0),))),
    (sim.basis_state, 0, (2, 0)),
    (sim.basis_state, 1, (2, 0)),
    (sim.bitstring, 0, (0, 2)),
    (sim.bitstring, 1, (0, 2)),
    (sim.apply_gate, 0, ([1.0, 0.0], sim.h(0))),
    (sim.run, 1, (sim.Circuit(1), 0)),
    (sim.probabilities, 0, ([1.0, 0.0],)),
    *[(sample, slot, _SAMPLING) for sample in (sim.sample_counts, sim.sample_distribution) for slot in (0, 1, 2)],
    *[(sim.draw_rows, slot, (np.array([0.5, 0.5]), 10, 0)) for slot in (1, 2)],
    (tomo.density_from_state, 0, ([1.0, 0.0],)),
    (tomo.is_physical, 0, (_MIXED_1Q,)),
    (tomo.apply_depolarizing, 0, (_MIXED_1Q, 0.1)),
    (tomo.apply_depolarizing, 1, (_MIXED_1Q, 0.1)),
    *[(tomo.pauli_expectations, slot, (_MIXED_2Q, "sampled", 16, 0)) for slot in range(4)],
    (_reconstruct, 0, ([1.0] + [0.0] * 15,)),
    (tomo.fidelity, 0, (np.diag([1.0, 0.0]), [1.0, 0.0])),
    (tomo.fidelity, 1, (np.diag([1.0, 0.0]), [1.0, 0.0])),
    (_fidelity_spread, 0, (np.diag([1.0, 0.0]),)),
    (linsys.inverse_operator, 0, (np.eye(2),)),
    (linsys.solve, 0, (np.eye(2), [1.0, 0.0])),
    (linsys.solve, 1, (np.eye(2), [1.0, 0.0])),
    (synth.synthesize, 0, (np.eye(4),)),
    (grover.theta, 0, (4, 1)),
    (grover.theta, 1, (4, 1)),
    (grover.optimal_iterations, 0, (0.5,)),
    (grover.success_probability, 0, (0.5, 3)),
    (grover.success_probability, 1, (0.5, 3)),
    *[(grover.build_grover_circuit, slot, (2, {3}, 1)) for slot in range(3)],
]

#: Annotations of parameters that take an object, not a value.
OBJECT_TYPES = {"Circuit", "sim.Circuit", "Gate", "ExpectationTable"}

#: (function name, parameter) taken under a documented precondition instead of checked.
PRECONDITIONS = {("draw_rows", "p")}


def _row_id(row) -> str:
    call, slot, good = row
    wrapped = {_reconstruct: "tomo.reconstruct", _fidelity_spread: "tomo.fidelity_spread"}
    name = wrapped.get(call) or f"{call.__module__.rsplit('.', 1)[-1]}.{call.__qualname__}"
    return f"{name}[{slot}]"


def _call(row, value):
    call, slot, good = row
    args = list(good)
    args[slot] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


def escapes(row) -> list[str]:
    """The bad values that make this row raise anything but a QlinsysError, or warn, with what they raised."""
    out = []
    for name, value in BAD_VALUES.items():
        try:
            _call(row, value)
        except QlinsysError:
            pass
        except Exception as error:  # a warning is raised as one under the filter above
            out.append(f"{name}: {type(error).__name__}: {error}")
    return out


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_a_bad_value_raises_a_package_error_or_returns(row):
    assert escapes(row) == []


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_the_good_arguments_return(row):
    """The other slots of each row hold good values, so an error can only come from the bad one."""
    _call(row, row[2][row[1]])


def _value_parameters():
    """(function, parameter) for each value parameter of each public function of the five modules."""
    for module in (sim, tomo, linsys, synth, grover):
        for name, function in inspect.getmembers(module, inspect.isfunction):
            if function.__module__ == module.__name__ and not name.startswith("_"):
                for param in inspect.signature(function).parameters.values():
                    taken = param.annotation in OBJECT_TYPES or (name, param.name) in PRECONDITIONS
                    if not taken and param.name != "path":
                        yield function, param.name


@pytest.mark.parametrize("function, parameter", list(_value_parameters()), ids=lambda v: getattr(v, "__qualname__", v))
def test_every_value_parameter_has_a_row(function, parameter):
    slots = {slot for call, slot, _ in ROWS if call is function}
    names = list(inspect.signature(function).parameters)
    assert parameter in {names[slot] for slot in slots}
