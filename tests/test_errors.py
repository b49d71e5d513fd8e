"""Every user-triggerable error derives from ValidationError, message intact."""

import os
import tempfile

import numpy as np
import pytest

from qlinsys import family, grover, linsys, qasm, sim, synth, tomo
from qlinsys.errors import (
    DimensionMismatchError,
    InvalidCountsError,
    InvalidProbabilityError,
    InvalidTargetError,
    NegativeProbabilityError,
    NotNormalizedError,
    NotOrthogonalError,
    NotOrthonormalError,
    ValidationError,
)


def _load_csv(load, text):
    """`load` of a fresh file m.csv that holds `text`."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "m.csv")
        with open(path, "w") as handle:
            handle.write(text)
        load(path)


def _diag(*values):
    return np.diag(np.array(values, dtype=float))


#: Non-finite and huge inputs for the validators on the one-system path.
#: Each 4-tuple also fills a 4x4 diagonal, whose other entries are 0 and 1.
_BAD_VALUES = {
    "nan": (np.nan, 0.0, 0.0, 0.0),
    "inf": (np.inf, 0.0, 0.0, 0.0),
    "-inf": (-np.inf, 0.0, 0.0, 0.0),
    "inf_-inf": (np.inf, -np.inf, 0.0, 0.0),
    "nan_-1": (np.nan, -1.0, 1.0, 1.0),
}
_NOT_ORTHONORMAL = "^matrix columns are not orthonormal; transpose is not an inverse$"
_EMPTY = r"^expected a non-empty square matrix, got shape \(0, 0\)$"


def _table_with(word, value):
    values = {w: 0.0 for w in tomo.PAULI_WORDS}
    values.update(II=1.0, **{word: value})
    return tomo.ExpectationTable(values, "analytic")


CASES = {
    "sim.Circuit": (lambda: sim.Circuit(0), ValidationError, "at least one qubit"),
    "sim.ndim": (lambda: sim.apply_gate(np.ones((4, 2, 2)), sim.h(0)), DimensionMismatchError, "dimensions"),
    "sim.length": (lambda: sim.apply_gate(np.ones(3), sim.h(0)), DimensionMismatchError, "power of two"),
    "sim.basis_state": (lambda: sim.basis_state(2, 4), ValidationError, "out of range"),
    "sim.gate_target": (lambda: sim.h(1.7), ValidationError, "gate target must be an integer"),
    "sim.gate_target_bool": (lambda: sim.h(True), ValidationError, "gate target must be an integer"),
    "sim.phase_flip": (lambda: sim.phase_flip([1.9]), ValidationError, "phase-flip index must be an integer"),
    "sim.gate_scalar_targets": (lambda: sim.Gate("h", 0), InvalidTargetError, "must be sequences"),
    "sim.phase_flip_scalar": (lambda: sim.phase_flip(3), InvalidTargetError, "must be sequences"),
    "sim.flips_on_h": (lambda: sim.Gate("h", (0,), {99}), InvalidTargetError, "^h takes no phase-flip indices$"),
    "sim.Circuit_width": (lambda: sim.Circuit(2.5), ValidationError, "n_qubits must be an integer"),
    "sim.readout_nan": (lambda: sim.amplitudes_from_probabilities([np.nan, 1.0]), ValidationError, "finite"),
    "sim.readout_inf": (lambda: sim.amplitudes_from_probabilities([np.inf, 0.0]), ValidationError, "finite"),
    "sim.readout_shape": (
        lambda: sim.amplitudes_from_probabilities([[0.5, 0.5]]),
        DimensionMismatchError,
        r"probabilities must be a vector, got shape \(1, 2\)",
    ),
    "sim.apply_nan": (lambda: sim.apply_gate([np.nan, 0.0], sim.h(0)), ValidationError, "finite"),
    "sim.apply_inf": (lambda: sim.apply_gate(np.array([[np.inf], [0.0]]), sim.x(0)), ValidationError, "finite"),
    "sim.apply_non_gate": (lambda: sim.apply_gate(np.ones(2), "h"), InvalidTargetError, "expected a Gate"),
    # H adds before it scales, so a part above half the largest double would overflow.
    "sim.apply_h_overflow": (
        lambda: sim.apply_gate([1e308, 1e308], sim.h(0)),
        ValidationError,
        r"^H needs state parts of at most half the largest double, largest is 1e\+308$",
    ),
    "sim.apply_h_overflow_imag": (
        lambda: sim.apply_gate(np.array([[0.0], [-1e308j]]), sim.h(0)),
        ValidationError,
        r"^H needs state parts of at most half the largest double, largest is 1e\+308$",
    ),
    "sim.run_non_gate": (lambda: sim.run(sim.Circuit(1, (1,))), InvalidTargetError, "expected a Gate"),
    "sim.seed": (lambda: sim.sample_counts([0.5, 0.5], 10, 1.5), ValidationError, "seed must be an integer"),
    "sim.seed_none": (lambda: sim.sample_counts([0.5, 0.5], 10, None), ValidationError, "seed must be an integer"),
    "sim.seed_bool": (lambda: sim.sample_counts([0.5, 0.5], 10, True), ValidationError, "seed must be an integer"),
    "sim.seed_negative": (lambda: sim.sample_counts([0.5, 0.5], 10, -1), ValidationError, "seed must be non-negative"),
    "linsys.matrix": (lambda: linsys.solve(np.full((4, 4), np.nan), [1, 0, 0, 0]), ValidationError, "finite"),
    "linsys.rhs_shape": (
        lambda: linsys.solve(np.eye(4), [[1, 0], [0, 0]]),
        DimensionMismatchError,
        r"right-hand side must be a vector, got shape \(2, 2\)",
    ),
    # The vector-shape rule that residual applied to x now guards solve's y; a scalar y breaks it too.
    "linsys.residual_shape": (
        lambda: linsys.solve(np.eye(4), 1.0),
        DimensionMismatchError,
        r"right-hand side must be a vector, got shape \(\)",
    ),
    "linsys.vector": (
        lambda: linsys.solve(np.eye(4), [np.nan, 0, 0, 0]),
        ValidationError,
        "vector entries must be finite",
    ),
    "tomo.state_shape": (
        lambda: tomo.density_from_state([[1, 0], [0, 0]]),
        DimensionMismatchError,
        "state must be a vector",
    ),
    "tomo.fidelity_shape": (
        lambda: tomo.fidelity(np.eye(4) / 4, [[1, 0], [0, 0]]),
        DimensionMismatchError,
        "state must be a vector",
    ),
    "tomo.density": (lambda: tomo.apply_depolarizing(np.eye(4), 0.1), ValidationError, "physical"),
    "tomo.mode": (lambda: tomo.pauli_expectations(np.eye(4) / 4, mode="guess"), ValidationError, "mode"),
    "tomo.table": (
        lambda: tomo.reconstruct(tomo.ExpectationTable({"II": 1.0}, "analytic")),
        ValidationError,
        "incomplete",
    ),
    "tomo.reconstruct_nan": (lambda: tomo.reconstruct(_table_with("XZ", np.nan)), ValidationError, "finite"),
    "tomo.reconstruct_inf": (lambda: tomo.reconstruct(_table_with("YY", -np.inf)), ValidationError, "finite"),
    "family.label_kind": (lambda: family.FamilyLabel("C", (1, 2, 3, 4)), ValidationError, "column class"),
    "family.label_perm": (lambda: family.FamilyLabel("A", (1, 1, 2, 3)), ValidationError, "permutation"),
    # Base columns exist for the classes "A" and "B" only, and class names are case-sensitive.
    "family.base_columns": (lambda: family.FamilyLabel("a", (1, 2, 3, 4)), ValidationError, "column class"),
    "family.parse": (lambda: family.FamilyLabel.parse("A-1234"), ValidationError, "malformed"),
    "family.parse_newline": (lambda: family.FamilyLabel.parse("A_1234\n"), ValidationError, "malformed"),
    "family.parse_none": (lambda: family.FamilyLabel.parse(None), ValidationError, "malformed label None"),
    "family.label_perm_float": (
        lambda: family.FamilyLabel("A", (1.0, 2, 3, 4)),
        ValidationError,
        "permutation entry must be an integer, got 1.0",
    ),
    "family.label_perm_bool": (
        lambda: family.FamilyLabel("A", (True, 2, 3, 4)),
        ValidationError,
        "permutation entry must be an integer, got True",
    ),
    "family.label_perm_scalar": (lambda: family.FamilyLabel("A", 1234), ValidationError, "not a permutation"),
    "grover.probability": (
        lambda: grover.success_probability(grover.geometry(4, 1), -1),
        ValidationError,
        "non-negative",
    ),
    "grover.n_states": (lambda: grover.geometry(4.0, 1), ValidationError, "n_states must be an integer"),
    "grover.n_marked": (lambda: grover.geometry(4, 1.5), ValidationError, "n_marked must be an integer"),
    "grover.probability_iterations": (
        lambda: grover.success_probability(grover.geometry(4, 1), 1.5),
        ValidationError,
        "iterations must be an integer",
    ),
    "grover.qubits": (lambda: grover.build_grover_circuit(11, {0}, 1), InvalidCountsError, "n_qubits"),
    "grover.qubits_type": (lambda: grover.build_grover_circuit(2.0, {0}, 1), ValidationError, "n_qubits must be an"),
    "grover.iterations_type": (
        lambda: grover.build_grover_circuit(2, {0}, 1.5),
        ValidationError,
        "iterations must be an integer",
    ),
    "grover.marked": (lambda: grover.build_grover_circuit(2, [2.7], 1), ValidationError, "index must be an integer"),
    "grover.marked_scalar": (lambda: grover.build_grover_circuit(2, 3, 1), InvalidTargetError, "must be sequences"),
    "grover.iterations": (lambda: grover.build_grover_circuit(2, {0}, -1), ValidationError, "non-negative"),
    "grover.iterations_bound": (
        lambda: grover.build_grover_circuit(3, {1}, 10**9),
        ValidationError,
        "iterations must be at most 1024",
    ),
    "tomo.depolarize_empty": (lambda: tomo.apply_depolarizing(np.zeros((0, 0)), 0.1), ValidationError, "physical"),
    "tomo.expectations_empty": (lambda: tomo.pauli_expectations(np.zeros((0, 0))), ValidationError, "physical"),
    # A QASM export checks the gates as `sim.run` does.
    "qasm.target_range": (
        lambda: qasm.circuit_to_qasm(sim.Circuit(1, (sim.cx(0, 1),))),
        InvalidTargetError,
        r"^target \(0, 1\) out of range for 1 qubits$",
    ),
    "qasm.not_a_gate": (
        lambda: qasm.circuit_to_qasm(sim.Circuit(1, (1,))),
        InvalidTargetError,
        "^expected a Gate, got 1$",
    ),
    # A CSV file that holds no numbers, or a row that is not numbers, is named in the error, with no numpy warning.
    **{
        f"linsys.{load.__name__}_{name}": (
            lambda load=load, text=text: _load_csv(load, text),
            ValidationError,
            rf"m\.csv {message}",
        )
        for load in (linsys.load_matrix, linsys.load_vector)
        for name, text, message in [
            ("empty", "", "holds no numbers$"),
            ("blank", "\n\n", "holds no numbers$"),
            ("ragged", "1,2\n3\n", "is not a CSV of numbers: "),
            ("text", "1,a\n", "is not a CSV of numbers: "),
        ]
    },
    "synth.max_gates": (lambda: synth.synthesize(np.eye(4), max_gates=-1), ValidationError, "non-negative"),
    # The one-system path: linsys, synth, sim.probabilities and sampling.
    **{
        f"linsys.inverse_{name}": (
            lambda v=v: linsys.inverse_operator(_diag(*v)),
            ValidationError,
            "^matrix entries must be finite$",
        )
        for name, v in _BAD_VALUES.items()
    },
    "linsys.inverse_huge": (lambda: linsys.inverse_operator(np.full((4, 4), 1e200)), NotOrthonormalError, _NOT_ORTHONORMAL),
    "linsys.inverse_empty": (lambda: linsys.inverse_operator(np.zeros((0, 0))), DimensionMismatchError, _EMPTY),
    "linsys.solve_empty": (lambda: linsys.solve(np.zeros((0, 0)), []), DimensionMismatchError, _EMPTY),
    "linsys.solve_huge": (
        lambda: linsys.solve(np.full((4, 4), 1e200), [1, 0, 0, 0]),
        NotOrthonormalError,
        "^matrix columns are not orthonormal$",
    ),
    # Every right-hand-side rule comes before the orthonormality test, and the matrix's finiteness before them all.
    "linsys.solve_huge_nan_rhs": (
        lambda: linsys.solve(np.full((4, 4), 1e200), [np.nan, 0, 0, 0]),
        ValidationError,
        "^vector entries must be finite$",
    ),
    "linsys.solve_huge_short_rhs": (
        lambda: linsys.solve(np.full((4, 4), 1e200), [1, 0]),
        DimensionMismatchError,
        r"^right-hand side has length 2, matrix is 4x4$",
    ),
    "linsys.solve_inf_nan_rhs": (
        lambda: linsys.solve(np.full((4, 4), np.inf), [np.nan, 0, 0, 0]),
        ValidationError,
        "^matrix entries must be finite$",
    ),
    **{
        f"synth.target_{name}": (
            lambda v=v: synth.synthesize(_diag(*v)),
            NotOrthogonalError,
            "^synthesis target must be orthogonal$",
        )
        for name, v in {**_BAD_VALUES, "huge": (1e200, 1.0, 1.0, 1.0)}.items()
    },
    "synth.target_full_huge": (
        lambda: synth.synthesize(np.full((4, 4), 1e200)),
        NotOrthogonalError,
        "^synthesis target must be orthogonal$",
    ),
    # Orthogonality comes before the budget's type.
    "synth.target_before_budget": (
        lambda: synth.synthesize(3 * np.eye(4), 2.5),
        NotOrthogonalError,
        "^synthesis target must be orthogonal$",
    ),
    "synth.target_empty": (
        lambda: synth.synthesize(np.zeros((0, 0))),
        DimensionMismatchError,
        r"^target must be 4x4, got shape \(0, 0\)$",
    ),
    **{
        f"sim.probabilities_{name}": (
            lambda v=v: sim.probabilities(v),
            ValidationError,
            "^state entries must be finite$",
        )
        for name, v in {**_BAD_VALUES, "nan_imag": (complex(0, np.nan), 1, 0, 0)}.items()
    },
    "sim.probabilities_huge": (
        lambda: sim.probabilities([1e200, 0.0]),
        ValidationError,
        r"^state magnitudes must have finite squares, largest is 1e\+200$",
    ),
    "sim.probabilities_length": (
        lambda: sim.probabilities([np.nan, 0.0, 0.0]),
        DimensionMismatchError,
        "^state length 3 is not a power of two$",
    ),
    **{
        f"sim.sample_{name}": (
            lambda v=v: sim.sample_counts(v, 10, 0),
            ValidationError,
            "^probabilities must be finite$",
        )
        for name, v in _BAD_VALUES.items()
    },
    "sim.sample_huge": (
        lambda: sim.sample_counts([1e200, 0.0], 10, 0),
        NotNormalizedError,
        r"^probability rows must sum to 1, worst is off by 1e\+200$",
    ),
    # The sum overflows; pytest turns numpy's overflow warning into an error, as -W error does.
    "sim.sample_overflow": (
        lambda: sim.sample_counts([1e308, 1e308], 10, 0),
        NotNormalizedError,
        "^probability rows must sum to 1, worst is off by inf$",
    ),
    "sim.sample_negative": (
        lambda: sim.sample_counts([-0.5, 1.5], 10, 0),
        NegativeProbabilityError,
        "^probabilities must be non-negative, min is -0.5$",
    ),
    "sim.sample_empty": (
        lambda: sim.sample_counts(np.zeros(0), 10, 0),
        NotNormalizedError,
        "^probability rows must sum to 1, worst is off by 1.0$",
    ),
    **{
        f"sim.sample_block_{name}": (
            lambda row=row: sim.sample_counts([[0.5, 0.5], row, [0.5, 0.5]], 10, 0),
            error,
            message,
        )
        for name, row, error, message in [
            ("nan", [np.nan, 0.5], ValidationError, "^probabilities must be finite$"),
            ("inf", [np.inf, 0.0], ValidationError, "^probabilities must be finite$"),
            ("negative", [-0.5, 1.5], NegativeProbabilityError, "^probabilities must be non-negative, min is -0.5$"),
            (
                "sum",
                [0.5, 0.6],
                NotNormalizedError,
                "^probability rows must sum to 1, worst is off by 0.10000000000000009$",
            ),
        ]
    },
    # Shape, shots and seed come before the entries.
    "sim.sample_shots_first": (
        lambda: sim.sample_counts([np.nan, 1.0], 0, 0),
        ValidationError,
        "^shots must be at least 1$",
    ),
    "sim.sample_seed_first": (
        lambda: sim.sample_counts([np.nan, 1.0], 10, -1),
        ValidationError,
        "^seed must be non-negative$",
    ),
    "sim.distribution_inf": (
        lambda: sim.sample_distribution([np.inf, 0.0], 10, 0),
        ValidationError,
        "^probabilities must be finite$",
    ),
    "sim.distribution_empty": (
        lambda: sim.sample_distribution([], 10, 0),
        DimensionMismatchError,
        "^state length 0 is not a power of two$",
    ),
    "tomo.depolarize_nan": (
        lambda: tomo.apply_depolarizing(np.eye(4) / 4, np.nan),
        InvalidProbabilityError,
        r"must lie in \[0, 1\], got nan",
    ),
    **{
        f"tomo.depolarize_{name}": (
            lambda p=p: tomo.apply_depolarizing(np.eye(4) / 4, p),
            InvalidProbabilityError,
            "depolarizing strength must be a real number",
        )
        for name, p in [("bool", True), ("np_bool", np.True_), ("str", "0.1"), ("none", None), ("complex", 1 + 0j)]
    },
    **{
        f"tomo.reconstruct_{name}": (
            lambda value=value: tomo.reconstruct(_table_with("XY", value)),
            ValidationError,
            "expectation values must be real numbers",
        )
        for name, value in [("complex", 1j), ("str", "x"), ("none", None), ("list", [0.1]), ("array", np.zeros(1))]
    },
}


@pytest.mark.parametrize("site", CASES)
def test_raises_a_validation_error(site):
    call, error, message = CASES[site]
    assert issubclass(error, ValidationError)
    with pytest.raises(error, match=message) as raised:
        call()
    assert type(raised.value) is error
