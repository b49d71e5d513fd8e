"""Every user-triggerable error derives from ValidationError, message intact."""

import ast
import inspect
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qlinsys import errors, family, grover, linsys, qasm, sim, synth, tomo
from qlinsys.errors import (
    DimensionMismatchError,
    InvalidCountsError,
    InvalidProbabilityError,
    InvalidTargetError,
    NotNormalizedError,
    NotOrthonormalError,
    UnsupportedGateError,
    ValidationError,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qlinsys"


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


#: Values that no array of doubles holds, or that the conversion rule refuses.
_NOT_NUMBERS = {
    "text": "abc",
    "numeric_text": ["0.5", "0.5"],
    "bytes": b"ab",
    "ragged": [[1.0, 0.0], [0.0]],
    "set": {1.0, 0.0},
    "object": np.array([1.0, 0.0], dtype=object),
    "huge": [10**400, 0],
}


def _table_with(word, value):
    values = [1.0] + [0.0] * 15  # II first
    values[tomo.PAULI_WORDS.index(word)] = value
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
    "sim.Circuit_ops_none": (lambda: sim.Circuit(2, None), InvalidTargetError, "^circuit ops must be a sequence of gates, got None$"),
    "sim.Circuit_ops_scalar": (lambda: sim.Circuit(2, 5), InvalidTargetError, "^circuit ops must be a sequence of gates, got 5$"),
    # The dtype decides, before any value rule: a zero imaginary part raises too.
    "sim.apply_complex": (
        lambda: sim.apply_gate(np.zeros(2, dtype=complex), sim.h(0)),
        ValidationError,
        "^state entries must be real$",
    ),
    "sim.apply_nan": (lambda: sim.apply_gate([np.nan, 0.0], sim.h(0)), ValidationError, "finite"),
    "sim.apply_inf": (lambda: sim.apply_gate(np.array([[np.inf], [0.0]]), sim.x(0)), ValidationError, "finite"),
    "sim.apply_non_gate": (lambda: sim.apply_gate(np.ones(2), "h"), InvalidTargetError, "expected a Gate"),
    # H adds before it scales, so an entry above half the largest double would overflow.
    "sim.apply_h_overflow": (
        lambda: sim.apply_gate([1e308, 1e308], sim.h(0)),
        ValidationError,
        r"^H needs state entries of at most half the largest double, largest is 1e\+308$",
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
        lambda: tomo.reconstruct(tomo.ExpectationTable(np.array([1.0]), "analytic")),
        ValidationError,
        r"^expectation table must hold 16 values, got shape \(1,\)$",
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
        lambda: grover.success_probability(grover.theta(4, 1), -1),
        ValidationError,
        "non-negative",
    ),
    **{
        f"grover.{name}_angle_{angle_name}": (
            lambda call=call, angle=angle: call(angle),
            ValidationError,
            rf"^theta must lie in \(0, pi/2\], got {angle!r}$",
        )
        for name, call in [
            ("iterations", grover.optimal_iterations),
            ("probability", lambda angle: grover.success_probability(angle, 3)),
        ]
        for angle_name, angle in [("zero", 0.0), ("nan", np.nan), ("inf", np.inf), ("negative", -0.3)]
    },
    "grover.n_states": (lambda: grover.theta(4.0, 1), ValidationError, "n_states must be an integer"),
    "grover.n_marked": (lambda: grover.theta(4, 1.5), ValidationError, "n_marked must be an integer"),
    "grover.probability_iterations": (
        lambda: grover.success_probability(grover.theta(4, 1), 1.5),
        ValidationError,
        "iterations must be an integer",
    ),
    # 1 / 2**1100 underflows to 0.0, which would leave a zero angle.
    "grover.theta_underflow": (
        lambda: grover.theta(2**1100, 1),
        InvalidCountsError,
        r"^n_marked / n_states underflows to 0 at n_states = 2\*\*1100$",
    ),
    # 2k + 1 would not convert to a double.
    "grover.probability_iterations_huge": (
        lambda: grover.success_probability(grover.theta(4, 1), 10**400),
        ValidationError,
        r"^iterations must be below 2\*\*1022$",
    ),
    "grover.marked_empty": (
        lambda: grover.build_grover_circuit(3, set(), 1),
        InvalidCountsError,
        "^marked set must not be empty$",
    ),
    "grover.marked_range": (
        lambda: grover.build_grover_circuit(3, {2, 8}, 1),
        InvalidCountsError,
        r"^marked indices \[2, 8\] out of range for 3 qubits$",
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
    "qasm.phase_flip": (
        lambda: qasm.circuit_to_qasm(sim.Circuit(2, (sim.h(0), sim.phase_flip({3})))),
        UnsupportedGateError,
        "^gate kind 'phaseflip' has no OpenQASM 2.0 form$",
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
    # A non-finite y fails the unit-norm, length or orthonormality test, and is refused as non-finite first.
    **{
        f"linsys.solve_{rule}_{name}_rhs": (
            lambda a=a, y=y: linsys.solve(a, y),
            ValidationError,
            "^vector entries must be finite$",
        )
        for name, bad in (("nan", np.nan), ("inf", np.inf), ("neg_inf", -np.inf))
        for rule, a, y in (
            ("unit_norm", np.eye(4), [0.0, bad, 0.0, 0.0]),
            ("length", np.eye(4), [bad, 0.0]),
            ("orthonormal", 2.0 * np.eye(4), [0.0, 0.0, 0.0, bad]),
        )
    },
    **{
        f"synth.target_{name}": (
            lambda v=v: synth.synthesize(_diag(*v)),
            NotOrthonormalError,
            "^synthesis target must be orthogonal$",
        )
        for name, v in {**_BAD_VALUES, "huge": (1e200, 1.0, 1.0, 1.0)}.items()
    },
    "synth.target_full_huge": (
        lambda: synth.synthesize(np.full((4, 4), 1e200)),
        NotOrthonormalError,
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
    # Only a row with an entry above 2 is summed under the overflow guard, and no such row sums to 1.
    "sim.sample_block_overflow": (
        lambda: sim.sample_counts([[0.5, 0.5], [1e308, 1e308]], 10, 0),
        NotNormalizedError,
        "^probability rows must sum to 1, worst is off by inf$",
    ),
    "sim.sample_just_above_two": (
        lambda: sim.sample_counts([np.nextafter(2.0, 3.0), 0.0], 10, 0),
        NotNormalizedError,
        "^probability rows must sum to 1, worst is off by 1.0000000000000004$",
    ),
    "sim.sample_at_two": (
        lambda: sim.sample_counts([[0.5, 0.5], [2.0, 0.0]], 10, 0),
        NotNormalizedError,
        "^probability rows must sum to 1, worst is off by 1.0$",
    ),
    "sim.sample_negative": (
        lambda: sim.sample_counts([-0.5, 1.5], 10, 0),
        InvalidProbabilityError,
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
            ("negative", [-0.5, 1.5], InvalidProbabilityError, "^probabilities must be non-negative, min is -0.5$"),
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
    "sim.sample_shots_huge": (
        lambda: sim.sample_counts([[0.5, 0.5], [1.0, 0.0]], 2**63, 0),
        ValidationError,
        r"^shots must be below 2\*\*63, got 9223372036854775808$",
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
    # Entries outside [+0, 2] by their bits (NaN, -NaN, negatives, -0, above 2) take the minimum and the guarded sum.
    **{
        f"sim.sample_bits_{name}": (call, error, message)
        for name, call, error, message in [
            ("nan_negative", lambda: sim.sample_counts([np.nan, -1.0], 10, 0), ValidationError, "^probabilities must be finite$"),
            (
                "negative_nan",
                lambda: sim.sample_counts([np.copysign(np.nan, -1.0), 0.5, 0.5], 10, 0),
                ValidationError,
                "^probabilities must be finite$",
            ),
            (
                "two_negative",
                lambda: sim.sample_counts([2.0, -1.0], 10, 0),
                InvalidProbabilityError,
                "^probabilities must be non-negative, min is -1.0$",
            ),
            (
                "tiny_negative",
                lambda: sim.sample_counts([-5e-324, 1.0], 10, 0),
                InvalidProbabilityError,
                "^probabilities must be non-negative, min is -5e-324$",
            ),
            (
                "strided_negative",
                lambda: sim.sample_counts(np.array([0.5, 9.0, -0.5, 9.0, 1.0])[::2], 10, 0),
                InvalidProbabilityError,
                "^probabilities must be non-negative, min is -0.5$",
            ),
            (
                "negative_zero_sum",
                lambda: sim.sample_counts([-0.0, 0.5], 10, 0),
                NotNormalizedError,
                "^probability rows must sum to 1, worst is off by 0.5$",
            ),
            (
                "block_negative_zero_sum",
                lambda: sim.sample_counts([[0.5, 0.5], [-0.0, 0.5]], 10, 0),
                NotNormalizedError,
                "^probability rows must sum to 1, worst is off by 0.5$",
            ),
            (
                "one_empty_row",
                lambda: sim.sample_counts(np.zeros((1, 0)), 10, 0),
                ValidationError,
                r"^expected a probability vector or a block of rows, got shape \(1, 0\)$",
            ),
            (
                "distribution_two_negative",
                lambda: sim.sample_distribution([2.0, -1.0], 10, 0),
                InvalidProbabilityError,
                "^probabilities must be non-negative, min is -1.0$",
            ),
        ]
    },
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
    # A complex dtype is refused before the float conversion, which would drop the imaginary part.
    **{
        f"{site}_complex": (call, ValidationError, message)
        for site, call, message in [
            ("linsys.inverse", lambda: linsys.inverse_operator(np.eye(4) + np.diag([0, 0, 0, 5j])), "^matrix entries must be real$"),
            ("linsys.solve_matrix", lambda: linsys.solve(np.eye(4) + 0j, [1, 0, 0, 0]), "^matrix entries must be real$"),
            ("linsys.solve_rhs", lambda: linsys.solve(np.eye(4), [1 + 0j, 0, 0, 0]), "^vector entries must be real$"),
            ("synth.target", lambda: synth.synthesize(np.eye(4) * (1 + 1e-3j)), "^synthesis target must be real$"),
            ("sim.sample", lambda: sim.sample_counts([0.5, 0.5 + 0.5j], 10, 0), "^probabilities must be real$"),
            ("sim.distribution", lambda: sim.sample_distribution([1.0 + 0j, 0.0], 10, 0), "^probabilities must be real$"),
        ]
    },
    # Text, or an int no double holds, is refused as such, not with the conversion's own
    # ValueError or OverflowError.  tomo's rows reach `is_physical`, which says False.
    **{
        f"{site}_not_double": (call, ValidationError, message)
        for site, call, message in [
            ("linsys.inverse", lambda: linsys.inverse_operator([[10**400]]), "^matrix entries must be real$"),
            ("linsys.solve", lambda: linsys.solve(np.eye(1), [10**400]), "^vector entries must be real$"),
            ("sim.sample", lambda: sim.sample_counts([10**400], 10, 0), "^probabilities must be real$"),
            ("synth.target", lambda: synth.synthesize("abc"), "^synthesis target must be real$"),
            ("tomo.depolarize_huge", lambda: tomo.apply_depolarizing([[10**400]], 0.1), "^input is not a physical density matrix$"),
            ("tomo.expectations_text", lambda: tomo.pauli_expectations("abc"), "^input is not a physical density matrix$"),
        ]
    },
    # One width bound, checked before any 2**n_qubits is formed.
    **{
        f"sim.{site}_width_{name}": (lambda make=make, n=n: make(n), ValidationError, message)
        for site, make, names in [
            ("Circuit", sim.Circuit, "above far_above"),
            ("basis_state", lambda n: sim.basis_state(n, 0), "above far_above zero negative bool"),
            ("bitstring", lambda n: sim.bitstring(0, n), "above far_above zero negative bool"),
        ]
        for name, n, message in [
            ("above", 11, "^n_qubits must be at most 10, got 11$"),
            ("far_above", 200, "^n_qubits must be at most 10, got 200$"),
            ("zero", 0, "^a circuit needs at least one qubit$"),
            ("negative", -1, "^a circuit needs at least one qubit$"),
            ("bool", True, "^n_qubits must be an integer, got True$"),
        ]
        if name in names.split()
    },
    "sim.bitstring_negative": (lambda: sim.bitstring(-1, 2), ValidationError, "^basis index -1 out of range for 2 qubits$"),
    "sim.bitstring_range": (lambda: sim.bitstring(5, 2), ValidationError, "^basis index 5 out of range for 2 qubits$"),
    "sim.bitstring_float": (lambda: sim.bitstring(1.0, 2), ValidationError, "^basis index must be an integer, got 1.0$"),
    "sim.gate_kind_list": (lambda: sim.Gate(["h"], (0,)), InvalidTargetError, r"^unknown gate kind \['h'\]$"),
    "sim.sample_empty_block": (
        lambda: sim.sample_counts(np.zeros((0, 0)), 10, 0),
        ValidationError,
        r"^expected a probability vector or a block of rows, got shape \(0, 0\)$",
    ),
    "tomo.mode_array": (
        lambda: tomo.pauli_expectations(np.eye(4) / 4, mode=np.array(["a", "b"])),
        ValidationError,
        r"^mode must be 'analytic' or 'sampled', got array\(\['a', 'b'\]",
    ),
    # The dtype decides before the shape: a complex state of the wrong length is refused as complex.
    "sim.apply_complex_length": (
        lambda: sim.apply_gate(np.zeros(3, dtype=complex), sim.h(0)),
        ValidationError,
        "^state entries must be real$",
    ),
    # One conversion rule refuses text, numeric text included, bytes, ragged lists, sets, object arrays and
    # ints that no double holds, at the real sites as at the complex ones.
    **{
        f"{site}_not_a_number_{name}": (lambda call=call, value=_NOT_NUMBERS[name]: call(value), ValidationError, message)
        for site, call, message, names in [
            ("sim.apply", lambda v: sim.apply_gate(v, sim.h(0)), "^state entries must be real$", _NOT_NUMBERS),
            ("sim.probabilities", sim.probabilities, "^state entries must be numbers$", _NOT_NUMBERS),
            ("tomo.state", tomo.density_from_state, "^state entries must be numbers$", _NOT_NUMBERS),
            ("tomo.fidelity_rho", lambda v: tomo.fidelity(v, [1.0, 0.0]), "^density matrix entries must be numbers$", _NOT_NUMBERS),
            ("tomo.fidelity_psi", lambda v: tomo.fidelity(np.diag([1.0, 0.0]), v), "^state entries must be numbers$", _NOT_NUMBERS),
            ("linsys.solve_rhs", lambda v: linsys.solve(np.eye(2), v), "^vector entries must be real$", ["numeric_text", "object"]),
            ("sim.sample", lambda v: sim.sample_counts(v, 10, 0), "^probabilities must be real$", ["numeric_text", "object"]),
        ]
        for name in names
    },
    # A real scalar is a bool-free int or float that a double holds.
    **{
        f"grover.{name}_angle_not_real_{value_name}": (
            lambda call=call, value=value: call(value),
            ValidationError,
            rf"^theta must be a real number, got {message}$",
        )
        for name, call in [
            ("iterations", grover.optimal_iterations),
            ("probability", lambda angle: grover.success_probability(angle, 3)),
        ]
        for value_name, value, message in [
            ("text", "0.5", "'0.5'"),
            ("bool", True, "True"),
            ("huge", 10**400, "1" + "0" * 400),
            ("array", np.array([0.5, 0.5]), r"array\(\[0.5, 0.5\]\)"),
        ]
    },
    "tomo.depolarize_huge": (
        lambda: tomo.apply_depolarizing(np.eye(4) / 4, 10**400),
        InvalidProbabilityError,
        "^depolarizing strength must be a real number, got 1" + "0" * 400 + "$",
    ),
    # A value that holds an int too long for Python to print is echoed by its type.
    **{
        f"{site}_unprintable_int": (call, error, f"^{message}$")
        for site, call, error, message in [
            (
                "sim.Circuit",
                lambda: sim.Circuit(10**5000),
                ValidationError,
                "n_qubits must be at most 10, got <int too long to print>",
            ),
            (
                "sim.shots",
                lambda: sim.sample_counts([0.5, 0.5], 10**5000, 0),
                ValidationError,
                r"shots must be below 2\*\*63, got <int too long to print>",
            ),
            (
                "sim.gate_target",
                lambda: sim.Circuit(1, (sim.h(10**5000),)),
                InvalidTargetError,
                "target <tuple too long to print> out of range for 1 qubits",
            ),
            (
                "sim.gate_kind",
                lambda: sim.Gate([10**5000]),
                InvalidTargetError,
                "unknown gate kind <list too long to print>",
            ),
            (
                "grover.iterations",
                lambda: grover.optimal_iterations(10**5000),
                ValidationError,
                "theta must be a real number, got <int too long to print>",
            ),
            (
                "tomo.depolarize",
                lambda: tomo.apply_depolarizing(np.eye(2) / 2, 10**5000),
                InvalidProbabilityError,
                "depolarizing strength must be a real number, got <int too long to print>",
            ),
            (
                "family.perm",
                lambda: family.FamilyLabel("A", (10**5000, 2, 3, 4)),
                ValidationError,
                r"<tuple too long to print> is not a permutation of \(1, 2, 3, 4\)",
            ),
        ]
    },
}


@pytest.mark.parametrize("rho", [[[10**400]], "abc"], ids=["huge", "text"])
def test_a_non_double_is_not_physical(rho):
    assert tomo.is_physical(rho) is False


@pytest.mark.parametrize("site", CASES)
def test_raises_a_validation_error(site):
    call, error, message = CASES[site]
    assert issubclass(error, ValidationError)
    with pytest.raises(error, match=message) as raised:
        call()
    assert type(raised.value) is error


def _raised_in_src() -> set[str]:
    """The source text of what each `raise` in the package raises, with a call's arguments dropped."""
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
    return raised


ERROR_CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, ValidationError)]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_is_raised_and_pinned(error):
    """The package raises each class by name, and some case above expects exactly that class."""
    assert error.__name__ in _raised_in_src()
    assert any(row[1] is error for row in CASES.values())


class TestMemoVerdict:
    """`errors.memo_verdict` checks each exact input of at most 64 entries once, and keeps 512 keys."""

    @staticmethod
    def _counted():
        """A memoized verdict, and the list of the arrays its check was called on."""
        seen = []

        @errors.memo_verdict
        def positive(m):
            """Whether every entry is positive."""
            seen.append(m.copy())
            return bool((m > 0).all())

        return positive, seen

    def test_the_check_runs_once_per_bytes_dtype_and_shape(self):
        verdict, seen = self._counted()
        a = np.arange(1.0, 17.0).reshape(4, 4)
        inputs = [a, a.copy(), a.reshape(2, 8), a.astype(complex), a.astype(np.float32), -a, a]
        assert [verdict(m) for m in inputs] == [True] * 5 + [False, True]
        keys = [(float, (4, 4)), (float, (2, 8)), (complex, (4, 4)), (np.float32, (4, 4)), (float, (4, 4))]
        assert [(m.dtype, m.shape) for m in seen] == [(np.dtype(t), shape) for t, shape in keys]
        assert verdict.cache_info().currsize == 5
        verdict.cache_clear()
        assert verdict(a) and len(seen) == 6
        assert (verdict.__name__, verdict.__doc__) == ("positive", "Whether every entry is positive.")

    def test_a_view_shares_its_copys_key_and_is_checked_as_the_copy(self):
        verdict, seen = self._counted()
        view = np.arange(1.0, 17.0).reshape(4, 4).T
        assert verdict(view) and verdict(np.ascontiguousarray(view))
        assert len(seen) == 1 and seen[0].flags.c_contiguous and np.array_equal(seen[0], view)

    def test_above_64_entries_the_check_runs_on_every_call(self):
        verdict, seen = self._counted()
        for n in (8, 9):
            wide = np.arange(1.0, n * n + 1).reshape(n, n).T
            for _ in range(3):
                assert verdict(wide)
        assert [m.shape for m in seen] == [(8, 8)] + [(9, 9)] * 3
        assert all(m.flags.c_contiguous and np.array_equal(m, wide) for m in seen[1:])
        assert verdict.cache_info().currsize == 1

    def test_the_cache_holds_the_last_512_keys(self):
        verdict, seen = self._counted()
        for k in range(600):
            verdict(np.array([k + 1.0]))
            assert verdict.cache_info().currsize <= 512
        assert verdict.cache_info().currsize == 512
        verdict(np.array([600.0]))  # still held
        assert len(seen) == 600
        verdict(np.array([1.0]))  # evicted
        assert len(seen) == 601
