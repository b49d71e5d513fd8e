import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlinsys import cli, family, linsys, qasm, sim, synth

from make_golden import MORE_TARGETS, TARGETS

GOLDEN = Path(__file__).parent / "golden"
PINNED = {**TARGETS, **MORE_TARGETS}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("golden", PINNED)
def test_output_matches_its_golden_file(capsys, golden):
    code, out, _ = run_cli(capsys, *PINNED[golden])
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_every_golden_file_has_a_target():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(PINNED)


_HUGE = "99999999999999999999"  # past 2**63, so no C long holds it
_DIGITS = "1" * 5000  # past the 4,300 digits that Python converts from text

#: Bad input and how the CLI refuses it: argparse's usage exit 2 or the
#: validation exit 3, and the last stderr line.
REFUSED = {
    "unknown label": (
        ["run", "--label", "A_9999"],
        2,
        "argument --label: malformed label 'A_9999', expected e.g. 'A_1234'",
    ),
    "zero shots": (["run", "--label", "A_1324", "--shots", "0"], 2, "argument --shots: must be at least 1"),
    "unparsable y": (["solve", "--label", "A_1234", "--y", "abc"], 3, "could not parse 'abc' as a vector or file path"),
    "short y": (["solve", "--label", "A_1234", "--y", "1,0"], 3, "y has length 2, expected 4"),
    **{
        f"non-finite y {y}": (["solve", "--label", "A_1234", "--y", y], 3, f"y must be finite, got {y!r}")
        for y in ("nan,0,0,0", "1,inf,0,0")
    },
    **{
        f"5000-digit {flag}": (argv + [flag, _DIGITS], 2, f"argument {flag}: invalid int value: '{_DIGITS}'")
        for argv, flag in ((["run", "--label", "A_1234"], "--basis"), (["grover"], "--iterations"))
    },
    "basis past the register": (["run", "--label", "A_1234", "--basis", "4"], 3, "basis index 4 out of range for 2 qubits"),
    "negative basis": (["run", "--label", "A_1234", "--basis", "-1"], 3, "basis index -1 out of range for 2 qubits"),
    "fractional basis": (["run", "--label", "A_1234", "--basis", "1.5"], 2, "argument --basis: invalid int value: '1.5'"),
    # Removed routes: run takes its right-hand side as --basis, synth prints JSON only, and no command has a budget.
    "run y": (["run", "--label", "A_1234", "--y", "0,1,0,0"], 2, "unrecognized arguments: --y 0,1,0,0"),
    **{
        f"synth {output} output{' of all' if argv[-1] == '--all' else ''}": (
            argv + ["--output", output],
            2,
            f"unrecognized arguments: --output {output}",
        )
        for argv, output in ((["synth", "--label", "A_1234"], "qasm"), (["synth", "--all"], "qasm"), (["synth", "--all"], "json"))
    },
    **{
        f"{argv[0]} gate budget": (argv + ["--max-gates", "3"], 2, "unrecognized arguments: --max-gates 3")
        for argv in (["run", "--label", "A_1234"], ["synth", "--label", "A_1234"], ["qasm", "--label", "A_1234"])
    },
    **{
        f"{argv[0]} shots past 2**63": (argv + ["--shots", _HUGE], 3, f"shots must be below 2**63, got {_HUGE}")
        for argv in (["run", "--label", "A_1324"], ["tomo", "--label", "A_1234"], ["table1"])
    },
}


@pytest.mark.parametrize("argv, code, message", REFUSED.values(), ids=REFUSED)
def test_bad_input_is_refused_with_one_error_line(capsys, argv, code, message):
    try:
        got = cli.main(argv)
    except SystemExit as raised:
        got = raised.code
    err = capsys.readouterr().err
    assert got == code
    assert err.endswith(f"error: {message}\n")
    assert err.count("error:") == 1
    if code == 3:
        assert err == f"error: {message}\n"


@pytest.fixture
def identity_csv(tmp_path):
    path = tmp_path / "identity.csv"
    path.write_text("1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
    return str(path)


@pytest.fixture
def nonorthogonal_csv(tmp_path):
    path = tmp_path / "nonorthogonal.csv"
    path.write_text("1,1,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
    return str(path)


@pytest.fixture
def rotation_csv(tmp_path):
    # Orthogonal but outside the synthesizable group.
    c, s = math.cos(0.3), math.sin(0.3)
    rows = [[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    path = tmp_path / "rotation.csv"
    path.write_text("\n".join(",".join(repr(v) for v in row) for row in rows) + "\n")
    return str(path)


class TestFamilyList:
    def test_all_rows(self, capsys):
        code, out, _ = run_cli(capsys, "family", "list")
        assert code == 0
        assert len(out.splitlines()) == 48

    def test_class_filter(self, capsys):
        code, out, _ = run_cli(capsys, "family", "list", "--class", "A")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 24
        assert all(line.startswith("A_") for line in lines)

    def test_bad_class_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["family", "list", "--class", "C"])
        assert excinfo.value.code == 2

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "family", "list", "--class", "B", "--output", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 24
        head = rows[0]
        assert head["label"] == "B_1234"
        assert head["subset"] == "B1"
        assert head["y"] == [1.0, 0.0, 0.0, 0.0]
        assert len(head["equations"]) == 4
        assert np.array(head["matrix"]).shape == (4, 4)


class TestSolve:
    def test_label_json(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--label", "A_1234", "--output", "json")
        payload = json.loads(out)
        assert payload["x"] == [0.5, 0.5, 0.5, 0.5]
        assert payload["probabilities"] == [0.25] * 4
        assert payload["readout_magnitudes"] == [0.5] * 4

    def test_sign_loss_is_visible_in_json(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--label", "A_1234", "--y", "0,1,0,0", "--output", "json")
        payload = json.loads(out)
        assert payload["x"] == [0.5, -0.5, -0.5, 0.5]
        assert payload["readout_magnitudes"] == [0.5] * 4

    def test_matrix_file_with_rhs(self, capsys, identity_csv):
        _, out, _ = run_cli(capsys, "solve", "--matrix", identity_csv, "--y", "0,1,0,0", "--output", "json")
        assert json.loads(out)["x"] == [0.0, 1.0, 0.0, 0.0]

    def test_matrix_of_any_size(self, capsys, tmp_path):
        # Solving is not limited to qubit registers: a 3x3 system has no state, but still a solution.
        path = tmp_path / "eye3.csv"
        path.write_text("1,0,0\n0,1,0\n0,0,1\n")
        code, out, _ = run_cli(capsys, "solve", "--matrix", str(path), "--y", "0,0,-1", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["x"] == [0.0, 0.0, -1.0]
        assert payload["readout_magnitudes"] == [0.0, 0.0, 1.0]

    def test_rhs_from_file(self, capsys, tmp_path):
        rhs = tmp_path / "y.csv"
        rhs.write_text("0,1,0,0\n")
        _, out, _ = run_cli(capsys, "solve", "--label", "A_1234", "--y", str(rhs), "--output", "json")
        assert json.loads(out)["x"] == [0.5, -0.5, -0.5, 0.5]

    def test_nonorthogonal_matrix_exits_3(self, capsys, nonorthogonal_csv):
        code, _, err = run_cli(capsys, "solve", "--matrix", nonorthogonal_csv)
        assert code == 3
        assert "orthonormal" in err

    def test_empty_matrix_file_exits_3_with_warnings_as_errors(self, tmp_path):
        # numpy warns on a file with no data; the loader turns that into a validation error.
        path = tmp_path / "empty.csv"
        path.write_text("")
        argv = [sys.executable, "-W", "error", "-m", "qlinsys.cli", "solve", "--matrix", str(path)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr == f"error: {path} holds no numbers\n"

    def test_unnormalized_rhs_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--label", "A_1234", "--y", "1,1,0,0")
        assert code == 3
        assert "norm" in err

    def test_label_and_matrix_conflict(self, identity_csv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "--label", "A_1234", "--matrix", identity_csv])
        assert excinfo.value.code == 2


class TestRun:
    def test_counts_sum_to_shots(self, capsys):
        _, out, _ = run_cli(capsys, "run", "--label", "A_1234", "--shots", "4", "--output", "json")
        payload = json.loads(out)
        assert sum(payload["counts"].values()) == 4
        assert set(payload["counts"]) == {"00", "01", "10", "11"}

    def test_json_schema(self, capsys):
        _, out, _ = run_cli(capsys, "run", "--label", "B_2413", "--output", "json")
        payload = json.loads(out)
        assert payload["label"] == "B_2413"
        assert payload["shots"] == 1024
        assert payload["seed"] == 0
        for freq in payload["frequencies"].values():
            assert 0.20 <= freq <= 0.30

    @pytest.mark.parametrize(
        "output, expected",
        [
            (
                "table",
                "circuit        00/0000     01/0001     10/0010     11/0011\n"
                "A_1324         26.855%     24.512%     24.707%     23.926%\n",
            ),
            ("csv", "circuit,0000,0001,0010,0011\nA_1324,26.855,24.512,24.707,23.926\n"),
        ],
        ids=["table", "csv"],
    )
    def test_row_formats(self, capsys, output, expected):
        _, out, _ = run_cli(capsys, "run", "--label", "A_1324", "--output", output)
        assert out == expected

    def test_seeded_band(self, capsys):
        _, out, _ = run_cli(capsys, "run", "--label", "A_1324", "--shots", "1024", "--seed", "7", "--output", "json")
        for freq in json.loads(out)["frequencies"].values():
            assert 0.20 <= freq <= 0.30

    def test_basis_flag_changes_solution_column(self, capsys):
        _, out, _ = run_cli(capsys, "run", "--label", "A_1234", "--basis", "1", "--shots", "100000", "--output", "json")
        x = linsys.solve(family.matrix_for(family.FamilyLabel.parse("A_1234")), [0, 1, 0, 0])
        freqs = json.loads(out)["frequencies"]
        for index, bits in enumerate(("00", "01", "10", "11")):
            assert freqs[bits] == pytest.approx(x[index] ** 2, abs=0.01)

    @pytest.mark.parametrize("basis", range(4))
    def test_basis_samples_what_solve_predicts_for_that_column(self, capsys, basis):
        # --basis b is run's route to the right-hand side e_b that solve takes as --y.
        y = ",".join("1" if i == basis else "0" for i in range(4))
        _, out_solve, _ = run_cli(capsys, "solve", "--label", "B_3142", "--y", y, "--output", "json")
        _, out_run, _ = run_cli(
            capsys, "run", "--label", "B_3142", "--basis", str(basis), "--shots", "100000", "--output", "json"
        )
        freqs = json.loads(out_run)["frequencies"]
        for bits, p in zip(("00", "01", "10", "11"), json.loads(out_solve)["probabilities"]):
            assert freqs[bits] == pytest.approx(p, abs=0.01)

    def test_full_noise_still_sums(self, capsys):
        _, out, _ = run_cli(capsys, "run", "--label", "A_1234", "--noise", "1.0", "--shots", "256", "--output", "json")
        assert sum(json.loads(out)["counts"].values()) == 256

    def test_noise_out_of_range_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "run", "--label", "A_1234", "--noise", "1.5")
        assert code == 3
        assert "[0, 1]" in err

    def test_unsynthesizable_matrix_exits_4(self, capsys, rotation_csv):
        code, _, err = run_cli(capsys, "run", "--matrix", rotation_csv)
        assert code == 4
        assert err == "error: no circuit reaches the target within 1e-10\n"

    def test_frequencies_converge_to_solve_probabilities(self):
        # CLI-level invariant checked through the same modules it composes.
        for spec in family.enumerate_family():
            result = synth.synthesize(linsys.inverse_operator(spec.matrix))
            state = sim.run(result.circuit, 0)
            table = sim.sample_distribution(sim.probabilities(state), 100_000, 0)
            x = linsys.solve(spec.matrix, spec.y)
            for index, bits in enumerate(("00", "01", "10", "11")):
                assert abs(table.frequencies[bits] - x[index] ** 2) <= 0.01


class TestTable1:
    def test_csv_shape(self, capsys):
        _, out, _ = run_cli(capsys, "table1")
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("circuit,0000,0001,0010,0011,ref_")
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == list(cli.REFERENCE_PERCENT)

    def test_band_at_default_seed(self, capsys):
        _, out, _ = run_cli(capsys, "table1", "--output", "json")
        for row in json.loads(out):
            for freq in row["frequencies"].values():
                assert abs(freq - 0.25) <= 0.0406

    def test_every_row_carries_the_flag_seed(self, capsys):
        _, out, _ = run_cli(capsys, "table1", "--seed", "100", "--output", "json")
        assert [row["seed"] for row in json.loads(out)] == [100] * 8

    @pytest.mark.parametrize("seed", [0, 100])
    def test_neighbouring_seeds_share_no_rows(self, capsys, seed):
        # The eight rows are one block from one generator, so seed + 1 does not replay seed's later rows.
        counts = {}
        for s in (seed, seed + 1):
            _, out, _ = run_cli(capsys, "table1", "--seed", str(s), "--output", "json")
            counts[s] = [row["counts"] for row in json.loads(out)]
        for i in range(7):
            assert counts[seed + 1][i] != counts[seed][i + 1]

    def test_reference_column_is_verbatim(self, capsys):
        _, out, _ = run_cli(capsys, "table1", "--output", "json")
        rows = json.loads(out)
        by_label = {row["label"]: row["reference_percent"] for row in rows}
        assert by_label["A_1324"] == [21.875, 24.805, 27.051, 26.27]
        assert by_label["B_1342"] == [24.707, 24.832, 24.219, 23.242]


class TestTomo:
    def test_analytic_noiseless_fidelity_is_one(self, capsys):
        _, out, _ = run_cli(capsys, "tomo", "--label", "A_1234", "--analytic")
        payload = json.loads(out)
        assert payload["mode"] == "analytic"
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert payload["density"]["dim"] == 4

    def test_calibrated_noise_matches_published_fidelity(self, capsys):
        _, out, _ = run_cli(capsys, "tomo", "--label", "A_1234", "--analytic", "--noise", "0.016267")
        assert json.loads(out)["fidelity"] == pytest.approx(0.9878, abs=1e-4)

    def test_sampled_mode(self, capsys):
        _, out, _ = run_cli(capsys, "tomo", "--label", "A_1234", "--shots", "8192", "--seed", "1")
        payload = json.loads(out)
        assert payload["mode"] == "sampled"
        assert payload["shots"] == 8192
        assert payload["fidelity"] >= 0.99

    def test_sign_pattern_in_density(self, capsys):
        _, out, _ = run_cli(capsys, "tomo", "--label", "A_1234", "--analytic")
        re = np.array(json.loads(out)["density"]["re"])
        np.testing.assert_allclose(re, np.full((4, 4), 0.25), atol=1e-10)

    def test_sqrt_convention_flag(self, capsys):
        _, out, _ = run_cli(capsys, "tomo", "--label", "A_1234", "--analytic", "--noise", "0.5", "--sqrt-fidelity")
        payload = json.loads(out)
        assert payload["fidelity_convention"] == "sqrt_overlap"
        assert payload["fidelity"] == pytest.approx(math.sqrt(1.0 - 0.375), abs=1e-10)

    def test_csv_output(self, capsys):
        _, out, _ = run_cli(capsys, "tomo", "--label", "A_1234", "--analytic", "--output", "csv")
        lines = out.splitlines()
        assert lines[0].startswith("# label=A_1234 mode=analytic fidelity=1.000000")
        assert lines[1] == "row,col,re,im"
        assert len(lines) == 18


class TestSynthCommand:
    def test_single_label_json(self, capsys):
        _, out, _ = run_cli(capsys, "synth", "--label", "A_1234")
        payload = json.loads(out)
        assert payload["gate_count"] == 4
        kinds = sorted(g["kind"] for g in payload["gates"])
        assert kinds == ["cx", "cx", "h", "h"]
        assert payload["max_deviation"] <= 1e-10

    def test_all_labels(self, capsys):
        _, out, _ = run_cli(capsys, "synth", "--all")
        rows = json.loads(out)
        assert len(rows) == 48
        assert max(row["gate_count"] for row in rows) <= 8

    @pytest.mark.parametrize("label", cli.REFERENCE_PERCENT)
    def test_label_prints_the_library_result(self, capsys, label):
        result = synth.synthesize(linsys.inverse_operator(family.matrix_for(family.FamilyLabel.parse(label))))
        code, out, _ = run_cli(capsys, "synth", "--label", label)
        assert code == 0
        assert json.loads(out) == {
            "label": label,
            "gate_count": result.gate_count,
            "matched_sign": result.matched_sign,
            "max_deviation": result.max_deviation,
            "gates": [{"kind": g.kind, "targets": list(g.targets)} for g in result.circuit.ops],
        }

    def test_all_rows_are_the_single_label_outputs(self, capsys):
        _, out, _ = run_cli(capsys, "synth", "--all")
        rows = json.loads(out)
        assert [row["label"] for row in rows] == [str(spec.label) for spec in family.enumerate_family()]
        for row in rows:
            _, single, _ = run_cli(capsys, "synth", "--label", row["label"])
            assert json.loads(single) == row

    def test_target_within_rounding_of_the_group_is_found(self, capsys, tmp_path):
        h0 = sim.unitary_of(sim.Circuit(2, (sim.h(0),)))
        shrunk = h0 - 5e-14 * np.sign(h0)
        path = tmp_path / "shrunk_h.csv"
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in shrunk) + "\n")
        code, out, _ = run_cli(capsys, "synth", "--matrix", str(path))
        assert code == 0
        assert json.loads(out)["gate_count"] == 1


class TestQasmCommand:
    @pytest.mark.parametrize("label", cli.REFERENCE_PERCENT)
    def test_label_prints_the_library_export(self, capsys, label):
        result = synth.synthesize(linsys.inverse_operator(family.matrix_for(family.FamilyLabel.parse(label))))
        code, out, _ = run_cli(capsys, "qasm", "--label", label)
        assert code == 0
        assert out == qasm.circuit_to_qasm(result.circuit)

    def test_matrix_file_prints_what_its_label_prints(self, capsys, tmp_path):
        path = tmp_path / "a1342.csv"
        matrix = family.matrix_for(family.FamilyLabel.parse("A_1342"))
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in matrix) + "\n")
        _, from_file, _ = run_cli(capsys, "qasm", "--matrix", str(path))
        _, from_label, _ = run_cli(capsys, "qasm", "--label", "A_1342")
        assert from_file == from_label
        assert len(from_label.splitlines()) == 5 + 2  # A_1342's circuit has two gates

    def test_identity_matrix_has_no_gate_lines(self, capsys, identity_csv):
        _, out, _ = run_cli(capsys, "qasm", "--matrix", identity_csv)
        assert out == (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[2];\n"
            "creg c[2];\n"
            "measure q -> c;\n"
        )


class TestGrover:
    def test_json_fields(self, capsys):
        _, out, _ = run_cli(capsys, "grover", "--qubits", "3", "--marked", "5")
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["marked"] == [5]
        assert payload["k"] == 2
        assert payload["predicted"] == pytest.approx(121.0 / 128.0, abs=1e-10)
        assert payload["simulated"] == pytest.approx(payload["predicted"], abs=1e-10)

    def test_explicit_iterations(self, capsys):
        _, out, _ = run_cli(capsys, "grover", "--qubits", "2", "--marked", "3", "--iterations", "0")
        payload = json.loads(out)
        assert payload["k"] == 0
        assert payload["simulated"] == pytest.approx(0.25, abs=1e-12)

    def test_bad_marked_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "grover", "--qubits", "2", "--marked", "7")
        assert code == 3

    def test_marked_that_is_not_integers_is_named_as_the_flag(self, capsys):
        code, _, err = run_cli(capsys, "grover", "--marked", "1,,2")
        assert code == 3
        assert err == "error: --marked must be comma-separated integers, got '1,,2'\n"

    @pytest.mark.parametrize("qubits", ["0", "11", "-1"])
    def test_bad_qubits_are_named_as_the_flag(self, capsys, qubits):
        code, _, err = run_cli(capsys, "grover", "--qubits", qubits)
        assert code == 3
        assert err == f"error: n_qubits must lie in 1..10, got {qubits}\n"

    def test_too_many_marked_are_named_as_the_flag(self, capsys):
        code, _, err = run_cli(capsys, "grover", "--qubits", "1", "--marked", "0,1,2")
        assert code == 3
        assert err == "error: marked indices [0, 1, 2] out of range for 1 qubits\n"


A_1234 = family.FamilyLabel.parse("A_1234")

#: Each subcommand's parsed defaults, pinned so that sharing flag
#: declarations between subcommands cannot change them.
PARSED_DEFAULTS = {
    ("family", "list"): {"command": "family", "action": "list", "klass": None, "output": "table", "func": "cmd_family_list"},
    ("solve", "--label", "A_1234"): {
        "command": "solve",
        "label": A_1234,
        "matrix": None,
        "y": None,
        "output": "table",
        "func": "cmd_solve",
    },
    ("run", "--label", "A_1234"): {
        "command": "run",
        "label": A_1234,
        "matrix": None,
        "basis": 0,
        "shots": 1024,
        "seed": 0,
        "noise": 0.0,
        "output": "table",
        "func": "cmd_run",
    },
    ("table1",): {"command": "table1", "shots": 1024, "seed": 0, "output": "csv", "func": "cmd_table1"},
    ("tomo", "--matrix", "m.csv"): {
        "command": "tomo",
        "label": None,
        "matrix": "m.csv",
        "analytic": False,
        "shots": 1024,
        "seed": 0,
        "noise": 0.0,
        "sqrt_fidelity": False,
        "output": "json",
        "func": "cmd_tomo",
    },
    ("synth", "--all"): {
        "command": "synth",
        "label": None,
        "matrix": None,
        "all": True,
        "func": "cmd_synth",
    },
    ("qasm", "--label", "A_1234"): {
        "command": "qasm",
        "label": A_1234,
        "matrix": None,
        "func": "cmd_qasm",
    },
    ("grover",): {"command": "grover", "qubits": 2, "marked": "3", "iterations": None, "func": "cmd_grover"},
}


@pytest.mark.parametrize("argv", PARSED_DEFAULTS, ids=" ".join)
def test_parsed_defaults(argv):
    parsed = vars(cli.build_parser().parse_args(list(argv)))
    parsed["func"] = parsed["func"].__name__
    expected = PARSED_DEFAULTS[argv]
    assert parsed == expected
    # Equal is not enough: JSON output tells 0 from 0.0.
    assert {k: type(v) for k, v in parsed.items()} == {k: type(v) for k, v in expected.items()}


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "qlinsys.cli", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "family" in proc.stdout
        assert "grover" in proc.stdout

    def test_no_arguments_is_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "qlinsys.cli"], capture_output=True, text=True)
        assert proc.returncode == 2
