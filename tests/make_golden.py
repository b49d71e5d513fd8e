"""Regenerate the golden files that pin default CLI output.

Run from the repository root after an intentional output change:

    python3 tests/make_golden.py

Review the diff before committing; these files are the regression contract.
"""

import contextlib
import io
from pathlib import Path

from qlinsys import cli

GOLDEN = Path(__file__).parent / "golden"

TARGETS = {
    "family_list.txt": ["family", "list"],
    "solve_a1234.txt": ["solve", "--label", "A_1234"],
    "run_a1324_default.json": ["run", "--label", "A_1324", "--output", "json"],
    "table1_default.csv": ["table1"],
    "a_1234.qasm": ["qasm", "--label", "A_1234"],
    "a_1342.qasm": ["qasm", "--label", "A_1342"],
    "grover_default.json": ["grover"],
}

#: Further pinned outputs.  Kept apart from TARGETS because the benchmark's
#: cli_cold workload replays exactly the commands in TARGETS.
MORE_TARGETS = {
    "synth_all.json": ["synth", "--all"],
    "tomo_a1234_sampled.json": ["tomo", "--label", "A_1234"],
    "run_a1342_noise.json": ["run", "--label", "A_1342", "--noise", "0.1", "--output", "json"],
    "grover_q10_m37.json": ["grover", "--qubits", "10", "--marked", "37"],
    "family_list.json": ["family", "list", "--output", "json"],
    "solve_a1234_y0100.json": ["solve", "--label", "A_1234", "--y", "0,1,0,0", "--output", "json"],
    "tomo_a1234_analytic.csv": ["tomo", "--label", "A_1234", "--analytic", "--output", "csv"],
    "tomo_a1342_noise_sqrt.json": ["tomo", "--label", "A_1342", "--noise", "0.1", "--sqrt-fidelity"],
}


def main():
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in {**TARGETS, **MORE_TARGETS}.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
        (GOLDEN / name).write_text(buffer.getvalue())
        print(f"wrote {name} ({len(buffer.getvalue())} bytes)")


if __name__ == "__main__":
    main()
