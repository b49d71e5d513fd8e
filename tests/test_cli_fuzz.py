"""Argv drawn from the CLI's grammar never escape `cli.main`.

Hypothesis runs a fixed sequence of 300 argv (derandomize=True, no example
database).  Each argv is a subcommand or none, a --label or --matrix pair for
a subcommand that takes a system, and up to four more flags.  Flags come from
the subcommand's own and from every flag, the removed `--y` on `run`,
`--output` on `synth` and `--max-gates` among them.  Values come half from
each flag's good values and half from one hostile pool: a 5,000-digit
integer, NaN, infinities, -0, an empty string, bad labels, and CSV files
empty, ragged, non-orthogonal, outside the synthesis group or missing.
Every call must exit 0, 2, 3 or 4, raise nothing but argparse's SystemExit,
warn nothing, and print at most one `error:` line.
"""

import contextlib
import io
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qlinsys import cli  # noqa: E402

#: Each subcommand and the flags it takes.  After the system flag, each flag is
#: drawn from these, each weighted three times, and every flag of `FLAGS`.
GRAMMAR = {
    (): "",
    ("family",): "",
    ("family", "list"): "--class --output",
    ("solve",): "--label --matrix --y --output",
    ("run",): "--label --matrix --basis --shots --seed --noise --output",
    ("table1",): "--shots --seed --output",
    ("tomo",): "--label --matrix --analytic --sqrt-fidelity --shots --seed --noise --output",
    ("synth",): "--label --matrix --all",
    ("qasm",): "--label --matrix",
    ("grover",): "--qubits --marked --iterations",
}

#: Every flag, the removed `--y` on `run`, `--output` on `synth` and `--max-gates` among them.
FLAGS = sorted({flag for flags in GRAMMAR.values() for flag in flags.split()} | {"--max-gates", "--help"})

#: Flags that take no value.
SWITCHES = {"--analytic", "--sqrt-fidelity", "--all", "--help"}

#: Values each flag accepts; a flag's value comes from here half the time, and from `VALUES` otherwise.
GOOD = {
    "--label": ["A_1234", "B_4213"],
    "--y": ["0,1,0,0"],
    "--basis": ["0", "3"],
    "--shots": ["1", "1024"],
    "--seed": ["0", "7"],
    "--noise": ["0", "0.1", "1"],
    "--output": ["json", "csv", "table"],
    "--class": ["A", "B"],
    "--qubits": ["1", "3"],
    "--marked": ["0", "1,2"],
    "--iterations": ["0", "2"],
    "--max-gates": ["8"],
}

#: Hostile and stray values, shared by every flag.
VALUES = [
    "A_1234", "B_4213", "A_9999", "a_1234", "A_1134",
    "0", "1", "2", "3", "10", "11", "-1", "-0", "0.5", "1.5", "1e400",
    "nan", "inf", "-inf", "", " ", "abc", "9" * 20, "1" * 5000,
    "0,1,0,0", "1,0", "nan,0,0,0", "1,inf,0,0", "0.5,0.5,0.5,0.5", "1,,2", "0,1,2",
    "json", "csv", "table", "qasm", "A", "C", "--all", "-h",
]  # fmt: skip

#: CSV files by name, each written once per module into a temporary folder.
FILES = {
    "identity.csv": "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n",
    "empty.csv": "",
    "ragged.csv": "1,0\n0\n",
    "nonorthogonal.csv": "1,1,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n",
    "rotation.csv": "0.6,-0.8,0,0\n0.8,0.6,0,0\n0,0,1,0\n0,0,0,1\n",
    "eye3.csv": "1,0,0\n0,1,0\n0,0,1\n",
    "y.csv": "0,1,0,0\n",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    for name, text in FILES.items():
        (folder / name).write_text(text)
    return {name: str(folder / name) for name in [*FILES, "missing.csv"]}


def argv_strategy(paths):
    """A subcommand, then for one that takes a system a --label or --matrix pair, then up to four flags."""
    good = {**GOOD, "--matrix": [paths["identity.csv"], paths["rotation.csv"]]}
    pool = VALUES + list(paths.values())

    def flag_and_value(flag):
        if flag in SWITCHES:
            return st.just([flag])
        return st.one_of(st.sampled_from(good[flag]), st.sampled_from(pool)).map(lambda value: [flag, value])

    def tail(command):
        own = [flag for flag in GRAMMAR[command].split() if flag not in ("--label", "--matrix")]
        system = st.sampled_from(["--label", "--matrix"] if "--label" in GRAMMAR[command] else [None])
        pairs = st.lists(st.sampled_from(own * 3 + FLAGS).flatmap(flag_and_value), max_size=4)
        head = system.flatmap(lambda flag: flag_and_value(flag) if flag else st.just([]))
        return st.tuples(head, pairs).map(lambda drawn: [*command, *drawn[0], *sum(drawn[1], [])])

    return st.sampled_from(list(GRAMMAR)).flatmap(tail)


def run_main(argv) -> tuple[int, str]:
    """`cli.main(argv)`'s exit code, with argparse's SystemExit read as one, and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as raised:
            code = raised.code
    return code, err.getvalue()


def test_drawn_argv_exit_with_a_documented_code_and_one_error_line(paths):
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(argv_strategy(paths))
    def check(argv):
        code, err = run_main(argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert sum(line.startswith("error:") or ": error: " in line for line in err.splitlines()) <= 1, (argv, err)
        if code == 0:
            assert "error:" not in err, (argv, err)

    check()

