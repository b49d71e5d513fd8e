"""Print every line of the package's source that no test reaches.

No coverage package is needed: `sys.settrace` records each line that runs in
`src/qlinsys` while `pytest.main(["tests"])` runs in this process, and each
file's executable lines are the ones its compiled code objects name.  Lines
that only a child process runs, such as a cold `python -m qlinsys.cli`, are
not seen, so they are listed too.  Run it from anywhere:

    python3 tests/line_probe.py

It prints pytest's own report, then one `path:line  source` per unreached
line and a count, and exits with pytest's exit code.  The trace slows the
suite by about half (27 s against 18 s on a 2-core Xeon), so a test that
bounds its own time could fail here.

Not a pytest module: its name has no test_ prefix.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qlinsys"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from a source file give their instructions."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for `args`, and the lines reached in each package file, keyed by resolved path."""
    reached = {str(path): set() for path in PACKAGE.glob("*.py")}
    resolved = {}  # co_filename -> its key in `reached`, or None for a file outside the package

    def trace_lines(frame, event, arg):
        if event == "line":
            reached[resolved[frame.f_code.co_filename]].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            key = str(Path(name).resolve())
            resolved[name] = key if key in reached else None
        if resolved[name] is None:
            return None
        reached[resolved[name]].add(frame.f_lineno)
        return trace_lines

    sys.settrace(trace_calls)  # the tests start no threads
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), reached


def main() -> int:
    os.chdir(ROOT)  # pytest reads pyproject.toml and conftest.py from the root
    code, reached = run_traced(["-q", "-p", "no:cacheprovider", "tests"])
    total = missed = 0
    for key in sorted(reached):
        path = Path(key)
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - reached[key]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines in {PACKAGE.relative_to(ROOT)} reached by no test")
    return code


if __name__ == "__main__":
    sys.exit(main())
