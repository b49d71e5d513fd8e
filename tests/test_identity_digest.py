"""The identity digest script keeps running: it exits 0 and prints its build line and three digest lines."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("identity_digest.py")


def test_the_digest_script_prints_a_build_line_and_three_digest_lines():
    done = subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPT)], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.splitlines()
    assert len(lines) == 4, done.stdout
    assert re.fullmatch(r"# python \S+, numpy \S+, blas .+, lapack .+", lines[0]), lines[0]
    for line, what in zip(lines[1:], ["outputs", "tomography outputs", "off-catalog outputs"]):
        assert re.fullmatch(rf"[0-9a-f]{{64}}  \(\d+ {what}\)", line), line
