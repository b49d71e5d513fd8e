"""The identity digest script keeps running: it exits 0 and prints its three digest lines."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("identity_digest.py")


def test_the_digest_script_prints_three_digest_lines():
    done = subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPT)], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.splitlines()
    assert len(lines) == 3, done.stdout
    for line, what in zip(lines, ["outputs", "tomography outputs", "off-catalog outputs"]):
        assert re.fullmatch(rf"[0-9a-f]{{64}}  \(\d+ {what}\)", line), line
