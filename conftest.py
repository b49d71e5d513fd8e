"""Make subprocesses that tests start import this checkout's package.

pytest puts `src` on its own path (see pyproject.toml), but a child
interpreter, such as a cold `python -m qlinsys.cli`, only sees PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
