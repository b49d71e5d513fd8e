"""The oracles must share no code with the package they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).parent / "oracles.py"


def test_oracles_import_nothing_from_the_package():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(), str(ORACLES))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    offending = [name for name in imported if name.split(".")[0] in ("qlinsys", "")]
    assert offending == [], f"tests/oracles.py imports {offending}"
