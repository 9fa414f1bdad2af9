"""Every name a simpnet module, script or test imports is used in that file.

The package's __init__.py is exempt: its imports are the public re-exports.
`from __future__` imports are directives, not names, and are skipped.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(path for path in (ROOT / "src" / "simpnet").glob("*.py") if path.name != "__init__.py")
FILES = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_is_scanned():
    assert {"cli.py", "layers.py", "network.py"} <= {path.name for path in MODULES}
    assert {"cli_hashes.py", "test_imports.py", "test_network.py"} <= {path.name for path in FILES}


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}  # `np.zeros` reads the Name np
    assert [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used] == []
