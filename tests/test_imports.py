"""Every name a simpnet module, script or test imports is used in that file,
and every name a simpnet module defines is read somewhere.

The package's __init__.py is exempt from the first check: its imports are
the public re-exports. `from __future__` imports are directives, not
names, and are skipped.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(path for path in (ROOT / "src" / "simpnet").glob("*.py") if path.name != "__init__.py")
FILES = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
READERS = [path for folder in ("src", "scripts", "bench", "tests") for path in sorted((ROOT / folder).rglob("*.py"))]


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


def defined_names(tree):
    """(name, line) of every function, class and variable a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_every_defined_name_is_read():
    # read = loaded as a bare name or as an attribute (`layers.keep_mask`), in any file
    read = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    dead = [
        f"{path.stem}.{name} (line {line})"
        for path in sorted((ROOT / "src" / "simpnet").glob("*.py"))
        for name, line in defined_names(ast.parse(path.read_text(encoding="utf-8")))
        if name != "__all__" and name not in read
    ]
    assert dead == []
