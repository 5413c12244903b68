"""Package layout: every module uses only the public names of its siblings."""

import ast
import pathlib

import jbmocz

PACKAGE = pathlib.Path(jbmocz.__file__).parent


def private_sibling_imports(path):
    """(module, name) of each `from .module import _name` in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [(node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_private_sibling_imports():
    offenders = {path.name: private_sibling_imports(path)
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}
