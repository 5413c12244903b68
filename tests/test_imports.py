"""Package layout: every module uses only the public names of its siblings,
and imports nothing beyond its declared dependencies."""

import ast
import math
import pathlib
import sys

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


# the runtime dependencies of pyproject.toml, by import name
DECLARED = {"numpy", "yaml"}


def absolute_imports(path):
    """Top-level name of each absolute import in the file, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_imports_only_declared_dependencies():
    # scipy and pytest-benchmark may be installed, but are not declared
    offenders = {path.name: sorted(absolute_imports(path) - DECLARED
                                   - set(sys.stdlib_module_names))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def normal_calls(path):
    """Line of each `<anything>.normal(...)` call in the file."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "normal"]


def test_gaussian_draws_use_standard_normal():
    # standard_normal gives normal(0, 1)'s stream without its loc/scale pass
    offenders = {path.name: normal_calls(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def test_package_root_imports_nothing():
    # callers import from the submodules; a re-export list at the root
    # would be a second copy of their names
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


ALLOCATOR_POLICY = ("mallopt", "GLIBC_TUNABLES", "MALLOC_")


def test_sets_no_allocator_policy():
    # the package reuses its own arrays instead of tuning the C allocator:
    # no module imports ctypes or names mallopt or a glibc malloc tunable
    offenders = {path.name: sorted(({"ctypes"} & absolute_imports(path))
                                   | {word for word in ALLOCATOR_POLICY
                                      if word in path.read_text()})
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


ROOT = pathlib.Path(__file__).parent.parent
CALLERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]


def defaulted_parameters(path):
    """(function, parameter, position) of each parameter with a default of
    each top-level function in the file; position None if keyword-only."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            found += [(node.name, arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            found += [(node.name, arg.arg, None) for arg, default
                      in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]
    return found


def passed_arguments(paths):
    """For each called name, the (positional count, keywords) of each call;
    a *args call passes every position and a **kwargs call every keyword."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args), keywords))
    return calls


def test_every_default_parameter_is_passed():
    # a default no call overrides is an option nobody uses
    calls = passed_arguments(CALLERS)
    unused = [f"{path.name}: {function}({parameter})"
              for path in sorted(PACKAGE.glob("*.py"))
              for function, parameter, position in defaulted_parameters(path)
              if not any(position is not None and count > position
                         or parameter in keywords or None in keywords
                         for count, keywords in calls.get(function, []))]
    assert unused == []


def arithmetic_error_handlers(path):
    """Enclosing function (None at module level) of each `except` clause of
    the file that names ArithmeticError."""
    tree = ast.parse(path.read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ExceptHandler) and node.type is not None
                and "ArithmeticError" in ast.unparse(node.type)):
            while not isinstance(node, (ast.FunctionDef, ast.Module)):
                node = parents[node]
            found.append(getattr(node, "name", None))
    return found


def test_one_arithmetic_error_handler():
    # the synthesis limit is one rule: one helper turns the root check's
    # ArithmeticError into a config error
    handlers = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
                for name in arithmetic_error_handlers(path)]
    assert handlers == [("experiments.py", "_check_synthesis_limit")]
