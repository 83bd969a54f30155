"""Package hygiene: every exported name resolves, no module imports a name it
never uses (checked with `ast`, so no linter needs to be installed), and every
error class maps to a CLI exit code."""

import ast
import inspect
from pathlib import Path

import pytest

import cohsets
from cohsets import cli, errors

SRC = Path(cohsets.__file__).resolve().parent

# (module, name) imports kept on purpose: perfbench/spans.py wraps
# cohsets.cca.center_gram by attribute name
ALLOWED_UNUSED = {("cca", "center_gram")}


def test_every_exported_name_resolves():
    missing = [name for name in cohsets.__all__ if not hasattr(cohsets, name)]
    assert not missing
    assert len(set(cohsets.__all__)) == len(cohsets.__all__)


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names re-exported through __all__ count as used
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return {name: line for name, line in imported.items()
            if name not in used and (path.stem, name) not in ALLOWED_UNUSED}


def test_no_module_imports_an_unused_name():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    unused = {f"{path.name}:{line}: {name}"
              for path in modules for name, line in _unused_imports(path).items()}
    assert not unused, sorted(unused)


def test_every_error_class_has_an_exit_code():
    """Each error class reaches the user as exit 2 (input) or 3 (numerical),
    never as a traceback."""
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.CohsetsError) and cls is not errors.CohsetsError]
    assert classes
    for cls in classes:
        @cli._handle_errors
        def fail():
            raise cls("raised by the hygiene test")

        with pytest.raises(SystemExit) as exit_info:
            fail()
        expected = 2 if issubclass(cls, errors.InputError) else 3
        assert exit_info.value.code == expected, cls
