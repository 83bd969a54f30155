"""Package hygiene: every exported name resolves, no module imports a name it
never uses and no top-level name goes unreferenced (checked with `ast`, so no
linter needs to be installed), and every error class maps to a CLI exit code."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import cohsets
from cohsets import cli, errors

SRC = Path(cohsets.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]

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


def _top_level_definitions(tree):
    """(name, node) for each function, class and assigned name of a module body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(tree):
    """Every identifier a tree reads: names, attributes, imported names, and
    strings that are identifiers (`__all__` entries, names wrapped by attribute
    name). Matching by bare identifier, a name counts as referenced if any
    module reads the same identifier."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def _is_click_command(node):
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group") for d in node.decorator_list)


def test_every_top_level_name_is_referenced():
    """A name defined at the top of a package module is read somewhere outside
    its own definition, in src/, tests/ or perfbench/, so removing the last
    caller of a helper cannot leave the helper behind. Click commands are
    reached through their group and are exempt, and so are dunder names."""
    paths = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((REPO / folder).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    counts = Counter(name for tree in trees.values() for name in _references(tree))
    unreferenced, checked = [], 0
    for path in sorted((REPO / "src" / "cohsets").glob("*.py")):
        for name, node in _top_level_definitions(trees[path]):
            if name.startswith("__") or _is_click_command(node):
                continue
            checked += 1
            own = sum(ref == name for ref in _references(node))
            if counts[name] <= own:
                unreferenced.append(f"{path.name}:{node.lineno}: {name}")
    assert checked > 50
    assert len(unreferenced) == 0, unreferenced


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
