"""Source hygiene of the package, checked with the standard library's ast:
every import in a module of src/bevkit is used in that module (the
package's __init__.py re-exports, so it is exempt), and every module-level
private name (one leading underscore, not a dunder) is referenced somewhere
in the package. A deletion that leaves an import or a helper behind fails
here. Every raise names an exception type of errors.py or re-raises, so no
entry point lets a bare ValueError or RuntimeError of its own escape."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bevkit"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def annotation_names(tree):
    """The names inside the module's string annotations, such as
    -> "SceneDataset"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def read_names(tree):
    """Every name the module reads: each loaded Name, and the names of its
    string annotations."""
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Load)}
    return loaded | annotation_names(tree)


def imported_names(tree):
    """The name each import binds, with the line of its import; from
    __future__ imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def module_level_names(tree):
    """The names the module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def package_references():
    """Every name the package reads anywhere: loaded Names, attributes
    (module._name) and names imported from a module."""
    refs = set()
    for tree in TREES.values():
        refs |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs |= {alias.name for alias in node.names}
    return refs


def test_every_module_is_checked():
    assert {"tensor.py", "dataset.py", "rng.py", "__init__.py"} <= set(TREES)


@pytest.mark.parametrize("module", [n for n in TREES if n != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    used = read_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{module} imports names it never reads: {unused}"


@pytest.mark.parametrize("module", list(TREES))
def test_every_private_module_name_is_referenced(module):
    refs = package_references()
    dead = sorted({n for n in module_level_names(TREES[module]) if is_private(n)} - refs)
    assert not dead, f"{module} defines private names that nothing in bevkit reads: {dead}"


ERROR_TYPES = {node.name for node in TREES["errors.py"].body if isinstance(node, ast.ClassDef)}


def is_error_type_or_re_raise(exc, caught):
    """Whether raise exc raises a type of errors.py (called or not) or
    re-raises: a bare raise, or the name an except clause bound."""
    if exc is None:
        return True
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and (exc.id in ERROR_TYPES or exc.id in caught)


@pytest.mark.parametrize("module", list(TREES))
def test_every_raise_names_an_error_type_or_re_raises(module):
    assert {"ConfigError", "ContractError", "DataError"} <= ERROR_TYPES
    tree = TREES[module]
    caught = {n.name for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler) and n.name}
    stray = [f"line {n.lineno}: raise {ast.unparse(n.exc)}" for n in ast.walk(tree)
             if isinstance(n, ast.Raise) and not is_error_type_or_re_raise(n.exc, caught)]
    assert not stray, f"{module} raises types that errors.py does not define: {stray}"
