"""Source hygiene of the package, checked with the standard library's ast:
every import in a module of src/bevkit is used in that module (the
package's __init__.py re-exports, so it is exempt), and every module-level
private name (one leading underscore, not a dunder) is referenced somewhere
in the package, and every public function, class and method outside its
own definition, in the package or the benchmark. A deletion that leaves an
import, a helper or an entry point behind fails here. No data-side module
imports the model or its autodiff engine. Every raise names an exception
type of errors.py or re-raises, so no entry point lets a bare ValueError or
RuntimeError of its own escape. Every frozen dataclass checks itself when
built, in __post_init__, and no class has a validate method to be called,
or forgotten, later."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bevkit"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
BENCH = sorted((PACKAGE.parent.parent / "bench").glob("*.py"))
BENCH_TREES = [ast.parse(path.read_text(), filename=str(path)) for path in BENCH]


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


def reference_counts(node):
    """How often the code under node reads each name: loaded Names,
    attributes, names imported from a module and names of string
    annotations."""
    counts = Counter(annotation_names(node))
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            counts.update(alias.name for alias in n.names)
    return counts


def public_definitions(tree):
    """(qualified name, node) of each public module-level function and class
    of the module, and of each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))


# resuming a training run (ROADMAP item 2) restores both; only tests call them now
NOT_YET_CALLED = {"Adam.load_state_arrays", "Detector.load_arrays"}


@pytest.mark.parametrize("module", list(TREES))
def test_every_public_name_is_referenced(module):
    counts = sum(map(reference_counts, [*TREES.values(), *BENCH_TREES]), Counter())
    dead = sorted(name for name, node in public_definitions(TREES[module])
                  if name not in NOT_YET_CALLED
                  and counts[node.name] <= reference_counts(node)[node.name])
    assert not dead, f"{module} defines public names that bevkit and bench never read: {dead}"


# modules that make, store or key data and must not depend on the model
DATA_SIDE = ["synthscene.py", "dataset.py", "geometry.py", "rng.py", "checkpoint.py"]
MODEL_SIDE = ["tensor", "attention", "encoders", "fusion", "model", "detection", "evaluation",
              "optim"]


def imported_modules(tree):
    """The dotted name of each module or name the module imports, relative
    imports read from inside bevkit (from .x import y gives bevkit.x and
    bevkit.x.y)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = f"bevkit.{node.module or ''}" if node.level else node.module
            base = base.rstrip(".")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", DATA_SIDE)
def test_data_side_does_not_import_the_model_side(module):
    """Data generation, storage and seeding hold the ground truth the model
    is trained on, so they stay free of the model and its autodiff engine:
    a rewrite of any module of MODEL_SIDE cannot reach them."""
    found = [name for name in imported_modules(TREES[module])
             if any(name == f"bevkit.{m}" or name.startswith(f"bevkit.{m}.") for m in MODEL_SIDE)]
    assert not found, f"{module} imports the model side: {found}"


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


def is_frozen_dataclass_decorator(node):
    """Whether the decorator node is dataclass(frozen=True), plain or as
    dataclasses.dataclass."""
    if not isinstance(node, ast.Call):
        return False
    name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
    return name == "dataclass" and any(
        k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
        for k in node.keywords)


@pytest.mark.parametrize("module", list(TREES))
def test_frozen_dataclasses_check_themselves_when_built(module):
    classes = [n for n in ast.walk(TREES[module]) if isinstance(n, ast.ClassDef)]
    methods = {c.name: {f.name for f in c.body if isinstance(f, ast.FunctionDef)} for c in classes}
    unchecked = [c.name for c in classes if any(map(is_frozen_dataclass_decorator, c.decorator_list))
                 and "__post_init__" not in methods[c.name]]
    assert not unchecked, f"{module}: frozen dataclasses without __post_init__: {unchecked}"
    with_validate = [name for name, defs in methods.items() if "validate" in defs]
    assert not with_validate, f"{module}: classes that define validate: {with_validate}"
