"""Import hygiene of the package sources, checked with `ast`."""

import ast
import re
from pathlib import Path

import pytest

import squeezer_sim

_SOURCES = sorted(Path(squeezer_sim.__file__).parent.glob("*.py"))


def _imports(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _module_bindings(tree):
    names = {name for name, _ in _imports(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _dunder_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def test_all_entries_resolve_and_no_import_is_unused():
    # Every __all__ name must be bound at module level, and every
    # module-level import must be read somewhere in its module; the
    # package __init__ is exempt from the second rule, as it re-exports.
    assert len(_SOURCES) >= 10
    problems = []
    for path in _SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _module_bindings(tree)
        problems += [f"{path.name}: __all__ names unbound {name!r}"
                     for name in _dunder_all(tree) if name not in bound]
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        problems += [f"{path.name}:{line}: unused import {name!r}"
                     for name, line in _imports(tree) if name not in read]
    assert problems == []


def test_numpy_is_the_only_runtime_dependency():
    # scipy is a test-only reference: no module may import it, at module
    # level or inside a function, and the manifest must not require it.
    scipy_imports = []
    for path in _SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            scipy_imports += [f"{path.name}:{node.lineno}: {name}"
                              for name in names
                              if name.split(".")[0] == "scipy"]
    assert scipy_imports == []
    tomllib = pytest.importorskip("tomllib")
    manifest = Path(squeezer_sim.__file__).parents[2] / "pyproject.toml"
    if not manifest.exists():
        pytest.skip("package imported from outside its source tree")
    deps = tomllib.loads(manifest.read_text(encoding="utf-8"))["project"][
        "dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]
    # estimate_psd passes `out=` to np.fft.rfft, which numpy 2.0 added.
    assert deps == ["numpy>=2.0"]


def test_every_private_module_helper_is_read():
    # A module-level private function or class must be read somewhere in
    # the package: called or named in its own module or imported by
    # another.  A helper whose last caller went away fails here.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in _SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [f"{name}:{node.lineno}: {node.name}"
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in read]
    assert unread == []


def test_no_module_catches_every_exception():
    # A bare `except:`, `except Exception` or `except BaseException`
    # turns a bug into whatever the handler does; each handler must name
    # the errors it expects.
    broad = []
    for path in _SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            if any(t is None or (isinstance(t, ast.Name)
                                 and t.id in ("Exception", "BaseException"))
                   for t in types):
                broad.append(f"{path.name}:{node.lineno}")
    assert broad == []


def test_montecarlo_makes_no_blas_call():
    # OpenBLAS picks its kernels by CPU and they sum in different orders,
    # so a seeded mc-verify run is only CPU-independent if montecarlo
    # never reaches BLAS: no `@`, no matmul or dot, nothing from linalg.
    path = Path(squeezer_sim.__file__).parent / "montecarlo.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in ("matmul", "dot", "linalg"):
            found.append(f"{node.lineno}: {name}")
    assert found == []


def test_ode_oracle_imports_neither_numpy_nor_scipy():
    # `dynamics` steps on Python floats: on a four-component state an
    # array call costs more than its arithmetic.
    path = Path(squeezer_sim.__file__).parent / "dynamics.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.split(".")[0] in ("numpy", "scipy")]
    assert found == []


def test_ndarray_type_checks_are_only_the_allowed_ones():
    # A closed form takes np.asarray of its inputs and has one body for
    # scalars and arrays alike.  `isinstance(..., np.ndarray)` is kept
    # only at write_csv's column type gate, named by its innermost
    # enclosing function.
    found = []
    for path in _SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and "np.ndarray" in ast.unparse(node.args[1])):
                owner = max((f for f in funcs
                             if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                found.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    assert sorted(found) == ["csvio.write_csv"]
