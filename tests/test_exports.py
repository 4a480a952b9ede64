import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import nlkglab


def test_every_exported_name_resolves():
    """Each name in a module's ``__all__`` is an attribute of that module, so no
    export outlives the code it names."""
    for info in pkgutil.iter_modules(nlkglab.__path__):
        module = importlib.import_module(f"nlkglab.{info.name}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, f"nlkglab.{info.name}.__all__ names missing attributes: {missing}"


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    """``import nlkglab.cli`` loads none of ``scipy.fft``, ``scipy.sparse`` or
    ``scipy.special``: the stepper imports ``scipy.fft``, which pulls in
    ``scipy.special``, when it is called, and no library module imports
    ``scipy.sparse``, so a command that steps nothing starts without their
    cost."""
    src = str(Path(nlkglab.__file__).resolve().parents[1])
    code = (
        "import sys, nlkglab.cli\n"
        "packages = {'.'.join(m.split('.')[:2]) for m in sys.modules}\n"
        "print(sorted(packages & {'scipy.fft', 'scipy.sparse', 'scipy.special'}))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_private_module_name_is_read_in_the_library():
    """Each module-level private name a library module defines (function, class,
    assignment or import alias) is read somewhere in ``src/nlkglab``, as a name
    or an attribute: a helper only the tests call belongs in ``tests/oracles.py``."""
    defined, read = set(), set()
    for path in sorted(Path(nlkglab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.add((path.name, name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{module}:{name}" for module, name in defined if name not in read)
    assert not unread, f"private names no library code reads: {unread}"


def test_only_grids_differentiates_a_field_u1():
    """No library module but ``grids`` calls ``spectral_derivative`` on a ``.u1``:
    a field's u1' is its ``Field.du1``, taken once for every reader."""
    found = []
    for path in sorted(Path(nlkglab.__file__).parent.glob("*.py")):
        if path.name == "grids.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            arg = node.args[0]
            if name == "spectral_derivative" and isinstance(arg, ast.Attribute) and arg.attr == "u1":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"spectral_derivative of a .u1 outside grids: {found}"


def test_only_grids_differentiates_a_field_u2():
    """No library module but ``grids`` calls ``spectral_derivative`` on a ``.u2``:
    u2' is taken only by ``grids.symmetry_rows``, the one writer of the
    symmetry directions."""
    found = []
    for path in sorted(Path(nlkglab.__file__).parent.glob("*.py")):
        if path.name == "grids.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            arg = node.args[0]
            if name == "spectral_derivative" and isinstance(arg, ast.Attribute) and arg.attr == "u2":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"spectral_derivative of a .u2 outside grids: {found}"


def test_no_library_module_changes_the_warning_filters():
    """No library module calls ``warnings.catch_warnings``, ``simplefilter`` or
    ``filterwarnings``: each call resets every module's warning registry, so a
    warning the default filter showed once comes back, and a caller's filter
    is the caller's to set."""
    banned = {"catch_warnings", "simplefilter", "filterwarnings"}
    found = []
    for path in sorted(Path(nlkglab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in banned:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"warning filters changed in the library: {found}"


def test_one_qr_helper():
    """The library's only QR call is the one in ``spectrum._orthonormal``: the
    LOBPCG block and the delta constraints are orthonormalized by one path."""
    found = []
    for path in sorted(Path(nlkglab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so the innermost one wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "qr":
                found.append(f"{path.name}:{owner.get(node)}")
    assert found == ["spectrum.py:_orthonormal"], f"QR calls in the library: {found}"


def test_one_eigensolver_for_the_spectrum():
    """No library module imports ``scipy.sparse`` or calls ``eigsh``, and the
    only callers of ``spectrum._lobpcg`` are ``_schur_low_end`` (the low end of
    S) and ``_constrained_lowest`` (delta): one eigensolver for the spectrum."""
    sparse, callers = [], []
    for path in sorted(Path(nlkglab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so the innermost one wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{a.name}" for a in node.names]
            else:
                modules = []
            sparse += [f"{path.name}:{node.lineno} {m}" for m in modules if m.startswith("scipy.sparse")]
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "eigsh":
                    sparse.append(f"{path.name}:{node.lineno} eigsh")
                elif name == "_lobpcg":
                    callers.append(f"{path.name}:{owner.get(node)}")
    assert not sparse, f"scipy.sparse in the library: {sparse}"
    assert sorted(callers) == ["spectrum.py:_constrained_lowest", "spectrum.py:_schur_low_end"], callers
