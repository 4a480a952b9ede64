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
    ``scipy.special``: the stepper and the spectrum import them when called, so a
    command that needs neither starts without their cost."""
    src = str(Path(nlkglab.__file__).resolve().parents[1])
    code = (
        "import sys, nlkglab.cli\n"
        "packages = {'.'.join(m.split('.')[:2]) for m in sys.modules}\n"
        "print(sorted(packages & {'scipy.fft', 'scipy.sparse', 'scipy.special'}))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
