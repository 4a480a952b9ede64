import importlib
import pkgutil

import nlkglab


def test_every_exported_name_resolves():
    """Each name in a module's ``__all__`` is an attribute of that module, so no
    export outlives the code it names."""
    for info in pkgutil.iter_modules(nlkglab.__path__):
        module = importlib.import_module(f"nlkglab.{info.name}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, f"nlkglab.{info.name}.__all__ names missing attributes: {missing}"
