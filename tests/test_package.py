import importlib
import pkgutil

import layerscatter


def test_all_exports_resolve():
    """Every name a module lists in ``__all__`` exists in that module."""
    modules = [layerscatter] + [
        importlib.import_module(f"layerscatter.{info.name}")
        for info in pkgutil.iter_modules(layerscatter.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing
    assert sum(len(getattr(mod, "__all__", ())) for mod in modules) > 50
