import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_library_does_not_print():
    """Library modules report through ``logging``; only the CLI prints."""
    src = Path(layerscatter.__file__).parent
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert not calls
    assert len(list(src.glob("*.py"))) > 10


def test_benchmark_trace_targets_resolve(monkeypatch):
    """Every library entry point the benchmark's tracer wraps exists, so a
    refactor cannot silently drop a per-layer metric."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracing = importlib.import_module("tracing")
    absent = [f"{module}.{path}" for module, path, _, _ in tracing.TARGETS
              if tracing._resolve(module, path) is None]
    assert not absent
    assert len(tracing.TARGETS) >= 21


def test_import_leaves_out_scipy_spatial():
    """Importing the package does not load ``scipy.spatial``: it adds about
    4 MB to a process's resident memory and only the box M2L needs it."""
    src = Path(layerscatter.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, layerscatter; "
         "print('scipy.spatial' in sys.modules)"],
        cwd=src, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
