import ast
import importlib
import pkgutil
import re
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


def test_library_uses_no_numpy_fft():
    """Every transform of the library goes through ``scipy.fft``, which
    can overwrite its input: no module names ``np.fft`` or ``numpy.fft``,
    so an out-of-place or column-chunked transform cannot come back."""
    src = Path(layerscatter.__file__).parent
    uses = [f"{path.name}:{i}"
            for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\b(np|numpy)\.fft\b|from numpy import .*\bfft\b",
                         line)]
    assert not uses
    assert "scipy.fft" in (src / "multiscat.py").read_text()


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
    """Neither importing the package nor a box M2L and a box field
    evaluation on band600 load ``scipy.spatial``: it adds about 4 MB to a
    process's resident memory, and the boxes find their near pairs by cell
    buckets."""
    src = Path(layerscatter.__file__).resolve().parents[1]
    script = """
import sys, numpy as np, layerscatter
from layerscatter import multiscat
print('scipy.spatial' in sys.modules)
c = np.array([i.center for i in layerscatter.place_particles(
    (-28.0, 28.0, -3.0, -1.1), 600, 0.165, 8)])
pair = multiscat.PairCoupling(c, 3.0, 10)
rng = np.random.default_rng(0)
pts = np.stack([rng.uniform(-28, 28, 2000), rng.uniform(-8, 0, 2000)], -1)
pts = pts[multiscat.disk_owners(c, 0.165, pts) < 0]
plan = multiscat._box_plan(c, 3.0, 10, pts)
multiscat.eval_multipole_field(np.ones((600, 21)), c, 0.165, 3.0, pts)
print(pair.grid is not None, plan[0] < 600 * len(pts) * 21,
      'scipy.spatial' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=src,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True", "True", "False"]


def test_solve_leaves_out_scipy_linalg():
    """Neither importing the package nor a band600 solve at M = 8 on the
    auto and NUFFT paths (the Nystrom scattering matrix, the couplings,
    the coarse block's LU and GMRES) loads ``scipy.linalg``: its LAPACK
    runs on a second OpenBLAS whose threads contend with numpy's."""
    root = Path(__file__).resolve().parents[1]
    band600 = root / "perfbench" / "scenes" / "band600.scene"
    script = f"""
import sys
from dataclasses import replace
import layerscatter
from layerscatter.scene import load_scene, solve_scene
print('scipy.linalg' in sys.modules)
cfg = replace(load_scene({str(band600)!r}), M=8)
for path in ("auto", "nufft"):
    build, sol = solve_scene(replace(cfg, path=path), use_cache=False)
    print(build.operator.use_nufft, sol.history[-1] <= cfg.tol)
print('scipy.linalg' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=root / "src",
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "True", "True", "True", "False"]
