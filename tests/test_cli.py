from pathlib import Path

import numpy as np
import pytest

from layerscatter.cli import main
from layerscatter.particle import discretize_boundary, enclosing_radius
from layerscatter.scene import load_field_grid, load_scene, \
    placement_capacity

from test_scene import with_setting

SCENES = Path(__file__).resolve().parent.parent / "scenes"

SMALL_SCENE = """\
k1 = 1.0
k2 = 3.0
k3 = 1.0
d = 32.0
source_x = 1.0
source_y = 1.0
a1 = 0.12
a2 = 0.04
a3 = 3
kp = 2.0
M = 3
region_x0 = -4.0
region_x1 = 4.0
region_y0 = -20.0
region_y1 = -12.0
seed = 3
tol = 1e-8
"""


@pytest.fixture()
def scene_file(tmp_path, monkeypatch):
    monkeypatch.setenv("LAYERSCATTER_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "small.scene"
    path.write_text(SMALL_SCENE)
    return path


def test_precompute(scene_file, capsys):
    assert main(["precompute", "--scene", str(scene_file)]) == 0
    out = capsys.readouterr().out
    assert "cached at" in out
    assert len(list((scene_file.parent / "cache").glob("*.npz"))) == 1


def test_solve_writes_solution(scene_file, tmp_path, capsys):
    out = tmp_path / "sol.npz"
    assert main(["solve", "--scene", str(scene_file),
                 "--out", str(out)]) == 0
    assert "residual" in capsys.readouterr().out
    with np.load(out) as z:
        assert z["betas"].shape == (3, 21)
        assert z["history"][-1] <= 1e-8


def test_eval_grid_from_saved_solution(scene_file, tmp_path):
    sol = tmp_path / "sol.npz"
    grid = tmp_path / "field.lsfg"
    assert main(["solve", "--scene", str(scene_file), "--out", str(sol)]) == 0
    assert main(["eval", "--scene", str(scene_file), "--solution", str(sol),
                 "--grid", "8,6", "--extent=-5,5,-24,-8",
                 "--out", str(grid)]) == 0
    g = load_field_grid(grid)
    assert g.values.shape == (6, 8)
    assert np.isfinite(g.values).all()
    assert g.metadata["residual"] <= 1e-8


def test_eval_solves_without_solution(scene_file, tmp_path):
    """Without --solution, eval solves the scene in memory and writes the
    grid."""
    grid = tmp_path / "field.lsfg"
    assert main(["eval", "--scene", str(scene_file), "--grid", "5,4",
                 "--extent=-5,5,-24,-8", "--out", str(grid)]) == 0
    g = load_field_grid(grid)
    assert g.values.shape == (4, 5)
    assert np.isfinite(g.values).all()
    assert g.metadata["residual"] <= 1e-8


@pytest.mark.parametrize("grid", ["-3,5", "0,5", "5,0"])
def test_eval_rejects_nonpositive_grid_counts(scene_file, tmp_path, grid):
    """A --grid count below 1 stops eval with one line naming --grid,
    before the scene is built or anything is written."""
    out = tmp_path / "g.lsfg"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--scene", str(scene_file), f"--grid={grid}",
              "--extent=-5,5,-24,-8", "--out", str(out)])
    msg = str(exc.value.code)
    assert "--grid" in msg and "\n" not in msg
    assert not list(scene_file.parent.glob("cache/*"))
    assert not out.exists()


@pytest.mark.parametrize("flag,grid,extent", [
    ("grid", "a,5", "-5,5,-24,-8"),
    ("extent", "5,4", "-5,5,x,-8"),
    ("extent", "5,4", "nan,1,-5,-1"),
    ("extent", "5,4", "-5,inf,-24,-8")])
def test_eval_rejects_non_numeric_values(scene_file, tmp_path, flag, grid,
                                         extent):
    """A --grid or --extent value that is not a number, or an --extent
    value that is not finite, stops eval with one line naming the flag,
    before the scene is built or anything is written."""
    out = tmp_path / "g.lsfg"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--scene", str(scene_file), f"--grid={grid}",
              f"--extent={extent}", "--out", str(out)])
    msg = str(exc.value.code)
    assert f"--{flag}" in msg and "\n" not in msg
    assert not list(scene_file.parent.glob("cache/*"))
    assert not out.exists()


def test_solve_reports_gmres_failure(scene_file, capsys):
    """A solve that GMRES cannot finish (maxiter = 1) exits with 1 and
    prints the failure and the residual history to stderr."""
    scene_file.write_text(SMALL_SCENE + "maxiter = 1\n")
    assert main(["solve", "--scene", str(scene_file)]) == 1
    err = capsys.readouterr().err
    assert "solver failed" in err
    assert "iter    0  residual" in err


def test_eval_rejects_foreign_solution(scene_file, tmp_path):
    sol = tmp_path / "sol.npz"
    assert main(["solve", "--scene", str(scene_file), "--out", str(sol)]) == 0
    other = tmp_path / "other.scene"
    other.write_text(SMALL_SCENE.replace("seed = 3", "seed = 4"))
    with pytest.raises(SystemExit):
        main(["eval", "--scene", str(other), "--solution", str(sol),
              "--grid", "4,4", "--extent=-5,5,-24,-8",
              "--out", str(tmp_path / "g.lsfg")])


@pytest.mark.parametrize("name,change", [
    ("sigma", lambda a: a[:-7]),
    ("history", lambda a: a[:0]),
    ("betas", lambda a: a[:, :5]),
    ("alphas", lambda a: a[:2]),
    ("alphas", lambda a: a * np.nan)],
    ids=["sigma-short", "history-empty", "betas-5-columns", "alphas-2-rows",
         "alphas-nan"])
def test_eval_rejects_solution_that_does_not_fit(scene_file, tmp_path, name,
                                                 change):
    """A solution file of this scene whose arrays are cut short, empty or
    not finite stops eval with one line naming the file, and writes no
    grid."""
    sol = tmp_path / "sol.npz"
    bad = tmp_path / "bad.npz"
    out = tmp_path / "g.lsfg"
    assert main(["solve", "--scene", str(scene_file), "--out", str(sol)]) == 0
    with np.load(sol) as z:
        arrays = dict(z)
    arrays[name] = change(arrays[name])
    np.savez(bad, **arrays)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--scene", str(scene_file), "--solution", str(bad),
              "--grid", "4,4", "--extent=-5,5,-24,-8", "--out", str(out)])
    msg = str(exc.value.code)
    assert str(bad) in msg and "\n" not in msg
    assert not out.exists()


def test_eval_missing_solution_exits_before_building(scene_file, tmp_path):
    """A missing --solution file stops eval with a one-line message that
    names it, before the scattering matrix is built or cached."""
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--scene", str(scene_file), "--solution", "nope.npz",
              "--grid", "4,4", "--extent=-5,5,-24,-8",
              "--out", str(tmp_path / "g.lsfg")])
    msg = str(exc.value.code)
    assert "nope.npz" in msg and "\n" not in msg
    assert not list(scene_file.parent.glob("cache/*"))


def test_solve_out_writes_the_named_file(scene_file, tmp_path):
    """--out without a .npz suffix writes exactly that file, and eval
    reads it back."""
    sol = tmp_path / "sol.bin"
    assert main(["solve", "--scene", str(scene_file), "--out", str(sol)]) == 0
    assert sol.exists() and not (tmp_path / "sol.bin.npz").exists()
    assert main(["eval", "--scene", str(scene_file), "--solution", str(sol),
                 "--grid", "4,4", "--extent=-5,5,-24,-8",
                 "--out", str(tmp_path / "g.lsfg")]) == 0


@pytest.mark.parametrize("command", [
    ["solve"], ["eval", "--grid", "4,4", "--extent=-5,5,-24,-8"]])
def test_out_in_missing_directory_exits_before_solving(scene_file, tmp_path,
                                                       command):
    """An --out file whose directory does not exist stops solve and eval
    with a one-line message naming the file, before the scattering matrix
    is built and without creating anything."""
    out = tmp_path / "nowhere" / "result.bin"
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--scene", str(scene_file), *command[1:],
              "--out", str(out)])
    msg = str(exc.value.code)
    assert str(out) in msg and "\n" not in msg
    assert not out.parent.exists()
    assert not list(scene_file.parent.glob("cache/*"))


def test_tol_override(scene_file, tmp_path, capsys):
    assert main(["solve", "--scene", str(scene_file), "--tol", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "residual" in out


@pytest.mark.parametrize("scene, extra", [
    (SMALL_SCENE, ["--tol", "0"]),
    (SMALL_SCENE + "restart = 0\n", []),
    (SMALL_SCENE.replace("k2 = 3.0\n", ""), []),
    (None, []),
    (SMALL_SCENE, ["--seed", "-1"])])
def test_invalid_scene_exits_with_message(scene_file, scene, extra):
    """A missing scene file, or a scene or override that fails validation,
    stops the CLI before any precompute with a one-line message instead of
    a traceback."""
    if scene is None:
        scene_file.unlink()
    else:
        scene_file.write_text(scene)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scene", str(scene_file), *extra])
    msg = str(exc.value.code)
    assert msg and "\n" not in msg
    assert not list(scene_file.parent.glob("cache/*"))


@pytest.mark.parametrize("line", [
    "source_x = nan", "source_y = nan", "region_x0 = nan", "kp = nan",
    "kp = 2+nanj", "k1 = inf", "d = -inf", "tol = inf"])
def test_non_finite_scene_value_rejected(scene_file, line):
    """A nan or inf value fails validation at load, naming its key, and
    stops the CLI with a one-line message before any precompute."""
    key = line.split()[0]
    scene_file.write_text(with_setting(SMALL_SCENE, line))
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        load_scene(scene_file)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scene", str(scene_file)])
    msg = str(exc.value.code)
    assert key in msg and "\n" not in msg
    assert not list(scene_file.parent.glob("cache/*"))


def test_scene_over_placement_capacity_rejected(scene_file, flower_smatrix):
    """M above the region's placement capacity, for the prototype's
    enclosing radius as the Nystrom build computes it, fails at load and
    stops the CLI with a one-line message before any precompute; M at the
    capacity loads."""
    R = enclosing_radius(discretize_boundary(load_scene(scene_file).shape()))
    assert R == flower_smatrix[0].R
    cap = placement_capacity((-4.0, 4.0, -20.0, -12.0), R)
    scene_file.write_text(SMALL_SCENE.replace("M = 3", f"M = {cap}"))
    assert load_scene(scene_file).M == cap
    scene_file.write_text(SMALL_SCENE.replace("M = 3", f"M = {cap + 1}"))
    with pytest.raises(ValueError, match=f"holds at most {cap} particles"):
        load_scene(scene_file)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scene", str(scene_file)])
    msg = str(exc.value.code)
    assert f"requested {cap + 1}" in msg and "\n" not in msg
    assert not list(scene_file.parent.glob("cache/*"))


def test_selftest_fast(scene_file, capsys):
    assert main(["selftest", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert "PASS  sommerfeld point source" in out
    assert "FAIL" not in out


def test_selftest_full(scene_file, capsys):
    """The full level solves a small scene without touching the cache."""
    assert main(["selftest", "--level", "full"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert "FAIL" not in out
    assert not (scene_file.parent / "cache").exists()
