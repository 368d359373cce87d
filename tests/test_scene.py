import json
import logging
import os
import zipfile
from pathlib import Path

import numpy as np
import pytest

from layerscatter.scene import (FieldGrid, SceneConfig, build_scene,
                                cache_entry_path, check_placement,
                                evaluate_grid,
                                load_field_grid, load_scene, place_particles,
                                placement_capacity,
                                precompute_scattering_matrix,
                                save_field_grid, solve_scene)

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def with_setting(text, line):
    """Scene text with ``line`` in place of the line that sets its key, or
    appended if none does."""
    key = line.split("=")[0].strip()
    kept = [ln for ln in text.splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


def small_config(**over):
    kw = dict(k1=1.0, k2=3.0, k3=1.0, d=32.0, source_x=1.0, source_y=1.0,
              a1=0.12, a2=0.04, a3=3, kp=2.0, M=3, region_x0=-4.0,
              region_x1=4.0, region_y0=-20.0, region_y1=-12.0, seed=3,
              tol=1e-8)
    kw.update(over)
    return SceneConfig(**kw)


# ---------------------------------------------------------------------------
# Scene files
# ---------------------------------------------------------------------------

def test_bundled_example1_parses():
    cfg = load_scene(SCENES / "example1.scene")
    assert (cfg.k1, cfg.k2, cfg.k3) == (1.0, 3.0, 1.0)
    assert cfg.kp == 2.0 and cfg.d == 32.0
    assert (cfg.a1, cfg.a2, cfg.a3) == (0.12, 0.04, 3)
    assert (cfg.source_x, cfg.source_y) == (1.0, 1.0)
    assert cfg.p == 10 and cfg.N == 300 and cfg.tol == 1e-6


def test_defaults_filled(tmp_path):
    path = tmp_path / "min.scene"
    base = (SCENES / "example1.scene").read_text()
    # drop the optional keys
    kept = [ln for ln in base.splitlines()
            if not ln.strip().startswith(("p ", "N ", "tol ", "path "))]
    path.write_text("\n".join(kept))
    cfg = load_scene(path)
    assert cfg.p == 10 and cfg.N == 300 and cfg.tol == 1e-6
    assert cfg.path == "auto"


def test_source_in_lower_halfplane_rejected():
    with pytest.raises(ValueError, match="layer 1"):
        small_config(source_y=-1.0)


def test_region_too_close_to_interface_rejected():
    with pytest.raises(ValueError, match="half a wavelength"):
        small_config(region_y1=-0.5)
    with pytest.raises(ValueError, match="half a wavelength"):
        small_config(region_y0=-31.9)


@pytest.mark.parametrize("name", ["M", "p", "N", "a3", "seed", "maxiter",
                                  "restart"])
def test_non_integral_int_setting_rejected(name):
    """An integer setting given a fractional or infinite value is refused
    with a ValueError naming it, not truncated (a3 = 3.5 is not a
    three-petal flower)."""
    base = small_config()
    for value in (getattr(base, name) + 0.5, float("inf")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            small_config(**{name: value})


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.scene"
    p.write_text((SCENES / "example1.scene").read_text() + "\nwhat = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_scene(p)


@pytest.mark.parametrize("line, match", [
    ("restart = 0", "at least 1"), ("maxiter = 0", "at least 1"),
    ("tol = 0", "positive"), ("tol = -1", "positive"),
    ("a2 = 0.2", "a1 > a2"), ("p = -1", "p must be nonnegative"),
    ("seed = -1", "seed must be nonnegative"), ("kp = 0", "kp != 0")])
def test_bad_solver_or_shape_setting_rejected_at_load(tmp_path, line, match):
    """Settings that GMRES, the shape, the placement or the scattering
    matrix would reject after the precompute, or in it, are rejected when
    the scene is loaded."""
    p = tmp_path / "bad.scene"
    p.write_text(with_setting((SCENES / "example1.scene").read_text(), line))
    with pytest.raises(ValueError, match=match):
        load_scene(p)


def test_repeated_key_rejected(tmp_path):
    """A key given twice is refused, naming the key and both lines, instead
    of the later value silently winning."""
    p = tmp_path / "twice.scene"
    base = (SCENES / "example1.scene").read_text()
    p.write_text(base + "M = 4\n")
    first = 1 + base.splitlines().index("M = 100")
    last = 1 + base.count("\n")
    with pytest.raises(ValueError,
                       match=f"'M' given twice, on lines {first} and {last}"):
        load_scene(p)


def test_missing_required_key_rejected(tmp_path):
    p = tmp_path / "missing.scene"
    lines = [ln for ln in (SCENES / "example1.scene").read_text().splitlines()
             if not ln.strip().startswith("k2")]
    p.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="k2"):
        load_scene(p)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

REGION = (-14.0, 14.0, -30.0, -2.0)
R = 0.176


def test_single_particle_inside_region():
    insts = place_particles(REGION, 1, R, seed=5)
    assert len(insts) == 1
    x, y = insts[0].center
    assert REGION[0] <= x <= REGION[1] and REGION[2] <= y <= REGION[3]


def test_placement_deterministic():
    a = place_particles(REGION, 200, R, seed=11)
    b = place_particles(REGION, 200, R, seed=11)
    assert all(p.center == q.center and p.rotation == q.rotation
               for p, q in zip(a, b))
    c = place_particles(REGION, 200, R, seed=12)
    assert any(p.center != q.center for p, q in zip(a, c))


def test_placement_separation_exhaustive():
    insts = place_particles(REGION, 800, R, seed=0)
    dmin = check_placement(insts, R)
    assert dmin > 2.2 * R
    c = np.array([i.center for i in insts])
    assert (c[:, 0] >= REGION[0]).all() and (c[:, 0] <= REGION[1]).all()
    assert (c[:, 1] >= REGION[2]).all() and (c[:, 1] <= REGION[3]).all()


def test_placement_capacity_error():
    cap = placement_capacity(REGION, R)
    with pytest.raises(ValueError, match=str(cap)):
        place_particles(REGION, cap + 1, R, seed=0)


def test_rotations_uniform_range():
    insts = place_particles(REGION, 300, R, seed=2)
    rots = np.array([i.rotation for i in insts])
    assert (rots >= 0).all() and (rots < 2 * np.pi).all()
    assert rots.std() > 1.0          # not degenerate


# ---------------------------------------------------------------------------
# Field grid format
# ---------------------------------------------------------------------------

def test_field_grid_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))
    g = FieldGrid(x0=-2.0, x1=3.0, y0=-5.0, y1=-1.0, nx=7, ny=9, values=vals,
                  metadata={"fingerprint": "ab", "residual": 1e-7,
                            "timings": {"eval_seconds": 0.1}})
    path = tmp_path / "g.lsfg"
    save_field_grid(path, g)
    raw = path.read_bytes()
    assert len(raw) == 64 + 9 * 7 * 16
    assert raw[:4] == b"LSFG" and raw[63:64] == b"\n"
    g2 = load_field_grid(path)
    assert np.array_equal(g2.values, vals)
    assert (g2.x0, g2.x1, g2.y0, g2.y1) == (-2.0, 3.0, -5.0, -1.0)
    assert g2.metadata["residual"] == 1e-7
    side = json.loads((tmp_path / "g.lsfg.json").read_text())
    assert side["nx"] == 7 and side["ny"] == 9


def test_field_grid_shape_guard():
    with pytest.raises(ValueError):
        FieldGrid(x0=0, x1=1, y0=0, y1=1, nx=3, ny=3,
                  values=np.zeros((2, 3)))


# sidecars that do not belong to bad.lsfg's 3 x 2 grid: another grid's, one
# with two extents, and one that is not JSON
BAD_SIDECARS = {
    "foreign_sidecar": lambda meta: json.dumps({**meta, "nx": 4, "ny": 5,
                                                "extent": [0, 2, 0, 1]}),
    "short_extent": lambda meta: json.dumps({**meta, "extent": [0, 1]}),
    "sidecar_not_json": lambda meta: "{nx: 3",
}


@pytest.mark.parametrize("case", ["garbage", "empty", "truncated",
                                  "trailing", *BAD_SIDECARS])
def test_load_rejects_non_grid(tmp_path, case):
    """Not a grid, a grid file cut short or with bytes past its values, or
    a sidecar that does not match the header: a ValueError that names the
    file."""
    p = tmp_path / "bad.lsfg"
    side = tmp_path / "bad.lsfg.json"
    if case == "garbage":
        p.write_bytes(b"x" * 128)
    else:
        save_field_grid(p, FieldGrid(x0=0, x1=1, y0=0, y1=1, nx=3, ny=2,
                                     values=np.ones((2, 3))))
        data = p.read_bytes()
        if case in BAD_SIDECARS:
            side.write_text(BAD_SIDECARS[case](json.loads(side.read_text())))
        else:
            p.write_bytes({"empty": b"", "truncated": data[:-5],
                           "trailing": data + b"\0" * 16}[case])
    with pytest.raises(ValueError, match="bad.lsfg"):
        load_field_grid(p)


# ---------------------------------------------------------------------------
# End-to-end scene pipeline
# ---------------------------------------------------------------------------

@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LAYERSCATTER_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def test_solve_scene_and_grid(cache_env):
    cfg = small_config()
    build, sol = solve_scene(cfg)
    assert sol.history[-1] <= cfg.tol
    check_placement(build.instances, build.smatrix.R)
    grid = evaluate_grid(sol, (-5, 5, -24, -8), 12, 10)
    assert np.isfinite(grid.values).all()
    assert grid.metadata["residual"] <= cfg.tol
    assert grid.metadata["fingerprint"] == cfg.fingerprint().hex()


def test_warm_cache_reproduces_cold(cache_env):
    cfg = small_config()
    _, cold = solve_scene(cfg)
    _, warm = solve_scene(cfg)
    assert np.abs(cold.betas - warm.betas).max() <= 1e-12


def test_stale_cache_triggers_rebuild(cache_env, caplog):
    cfg = small_config()
    solve_scene(cfg)
    cache = Path(os.environ["LAYERSCATTER_CACHE_DIR"])
    for f in cache.glob("*.npz"):
        f.write_bytes(b"garbage!" * 16)
    with caplog.at_level(logging.WARNING, logger="layerscatter"):
        _, sol = solve_scene(cfg)
    assert caplog.records and "rebuild" in caplog.records[0].getMessage()
    assert sol.history[-1] <= cfg.tol


# where the cut falls: in the scattering matrix or in the densities, the two
# halves of an entry that were once the separate .lssm and .densities.npz
CUT_MEMBERS = {".lssm": "entries.npy", ".densities.npz": "mu.npy"}


@pytest.mark.parametrize("suffix", list(CUT_MEMBERS))
def test_truncated_cache_entry_rebuilt(cache_env, suffix, caplog):
    """A cache file cut short (as by a crash mid-write) inside the matrix or
    inside the densities is rebuilt with a logged warning, and the rebuilt
    entry loads again."""
    cfg = small_config()
    S, _, dens = precompute_scattering_matrix(cfg)
    cache = Path(os.environ["LAYERSCATTER_CACHE_DIR"])
    (entry,) = cache.glob("*.npz")
    with zipfile.ZipFile(entry) as zf:
        member = zf.getinfo(CUT_MEMBERS[suffix])
    cut = member.header_offset + 40 + member.compress_size // 2
    assert cut < entry.stat().st_size
    entry.write_bytes(entry.read_bytes()[:cut])
    caplog.set_level(logging.WARNING, logger="layerscatter")
    S2, _, dens2 = precompute_scattering_matrix(cfg)
    assert len(caplog.records) == 1
    assert "rebuild" in caplog.records[0].getMessage()
    assert np.array_equal(S2.entries, S.entries)
    assert np.array_equal(dens2.mu, dens.mu)
    precompute_scattering_matrix(cfg)
    assert len(caplog.records) == 1
    assert len(list(cache.iterdir())) == 1      # no temp files left over


def test_warm_cache_entry_bitwise(cache_env, caplog):
    """A fresh cache holds exactly one entry; loading it gives every field
    of S and both densities bitwise equal to the cold build."""
    cfg = small_config()
    S, _, dens = precompute_scattering_matrix(cfg)
    assert list(cache_entry_path(cfg).parent.iterdir()) == \
        [cache_entry_path(cfg)]
    caplog.set_level(logging.WARNING, logger="layerscatter")
    S2, _, dens2 = precompute_scattering_matrix(cfg)
    assert not caplog.records
    assert (S2.p, S2.R, S2.k2, S2.kp, S2.fingerprint) == \
        (S.p, S.R, S.k2, S.kp, S.fingerprint)
    for warm, cold in ((S2.entries, S.entries), (dens2.mu, dens.mu),
                       (dens2.sigma, dens.sigma)):
        assert warm.dtype == cold.dtype and warm.shape == cold.shape
        assert warm.tobytes() == cold.tobytes()


def test_uncached_precompute_writes_nothing(cache_env):
    precompute_scattering_matrix(small_config(), use_cache=False)
    assert not (cache_env / "cache").exists()


@pytest.fixture(scope="module")
def cold_entry(tmp_path_factory):
    """One cold build of ``small_config``'s prototype and the fields of the
    cache entry it wrote."""
    cache = tmp_path_factory.mktemp("cold")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LAYERSCATTER_CACHE_DIR", str(cache))
        S, _, dens = precompute_scattering_matrix(small_config())
    (path,) = cache.iterdir()
    with np.load(path) as z:
        fields = {name: z[name] for name in z.files}
    return S, dens, fields


# each a change that makes the entry foreign to ``small_config``
FOREIGN_FIELDS = {
    "version": lambda f: {"version": f["version"] + 1},
    "fingerprint": lambda f: {"fingerprint": f["fingerprint"] ^ 1},
    "p": lambda f: {"p": f["p"] + 1},
    "k2": lambda f: {"k2": f["k2"] + 0.5},
    "kp": lambda f: {"kp": f["kp"] + 0.5},
    "mu_shape": lambda f: {"mu": f["mu"][:-1]},
}


@pytest.mark.parametrize("case", ["garbage", *FOREIGN_FIELDS])
def test_bad_cache_entry_rebuilt(cache_env, cold_entry, case, caplog):
    """A garbage entry, or one of another version, shape, p, k2 or kp, or
    with a wrongly shaped mu, is rebuilt with one warning and leaves only
    the rebuilt entry behind."""
    cfg = small_config()
    S, dens, fields = cold_entry
    path = cache_entry_path(cfg)
    path.parent.mkdir()
    if case == "garbage":
        path.write_bytes(b"garbage!" * 16)
    else:
        np.savez(path, **{**fields, **FOREIGN_FIELDS[case](fields)})
    caplog.set_level(logging.WARNING, logger="layerscatter")
    S2, _, dens2 = precompute_scattering_matrix(cfg)
    assert len(caplog.records) == 1
    assert "rebuild" in caplog.records[0].getMessage()
    assert np.array_equal(S2.entries, S.entries)
    assert np.array_equal(dens2.mu, dens.mu)
    assert list(path.parent.iterdir()) == [path]


def test_fingerprint_distinguishes_configs():
    a = small_config()
    b = small_config(seed=4)
    c = small_config(kp=2.5)
    assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


def test_determinism_end_to_end(cache_env):
    cfg = small_config()
    _, s1 = solve_scene(cfg)
    _, s2 = solve_scene(cfg)
    g1 = evaluate_grid(s1, (-5, 5, -24, -8), 6, 5)
    g2 = evaluate_grid(s2, (-5, 5, -24, -8), 6, 5)
    assert np.abs(g1.values - g2.values).max() <= 1e-12
    assert g1.metadata["fingerprint"] == g2.metadata["fingerprint"]
