"""Scene configuration, particle placement, and artifact formats.

A scene file is flat ``key = value`` text (``#`` starts a comment) that
describes the layer stack, the inclusion shape, the placement region, and
the solver settings.  This module turns a parsed :class:`SceneConfig` into
the ready-to-solve :class:`~layerscatter.solver.SchurOperator`, manages the
on-disk scattering-matrix cache (location overridable through the
``LAYERSCATTER_CACHE_DIR`` environment variable), and reads/writes the
binary :class:`FieldGrid` format used to export sampled fields.
"""

import hashlib
import json
import logging
import os
import tempfile
import time
import zipfile
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .layers import LayerStack, build_contour_adaptive
from .multiscat import ParticleInstance
from .particle import (PrecomputedDensities, ScatteringMatrix, ShapeParams,
                       discretize_boundary, enclosing_radius,
                       scattering_matrix_nystrom, shape_fingerprint)
from .solver import GmresConfig, SchurOperator, eval_total_field, \
    solve_layered_scene

SEPARATION_FACTOR = 2.2     # centre separation in units of R (10% margin)
PLACEMENT_SWEEPS = 5
PERTURB_FRACTION = 0.4      # perturbation radius in units of the grid pitch


# ---------------------------------------------------------------------------
# Scene configuration
# ---------------------------------------------------------------------------

@dataclass
class SceneConfig:
    """Validated description of a layered-medium scattering scene."""
    k1: complex
    k2: complex
    k3: complex
    d: float
    source_x: float
    source_y: float
    a1: float
    a2: float
    a3: int
    kp: complex
    M: int
    region_x0: float
    region_x1: float
    region_y0: float
    region_y1: float
    seed: int
    p: int = 10
    N: int = 300
    tol: float = 1e-6
    maxiter: int = 1000
    restart: int = 100
    path: str = "auto"

    def __post_init__(self):
        # canonicalize types so fingerprints do not depend on how the
        # config was constructed (e.g. float vs complex wavenumbers)
        for f in fields(self):
            if f.type in (complex, float, int):
                value = f.type(getattr(self, f.name))
                if f.type is not int and not np.isfinite(value):
                    raise ValueError(f"{f.name} must be finite, got {value}")
                setattr(self, f.name, value)
        if self.path not in ("auto", "direct", "nufft"):
            raise ValueError(f"path must be auto|direct|nufft, got {self.path!r}")
        for name in ("M", "seed", "p"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, "
                                 f"got {getattr(self, name)}")
        if self.region_x1 <= self.region_x0:
            raise ValueError("placement region has nonpositive width "
                             f"({self.region_x0} .. {self.region_x1})")
        if self.region_y1 <= self.region_y0:
            raise ValueError("placement region has nonpositive height "
                             f"({self.region_y0} .. {self.region_y1})")
        if self.source_y <= 0:
            raise ValueError(f"source must be in layer 1 (y > 0), "
                             f"got y = {self.source_y}")
        inset = 0.5 * 2 * np.pi / np.real(complex(self.k2))
        if self.region_y1 > -inset:
            raise ValueError(
                f"region top {self.region_y1} within half a wavelength "
                f"({inset:.4g}) of the interface y = 0")
        if self.region_y0 < -self.d + inset:
            raise ValueError(
                f"region bottom {self.region_y0} within half a wavelength "
                f"({inset:.4g}) of the interface y = {-self.d}")
        # the layer stack, shape and GMRES settings check themselves, and
        # the region must hold M inclusions before any precompute runs
        self.layers()
        _require_capacity(self.region(), self.M,
                          enclosing_radius(discretize_boundary(self.shape())))
        self.gmres_config()

    def layers(self):
        return LayerStack(k1=self.k1, k2=self.k2, k3=self.k3, d=self.d,
                          source=(self.source_x, self.source_y))

    def shape(self):
        return ShapeParams(a1=self.a1, a2=self.a2, a3=self.a3, kp=self.kp,
                           N=self.N)

    def region(self):
        return (self.region_x0, self.region_x1, self.region_y0, self.region_y1)

    def gmres_config(self):
        return GmresConfig(tol=self.tol, maxiter=self.maxiter,
                           restart=self.restart)

    def fingerprint(self):
        """Stable identifier of the full scene (geometry + materials + solve)."""
        items = [(f.name, getattr(self, f.name)) for f in fields(self)]
        return hashlib.sha256(repr(items).encode()).digest()


def load_scene(path):
    """Parse and validate a ``key = value`` scene file."""
    known = {f.name: f for f in fields(SceneConfig)}
    values, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', "
                                 f"got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in lines:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice, "
                                 f"on lines {lines[key]} and {lineno}")
            lines[key] = lineno
            try:
                values[key] = known[key].type(val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: "
                                 f"{exc}") from None
    required = [n for n, f in known.items() if f.default is MISSING]
    missing = [n for n in required if n not in values]
    if missing:
        raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
    return SceneConfig(**values)


# ---------------------------------------------------------------------------
# Particle placement
# ---------------------------------------------------------------------------

def placement_capacity(region, R):
    """Largest particle count the region holds at the 2.2R separation."""
    x0, x1, y0, y1 = region
    sep = SEPARATION_FACTOR * R * (1 + 1e-9)
    nx = int(np.floor((x1 - x0) / sep)) + 1
    ny = int(np.floor((y1 - y0) / sep)) + 1
    return nx * ny


def _require_capacity(region, M, R):
    """ValueError unless the region holds M particles of enclosing radius R."""
    capacity = placement_capacity(region, R)
    if M > capacity:
        raise ValueError(
            f"region {region} holds at most {capacity} particles at "
            f"separation {SEPARATION_FACTOR * R:.4g}; requested {M}")


def place_particles(region, M, R, seed):
    """Random non-overlapping placement: perturbed-grid with repeated sweeps.

    Seeds a regular grid of at least ``M`` points, keeps a random subset,
    then runs a few sweeps in which every particle attempts a uniform
    in-disk perturbation, rejected whenever it would violate the pairwise
    separation ``2.2 R`` or leave the region.  Deterministic for a fixed
    seed.  Rotations are uniform on [0, 2 pi).
    """
    x0, x1, y0, y1 = region
    _require_capacity(region, M, R)
    if M == 0:
        return []
    rng = np.random.default_rng(seed)
    wx, wy = x1 - x0, y1 - y0
    sep = SEPARATION_FACTOR * R * (1 + 1e-9)
    nx_max = int(np.floor(wx / sep)) + 1
    ny_max = int(np.floor(wy / sep)) + 1
    nx = min(nx_max, max(1, round(np.sqrt(M * wx / wy))))
    ny = -(-M // nx)
    while ny > ny_max:
        nx = min(nx_max, nx + 1)
        ny = -(-M // nx)
    gx = np.linspace(x0, x1, nx) if nx > 1 else np.array([(x0 + x1) / 2])
    gy = np.linspace(y0, y1, ny) if ny > 1 else np.array([(y0 + y1) / 2])
    pitch = min(gx[1] - gx[0] if nx > 1 else wx or sep,
                gy[1] - gy[0] if ny > 1 else wy or sep)
    ij = rng.choice(nx * ny, size=M, replace=False)
    pos = np.stack([gx[ij % nx], gy[ij // nx]], axis=-1)

    sep2 = (SEPARATION_FACTOR * R) ** 2
    rad = PERTURB_FRACTION * pitch
    for _ in range(PLACEMENT_SWEEPS):
        for m in range(M):
            r = rad * np.sqrt(rng.uniform())
            th = rng.uniform(0.0, 2 * np.pi)
            cand = pos[m] + r * np.array([np.cos(th), np.sin(th)])
            if not (x0 <= cand[0] <= x1 and y0 <= cand[1] <= y1):
                continue
            diff = pos - cand
            d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
            d2[m] = np.inf
            if d2.min() > sep2:
                pos[m] = cand
    rotations = rng.uniform(0.0, 2 * np.pi, M)
    return [ParticleInstance((float(x), float(y)), float(t), float(R))
            for (x, y), t in zip(pos, rotations)]


def check_placement(instances, R):
    """Exhaustive pairwise-separation check; returns the minimum distance."""
    if len(instances) < 2:
        return np.inf
    c = np.array([i.center for i in instances])
    d2 = ((c[:, None, :] - c[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    dmin = float(np.sqrt(d2.min()))
    if dmin <= SEPARATION_FACTOR * R:
        raise ValueError(f"placement violates separation: min distance "
                         f"{dmin:.6g} <= {SEPARATION_FACTOR * R:.6g}")
    return dmin


# ---------------------------------------------------------------------------
# Scattering-matrix cache
# ---------------------------------------------------------------------------

_CACHE_VERSION = 1


def cache_entry_path(cfg):
    """The cache file of the config's prototype, one ``.npz`` per shape
    fingerprint, k2, kp and p, in ``$LAYERSCATTER_CACHE_DIR`` (default
    ``~/.cache/layerscatter``)."""
    base = (os.environ.get("LAYERSCATTER_CACHE_DIR")
            or Path.home() / ".cache" / "layerscatter")
    blob = repr((shape_fingerprint(cfg.shape()).hex(), complex(cfg.k2),
                 complex(cfg.kp), int(cfg.p))).encode()
    return Path(base) / (hashlib.sha256(blob).hexdigest()[:24] + ".npz")


def _write_atomic(path, write):
    """Call ``write`` on a temp file beside ``path``, then rename it over
    ``path``: readers see the old entry or the whole new one, never part."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=path.suffix)
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_entry(path, cfg):
    """``(S, densities)`` from a cache entry; ValueError unless its version,
    p, k2, kp and shape fingerprint match the config and S is (2p+1, 2p+1)
    and each density (N, 2p+1)."""
    m = 2 * cfg.p + 1
    with np.load(path) as z:
        entries, mu, sigma = z["entries"], z["mu"], z["sigma"]
        fingerprint = z["fingerprint"].tobytes()
        if not (int(z["version"]) == _CACHE_VERSION and int(z["p"]) == cfg.p
                and complex(z["k2"]) == cfg.k2 and complex(z["kp"]) == cfg.kp
                and fingerprint == shape_fingerprint(cfg.shape())
                and entries.shape == (m, m)
                and mu.shape == sigma.shape == (cfg.N, m)):
            raise ValueError(f"foreign cache entry: {path}")
        S = ScatteringMatrix(p=cfg.p, entries=entries, R=float(z["R"]),
                             k2=cfg.k2, kp=cfg.kp, fingerprint=fingerprint)
    return S, PrecomputedDensities(p=cfg.p, mu=mu, sigma=sigma)


def precompute_scattering_matrix(cfg, use_cache=True):
    """Build (or load from cache) the prototype scattering data.

    Returns ``(S, boundary, mode_densities)``.  An unreadable cache entry,
    or one whose identity or array shapes disagree with the config, is
    rebuilt, with a warning on the ``layerscatter`` logger.
    """
    boundary = discretize_boundary(cfg.shape())
    path = cache_entry_path(cfg)
    if use_cache and path.exists():
        try:
            S, dens = _load_entry(path, cfg)
        except (ValueError, TypeError, KeyError, OSError, EOFError,
                zipfile.BadZipFile):
            logging.getLogger("layerscatter").warning(
                "cache entry %s stale or corrupt; rebuilding", path)
        else:
            return S, boundary, dens
    S, dens = scattering_matrix_nystrom(boundary, cfg.k2, cfg.kp, cfg.p)
    if use_cache:
        _write_atomic(path, lambda tmp: np.savez(
            tmp, version=_CACHE_VERSION, entries=S.entries, p=S.p, R=S.R,
            k2=S.k2, kp=S.kp, mu=dens.mu, sigma=dens.sigma,
            fingerprint=np.frombuffer(S.fingerprint, np.uint8)))
    return S, boundary, dens


# ---------------------------------------------------------------------------
# Scene assembly and solve
# ---------------------------------------------------------------------------

@dataclass
class SceneBuild:
    """Everything assembled from a config, ready to solve and evaluate."""
    config: SceneConfig
    layers: LayerStack
    contour: object
    instances: list
    smatrix: object
    boundary: object
    mode_densities: object
    operator: SchurOperator


def build_scene(cfg, use_cache=True):
    """Assemble contour, placement, scattering matrix, and the operator."""
    layers = cfg.layers()
    S, boundary, dens = precompute_scattering_matrix(cfg, use_cache=use_cache)
    instances = place_particles(cfg.region(), cfg.M, S.R, cfg.seed)
    sep_v = min(cfg.source_y, -cfg.region_y1, cfg.region_y0 + cfg.d)
    xs = [cfg.region_x0, cfg.region_x1, cfg.source_x]
    contour = build_contour_adaptive(layers, min_vertical_sep=sep_v,
                                     max_horiz=max(xs) - min(xs))
    use_nufft = {"auto": None, "direct": False, "nufft": True}[cfg.path]
    op = SchurOperator(contour, layers, instances, S, use_nufft=use_nufft)
    return SceneBuild(config=cfg, layers=layers, contour=contour,
                      instances=instances, smatrix=S, boundary=boundary,
                      mode_densities=dens, operator=op)


def solve_scene(cfg, use_cache=True):
    """End-to-end: build the scene and run the Schur-complement solve."""
    build = build_scene(cfg, use_cache=use_cache)
    sol = solve_layered_scene(build.operator, cfg.gmres_config(),
                              boundary=build.boundary,
                              mode_densities=build.mode_densities,
                              fingerprint=cfg.fingerprint())
    return build, sol


# ---------------------------------------------------------------------------
# Field-grid artifact
# ---------------------------------------------------------------------------

_GRID_MAGIC = "LSFG"
_GRID_VERSION = 1


@dataclass
class FieldGrid:
    """Sampled complex field on a regular grid, with solve metadata."""
    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int
    values: np.ndarray          # (ny, nx) complex, row j at y0 + j*dy
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.ny, self.nx):
            raise ValueError(f"values shape {self.values.shape} != "
                             f"({self.ny}, {self.nx})")

    def points(self):
        xs = np.linspace(self.x0, self.x1, self.nx)
        ys = np.linspace(self.y0, self.y1, self.ny)
        X, Y = np.meshgrid(xs, ys)
        return np.stack([X.ravel(), Y.ravel()], axis=-1)


def evaluate_grid(solution, extent, nx, ny):
    """Evaluate the total field of a solution on a regular grid."""
    x0, x1, y0, y1 = extent
    grid = FieldGrid(x0=x0, x1=x1, y0=y0, y1=y1, nx=nx, ny=ny,
                     values=np.zeros((ny, nx), dtype=complex))
    pts = grid.points()
    t0 = time.perf_counter()
    vals = eval_total_field(solution, pts)
    elapsed = time.perf_counter() - t0
    grid.values = vals.reshape(ny, nx)
    grid.metadata = {
        "fingerprint": solution.fingerprint.hex(),
        "residual": float(solution.history[-1]),
        "iterations": len(solution.history),
        "timings": {"eval_seconds": elapsed},
    }
    return grid


def save_field_grid(path, grid):
    """64-byte text header, then little-endian interleaved re/im doubles.

    A JSON sidecar ``<path>.json`` carries the metadata and full-precision
    extents.
    """
    head = (f"{_GRID_MAGIC} {_GRID_VERSION} {grid.nx} {grid.ny} "
            f"{grid.x0:.6g} {grid.x1:.6g} {grid.y0:.6g} {grid.y1:.6g}")
    if len(head) > 63:
        raise ValueError(f"header too long ({len(head)} > 63 bytes)")
    header = head.ljust(63) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(grid.values, dtype="<c16").tobytes())
    sidecar = dict(grid.metadata)
    sidecar.update(magic=_GRID_MAGIC, version=_GRID_VERSION,
                   nx=grid.nx, ny=grid.ny,
                   extent=[grid.x0, grid.x1, grid.y0, grid.y1])
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=1))


def load_field_grid(path):
    """Read a grid written by ``save_field_grid``, and its sidecar if
    present; ValueError naming the file unless it holds a valid header and
    exactly nx*ny values, and the sidecar, if any, is a JSON object whose
    magic, version, nx and ny match the header and whose extent holds four
    numbers."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data[:64].decode("ascii", "replace").split()
    sidecar = Path(str(path) + ".json")
    metadata = {}
    try:
        nx, ny = int(parts[2]), int(parts[3])
        extent = [float(v) for v in parts[4:]]
        valid = (parts[:2] == [_GRID_MAGIC, str(_GRID_VERSION)]
                 and len(extent) == 4 and min(nx, ny) >= 0
                 and len(data) == 64 + 16 * nx * ny)
        if valid and sidecar.exists():
            metadata = json.loads(sidecar.read_text())
            extent = metadata["extent"]
            valid = ([metadata[k] for k in ("magic", "version", "nx", "ny")]
                     == [_GRID_MAGIC, _GRID_VERSION, nx, ny]
                     and len(extent) == 4
                     and all(type(v) in (int, float) for v in extent))
    except (IndexError, KeyError, TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError(f"not a field-grid file: {path}")
    values = np.frombuffer(data, "<c16", offset=64).reshape(ny, nx).copy()
    return FieldGrid(x0=extent[0], x1=extent[1], y0=extent[2], y1=extent[3],
                     nx=nx, ny=ny, values=values, metadata=metadata)
