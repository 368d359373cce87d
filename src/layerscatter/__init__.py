"""Multiple scattering from dielectric inclusions in a three-layer medium.

Library layout:

- :mod:`~layerscatter.special`, :mod:`~layerscatter.quadrature`: cylinder
  functions and quadrature rules.
- :mod:`~layerscatter.layers`: Sommerfeld contour, interface system, and
  layered-medium field evaluation.
- :mod:`~layerscatter.particle`: boundary integral equation on one inclusion
  and its scattering matrix.
- :mod:`~layerscatter.multiscat`: free-space multiple scattering between
  inclusions (translation operators, block operator).
- :mod:`~layerscatter.nufft`: the type-3 nonuniform FFT used by the
  accelerated coupling.
- :mod:`~layerscatter.coupling`: particle-to-layer and layer-to-particle
  coupling, direct and NUFFT-accelerated.
- :mod:`~layerscatter.solver`: Schur-complement GMRES solve and total-field
  evaluation.  ``SchurOperator`` unpacks the placed instances once into
  center and rotation arrays and the prototype's enclosing radius; every
  kernel below it takes arrays.
- :mod:`~layerscatter.scene`, :mod:`~layerscatter.cli`: scene files,
  particle placement, caching, and the command-line interface.
"""

from .layers import LayerStack, SommerfeldContour, build_contour_adaptive
from .particle import ShapeParams, ScatteringMatrix, discretize_boundary, \
    scattering_matrix_nystrom, scattering_matrix_disk, \
    rotate_scattering_matrix
from .multiscat import ParticleInstance, ExpansionVector
from .solver import GmresConfig, GmresError, SchurOperator, Solution, \
    solve_layered_scene, eval_total_field
from .scene import SceneConfig, FieldGrid, load_scene, place_particles, \
    build_scene, solve_scene, evaluate_grid, save_field_grid, load_field_grid

__version__ = "0.1.0"

__all__ = [
    "LayerStack", "SommerfeldContour", "build_contour_adaptive",
    "ShapeParams", "ScatteringMatrix",
    "discretize_boundary", "scattering_matrix_nystrom",
    "scattering_matrix_disk", "rotate_scattering_matrix", "ParticleInstance",
    "ExpansionVector", "GmresConfig", "GmresError", "SchurOperator",
    "Solution", "solve_layered_scene", "eval_total_field", "SceneConfig",
    "FieldGrid", "load_scene", "place_particles", "build_scene",
    "solve_scene", "evaluate_grid", "save_field_grid", "load_field_grid",
    "__version__",
]
