"""Point source over a three-layer medium, no inclusions.

Walks through the spectral machinery at its simplest: build a deformed
contour, solve the per-mode 4x4 interface system, and evaluate the
transmitted/reflected fields.  Finishes with two sanity checks -- field
continuity across both interfaces, and collapse to the free-space Green's
function when all three wavenumbers are equal.

Run:  python3 demos/01_point_source_over_layers.py
"""
import numpy as np

from layerscatter import LayerStack, build_contour_adaptive
from layerscatter.layers import InterfaceSolver, eval_sommerfeld_field
from layerscatter.special import hankel1


def main():
    layers = LayerStack(k1=1.0, k2=3.0, k3=1.0, d=8.0, source=(0.0, 1.0))
    contour = build_contour_adaptive(layers, min_vertical_sep=0.5,
                                     max_horiz=10.0)
    print(f"contour: {len(contour)} nodes, tails to +-{contour.t_max:.1f}, "
          f"deformation b = {contour.b}")

    dens = InterfaceSolver(contour, layers).solve()

    # continuity of the total field across y = 0 and y = -d
    xs = np.linspace(-4, 4, 9)
    eps = 1e-8
    for yy in (0.0, -layers.d):
        pa = np.stack([xs, np.full_like(xs, yy + eps)], -1)
        pb = np.stack([xs, np.full_like(xs, yy - eps)], -1)
        jump = np.abs(eval_sommerfeld_field(dens, contour, layers, pa)
                      - eval_sommerfeld_field(dens, contour, layers, pb)).max()
        print(f"continuity across y = {yy:5.1f}: max jump {jump:.2e}")

    # equal wavenumbers: the slab disappears
    k = 2.0
    eq = LayerStack(k1=k, k2=k, k3=k, d=8.0, source=(0.0, 1.0))
    ceq = build_contour_adaptive(eq, min_vertical_sep=0.5, max_horiz=10.0)
    deq = InterfaceSolver(ceq, eq).solve()
    pts = np.stack([xs, np.full_like(xs, -3.0)], -1)
    u = eval_sommerfeld_field(deq, ceq, eq, pts)
    r = np.hypot(xs - 0.0, -3.0 - 1.0)
    exact = 0.25j * hankel1(0, k * r + 0j)
    print(f"equal-k transmitted field vs (i/4) H0: "
          f"max diff {np.abs(u - exact).max():.2e}")


if __name__ == "__main__":
    main()
