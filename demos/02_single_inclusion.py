"""One dielectric inclusion: boundary solve and scattering matrix.

Discretizes the flower-shaped boundary rho(t) = a1 + a2 cos(a3 t), builds
its scattering matrix by solving the transmission problem for each
incoming cylindrical mode, and checks the physics: zero contrast means
zero scattering, a lossless inclusion conserves energy (I + 2S unitary),
and rotating the matrix equals rotating the boundary.

Run:  python3 demos/02_single_inclusion.py
"""
import numpy as np

from layerscatter import (ShapeParams, discretize_boundary,
                          rotate_scattering_matrix,
                          scattering_matrix_nystrom)


def main():
    params = ShapeParams(a1=0.12, a2=0.04, a3=3, kp=2.0, N=300)
    boundary = discretize_boundary(params)
    k2, p = 3.0, 10
    S, _ = scattering_matrix_nystrom(boundary, k2, params.kp, p)
    print(f"scattering matrix: order p = {p} -> {S.entries.shape}, "
          f"enclosing radius R = {S.R:.4f}")

    # energy conservation for a lossless inclusion
    U = np.eye(2 * p + 1) + 2 * S.entries
    print(f"unitarity ||U*U - I||_2 = "
          f"{np.linalg.norm(U.conj().T @ U - np.eye(2 * p + 1), 2):.2e}")

    # no contrast, no scattering
    S0, _ = scattering_matrix_nystrom(boundary, k2, k2, p)
    print(f"zero-contrast ||S|| = {np.abs(S0.entries).max():.2e}")

    # rotation in coefficient space == rotation of the boundary
    theta = 0.7
    # a 3-fold shape rotated by 2 pi / 3 maps onto itself
    S_sym = rotate_scattering_matrix(S, 2 * np.pi / params.a3)
    print(f"3-fold symmetry: ||rot(S) - S|| = "
          f"{np.abs(S_sym.entries - S.entries).max():.2e}")
    S_ab = rotate_scattering_matrix(rotate_scattering_matrix(S, theta), -theta)
    print(f"rotation round trip: {np.abs(S_ab.entries - S.entries).max():.2e}")

    # mode coupling falls off quickly: show the diagonal decay
    diag = np.abs(np.diag(S.entries))
    with np.printoptions(precision=1):
        print("|S_nn| for n = 0..10:", diag[p:])


if __name__ == "__main__":
    main()
