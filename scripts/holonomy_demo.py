"""Transport demonstrations: circle phases and small-square residuals.

Shows the 2 pi r^2 diagonal phases on lam-circles, the unitarity of the
transported frame, and the third-order shrink of the small-loop residual
against the closed curvature.
"""
import argparse

import numpy as np

from berry_holonomy import (
    ParameterPoint,
    lambda_circle,
    parallel_transport,
    small_loop_check,
)
from berry_holonomy.curvature import PLANE_TANGENTS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--samples", type=int, default=4096)
    args = ap.parse_args()
    m = args.m

    print(f"lam-circle phases (m = {m}, {args.samples} samples)")
    for r in (0.5, 1.0):
        loop = lambda_circle(r, mu=0.3j, samples=args.samples)
        w, length, phases = parallel_transport(loop, m)
        defect = float(np.abs(w @ w.conj().T - np.eye(m)).max())
        expect = 2.0 * np.pi * r * r
        print(f"  r = {r:.1f}: expect {expect:.9f}")
        print(f"    phases  {np.array2string(phases, precision=9)}")
        print(f"    |W W+ - 1| = {defect:.2e}, path length {length:.6f}")

    print("\nsmall-loop residual halving (m = 2, eps = 2e-3)")
    center = ParameterPoint(0.32 + 0.21j, 0.43 + 0.14j)
    for plane in PLANE_TANGENTS:
        rep = small_loop_check(center, plane, 2e-3, 2)
        print(f"  {plane:>5}: r(eps) = {rep.interior_dev:.3e}  "
              f"r(eps/2) = {rep.boundary_dev:.3e}  ratio = {rep.extras['ratio']:.2f}")


if __name__ == "__main__":
    main()
