"""Sweep the closed-form connection and curvature against the oracle.

Runs the full default grid at a chosen truncation and prints worst-case
deviations per degeneracy, plus the scalar-identity checks that everything
else leans on.  Slower and wider than `berry-holonomy verify`.
"""
import argparse
import time

import numpy as np

from berry_holonomy import (
    COMPONENT_KEYS,
    TruncatedSpace,
    bch_identity_report,
    connection_closed,
    connection_numeric,
    curvature_closed,
    curvature_numeric,
    derivative_identity_report,
    f_squared,
    f_squared_from_wedge,
)
from berry_holonomy.cli import factorization_points, grid_points, stack_points
from berry_holonomy.numeric import DifferentiationPlan


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=128)
    ap.add_argument("--step", type=float, default=1e-4)
    ap.add_argument("--m", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--grid", default="default")
    args = ap.parse_args()

    space = TruncatedSpace(args.dim)
    plan = DifferentiationPlan(h=args.step)
    points = grid_points(args.grid)
    batch = stack_points(points)
    print(f"grid: {len(points)} points, D = {args.dim}, h = {args.step:g}")

    max_abs = lambda x, y: float(np.abs(x - y).max())
    for m in args.m:
        t0 = time.monotonic()
        closed = connection_closed(batch, m)
        oracle = connection_numeric(batch, m, space, plan)
        conn_worst = max(
            max_abs(closed.a_lambda, oracle.a_lambda), max_abs(closed.a_mu, oracle.a_mu)
        )
        cc = curvature_closed(batch, m)
        cn = curvature_numeric(batch, m, space, plan)
        curv_worst = {k: max_abs(cc.components[k], cn.components[k]) for k in COMPONENT_KEYS}
        wedge_worst = max_abs(f_squared_from_wedge(cc), f_squared(batch.mu, m))
        dt = time.monotonic() - t0
        print(f"m = {m}  connection worst {conn_worst:.3e}  "
              f"curvature worst {max(curv_worst.values()):.3e}  "
              f"wedge-vs-closed {wedge_worst:.3e}  ({dt:.1f} s)")
        for k, v in curv_worst.items():
            print(f"        {k:>5}: {v:.3e}")

    small = TruncatedSpace(64)
    bch = max(
        bch_identity_report(p.lam, p.mu, small).interior_dev
        for p in factorization_points(points)
    )
    ident = max(
        derivative_identity_report(z).interior_dev
        for z in (0.3 + 0.2j, 0.7 - 0.4j, 1.1 + 0.05j)
    )
    print(f"factorization interior worst {bch:.3e}  derivative identities {ident:.3e}")


if __name__ == "__main__":
    main()
