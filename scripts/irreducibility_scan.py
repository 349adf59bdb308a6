"""Holonomy-algebra dimension against the curvature span, per degeneracy.

The loop algebra and the transported curvature (Ambrose-Singer) are two
independent measures of the based holonomy algebra; both pick up covariant
derivatives of the curvature through the conjugating transports.  The span
counts directions reachable by untransported curvature contractions alone.
At m = 2 all three give 4 = dim u(2).  From m = 3 on the span stays at 4
while the loop algebra fills all of u(m), so the vacuum bundle is irreducible
at every m probed here.  The transported curvature fills u(3) and u(4) but
stays at 16 from m = 4 on: at each of the two centers the curvature acts on
the top two levels of that center's frame, so two centers generate inside
u(4).
"""
import argparse

from berry_holonomy import (
    curvature_span_dimension,
    holonomy_algebra_dimension,
    transported_curvature_dimension,
)
from berry_holonomy.cli import IRREDUCIBILITY_CENTERS as CENTERS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-m", type=int, default=4)
    args = ap.parse_args()

    print(
        f"{'m':>3} {'loop algebra':>13} {'transported':>12} "
        f"{'curvature span':>15} {'dim u(m)':>9}"
    )
    for m in range(2, args.max_m + 1):
        loop_dim = holonomy_algebra_dimension(CENTERS, m)
        moved_dim = transported_curvature_dimension(CENTERS, m)
        span_dim = curvature_span_dimension(CENTERS, m)
        print(f"{m:>3} {loop_dim:>13} {moved_dim:>12} {span_dim:>15} {m * m:>9}")


if __name__ == "__main__":
    main()
