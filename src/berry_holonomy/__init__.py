"""Non-abelian adiabatic geometry of a displaced-squeezed vacuum bundle.

Closed-form connection, curvature, wedge-square, and holonomy for the
isospectral family U(lam, mu) H0 U(lam, mu)+, with an independent
finite-difference oracle over the truncated number basis for every closed
expression.
"""
import os
import sys

# OpenBLAS starts its helper threads when numpy loads it, and an idle helper
# busy-waits 2^OPENBLAS_THREAD_TIMEOUT cycles (default 2^28, 0.1-0.2 s)
# before it sleeps.  That outlasts most commands, whose BLAS calls take m x m
# or D x D matrices: on 2 cores a command's CPU time read twice its wall
# time (holonomy --m 2/3 --samples 4096: 0.054 s CPU for 0.027 s wall).
# 2^22 cycles (about 1.5 ms) halves that CPU time and keeps the wall time,
# also at D = 256 and 512 where the threads pay off; one BLAS thread would
# cost those 20-30 % wall.  OpenBLAS reads the variable once, when numpy
# loads it, so it is set only before numpy's first import and only when the
# user has set neither spelling.
if "numpy" not in sys.modules and not (
    "OPENBLAS_THREAD_TIMEOUT" in os.environ or "GOTO_THREAD_TIMEOUT" in os.environ
):
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "22"

__version__ = "0.1.0"

from .connection import (
    ConnectionMatrices,
    connection_closed,
    contract_one_form,
)
from .curvature import (
    COMPONENT_KEYS,
    COMPONENT_NAMES,
    PLANE_TANGENTS,
    CurvatureForm,
    contract_two_form,
    curvature_closed,
    curvature_span_dimension,
    f_squared,
    f_squared_from_wedge,
)
from .family import (
    GeneralizedPoint,
    ParameterPoint,
    classifying_projector,
    vacuum_frame,
)
from .fock import bch_identity_report
from .holonomy import (
    LoopPath,
    holonomy_algebra_dimension,
    lambda_circle,
    loop_one_form,
    parallel_transport,
    polygon_loop,
    small_loop_check,
    square_loop,
    transport,
    transported_curvature_dimension,
)
from .lie import ClosureNotStabilized, real_lie_closure
from .numeric import (
    OracleResult,
    connection_numeric,
    derivative_identity_report,
    wirtinger_derivative,
)
from .reports import dump_json
