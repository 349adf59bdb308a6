"""Non-abelian adiabatic geometry of a displaced-squeezed vacuum bundle.

Closed-form connection, curvature, wedge-square, and holonomy for the
isospectral family U(lam, mu) H0 U(lam, mu)+, with an independent
finite-difference oracle over the truncated number basis for every closed
expression.
"""
__version__ = "0.1.0"

from .connection import (
    ConnectionMatrices,
    connection_closed,
    contract_one_form,
    loop_one_form,
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
from .fock import TruncatedSpace, bch_identity_report
from .holonomy import (
    LoopPath,
    holonomy_algebra_dimension,
    lambda_circle,
    parallel_transport,
    polygon_loop,
    small_loop_check,
    square_loop,
    transport,
    transported_curvature_dimension,
)
from .lie import ClosureNotStabilized, numerical_rank, real_lie_closure
from .numeric import (
    OracleResult,
    connection_numeric,
    derivative_identity_report,
    wirtinger_derivative,
)
from .reports import IdentityReport, dump_json
