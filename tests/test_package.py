"""The package's public surface: the names `berry_holonomy` exposes."""
import types

import berry_holonomy

PUBLIC_NAMES = {
    # closed connection and its contractions
    "ConnectionMatrices",
    "connection_closed",
    "contract_one_form",
    "loop_one_form",
    # closed curvature and its wedge square
    "COMPONENT_KEYS",
    "COMPONENT_NAMES",
    "PLANE_TANGENTS",
    "CurvatureForm",
    "contract_two_form",
    "curvature_closed",
    "curvature_span_dimension",
    "f_squared",
    "f_squared_from_wedge",
    # the family and its frames
    "GeneralizedPoint",
    "ParameterPoint",
    "classifying_projector",
    "vacuum_frame",
    # the Fock-space factorization check
    "bch_identity_report",
    # loops and holonomy
    "LoopPath",
    "holonomy_algebra_dimension",
    "lambda_circle",
    "parallel_transport",
    "polygon_loop",
    "small_loop_check",
    "square_loop",
    "transport",
    "transported_curvature_dimension",
    # Lie closure
    "ClosureNotStabilized",
    "real_lie_closure",
    # the finite-difference oracle
    "OracleResult",
    "connection_numeric",
    "derivative_identity_report",
    "wirtinger_derivative",
    # output
    "dump_json",
}


def test_public_names_are_pinned():
    """Every public non-module name of the package, and no other: a name
    joins or leaves the surface only together with this list."""
    exposed = {
        name
        for name, value in vars(berry_holonomy).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exposed == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 34
