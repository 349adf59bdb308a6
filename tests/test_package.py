"""The package's public surface: the names `berry_holonomy` exposes, and
no module importing a name it never uses."""
import ast
import types
from pathlib import Path

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


def test_modules_use_every_name_they_import():
    """Each module but `__init__` (whose imports are the surface) uses every
    name it imports, so a deletion leaves no dead import behind."""
    unused = []
    for path in sorted(Path(berry_holonomy.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if alias.name != "annotations"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []
