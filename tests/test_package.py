"""The package's public surface: the names `berry_holonomy` exposes, and
no module importing a name it never uses."""
import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import berry_holonomy

SRC = str(Path(__file__).resolve().parent.parent / "src")
TIMEOUT_VARS = ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")

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


def run_fresh(code: str, **env_vars: str) -> str:
    """Standard output of `code` in a fresh interpreter on the source tree,
    with neither OpenBLAS spin timeout set unless `env_vars` sets one."""
    env = {k: v for k, v in os.environ.items() if k not in TIMEOUT_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


SHOW_TIMEOUT = "import berry_holonomy, os; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"


def test_import_shortens_the_blas_idle_spin():
    """Imported before numpy, the package sets OpenBLAS's idle spin to
    2^22 cycles when the user set no timeout."""
    assert run_fresh(SHOW_TIMEOUT) == "22"


@pytest.mark.parametrize("name", TIMEOUT_VARS)
def test_import_keeps_a_timeout_the_user_set(name):
    code = SHOW_TIMEOUT[:-1] + f", os.environ.get({name!r}))"
    expected = "28 28" if name == "OPENBLAS_THREAD_TIMEOUT" else "None 28"
    assert run_fresh(code, **{name: "28"}) == expected


def test_import_after_numpy_sets_no_timeout():
    """OpenBLAS reads the timeout when numpy loads it, so setting it later
    would change nothing but the environment children inherit."""
    assert run_fresh("import numpy; " + SHOW_TIMEOUT) == "None"


def _numpy_blas_is_openblas() -> bool:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or not _numpy_blas_is_openblas(),
    reason="needs two CPUs and numpy on OpenBLAS, whose helper threads spin",
)
def test_idle_blas_threads_take_no_cpu_after_import():
    """A 50 ms busy loop right after importing the CLI costs about its wall
    time in CPU.  With OpenBLAS's default spin of 2^28 cycles the helper
    threads spin through it too, and CPU / wall reads about 2 on 2 CPUs."""
    ratio = run_fresh(
        "import time, berry_holonomy.cli\n"
        "cpu, wall = time.process_time(), time.perf_counter()\n"
        "while time.perf_counter() - wall < 0.05:\n"
        "    pass\n"
        "print((time.process_time() - cpu) / (time.perf_counter() - wall))\n"
    )
    assert float(ratio) < 1.5
