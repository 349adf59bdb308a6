"""Command-line interface.

Subcommands:

  connection      closed-form connection matrices at a point or over a grid
  curvature       closed-form curvature components at a point or over a grid
  verify          closed forms against the finite-difference oracle
  holonomy        transport around a loop (default: lam-circle of radius 1/2)
  irreducibility  holonomy-algebra and curvature-span dimensions
  chern           trace forms entering second-character integrands

Each subcommand accepts only the settings it reads (`Command.settings`), as
flags and as `--config` file keys.
Complex values on the command line use `a+bi` notation ("0.5", "0.5+0.25i",
"-0.3i").  JSON output is canonical: keys sorted, compact separators, complex
numbers as [re, im] pairs, matrices row-major.  Everything that can vary
between identical runs (timestamps, runtime) lives under "meta"; the
"payload" object is byte-stable for byte-for-byte comparison.

Exit codes: 0 success (all checks passed where applicable), 1 tolerance
breach, 2 configuration error (including non-finite inputs and files that
cannot be opened), 3 numerical failure (an overflow, invalid operation or
division by zero in numpy, a linear-algebra routine that did not converge, a
transport step too large for the loop's samples, a closure that did not
stabilize, or a non-finite result; nothing is written then).  The exit-3
message names the failed floating-point operation, as in "numerical failure:
overflow encountered in multiply".
"""
from __future__ import annotations

import argparse
import cmath
import datetime
import json
import math
import os
import sys
import time
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .connection import connection_closed
from .curvature import (
    COMPONENT_KEYS,
    COMPONENT_NAMES,
    curvature_closed,
    curvature_span_dimension,
    f_squared,
    f_squared_from_wedge,
    chern_trace_forms,
)
from .family import ParameterPoint
from .fock import TruncatedSpace, bch_identity_report
from .holonomy import (
    holonomy_algebra_dimension,
    lambda_circle,
    parallel_transport,
    polygon_loop,
)
from .lie import ClosureNotStabilized
from .numeric import (
    DifferentiationPlan,
    connection_numeric,
    curvature_numeric,
    derivative_identity_report,
)
from .reports import dump_json, matrix_payload


class ConfigError(ValueError):
    pass


def parse_complex(text: str) -> complex:
    """Parse `a+bi` notation; bare reals and bare imaginaries allowed."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ConfigError("empty complex literal")
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        z = complex(s)
    except ValueError:
        raise ConfigError(f"cannot parse complex value {text!r}") from None
    if not cmath.isfinite(z):
        raise ConfigError(f"complex value {text!r} is not finite")
    return z


DEFAULT_MAGNITUDES = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_PHASES = (0.0, math.pi / 4.0)


def _axis_values(mags: Sequence[float], phases: Sequence[float]) -> List[complex]:
    out: List[complex] = []
    for r in mags:
        if r == 0.0:
            out.append(0.0 + 0.0j)
            continue
        for ph in phases:
            out.append(r * complex(math.cos(ph), math.sin(ph)))
    return out


def _point_pairs(raw: list, source: str) -> List[ParameterPoint]:
    """Points from a parsed, non-empty JSON list of [lam, mu] string pairs."""
    if not raw:
        raise ConfigError(f"{source} holds no points")
    pts = []
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError(f"{source} entries must be [lam, mu] pairs")
        pts.append(ParameterPoint(parse_complex(str(entry[0])), parse_complex(str(entry[1]))))
    return pts


def grid_points(name_or_path: str) -> List[ParameterPoint]:
    """Named grid or a JSON file of [lam, mu] string pairs."""
    if name_or_path == "default":
        axis = _axis_values(DEFAULT_MAGNITUDES, DEFAULT_PHASES)
    elif name_or_path == "small":
        axis = _axis_values((0.0, 0.5), (0.0,))
    else:
        if not os.path.exists(name_or_path):
            raise ConfigError(f"grid {name_or_path!r} is neither a named grid nor a file")
        with open(name_or_path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, list):
            raise ConfigError("grid file must hold a JSON list of [lam, mu] pairs")
        return _point_pairs(raw, f"grid {name_or_path!r}")
    return [ParameterPoint(lam, mu) for lam in axis for mu in axis]


def _dim(text) -> int:
    # "auto" is a fixed 128: at D=64 the oracle misses the verify gates on
    # the default grid
    return 128 if text == "auto" else int(text)


# config key (also the `--KEY` flag and its argparse dest), parser, default, help;
# flags arrive as strings and go through the same parser as config-file values
SETTINGS = (
    ("m", int, 2, "vacuum degeneracy"),
    ("dim", _dim, "auto", "truncation dimension or 'auto' (128)"),
    ("step", float, 1e-4, "stencil step for oracles"),
    ("samples", int, 2048, "loop sample count"),
    ("grid", str, None, "'default', 'small', or a JSON file"),
    ("out", str, None, "output file (stdout when omitted)"),
    ("format", str, "json", "json or csv"),
    ("tolerance", float, None, "override check tolerances"),
)

# key -> (test a parsed value must pass, error message with {} for the value)
LIMITS = {
    "m": (lambda v: v >= 1, "m must be positive"),
    "dim": (lambda v: v >= 2, "dim must be at least 2"),
    "step": (lambda v: 1e-8 <= v <= 1e-2, "step size out of the supported range"),
    "samples": (lambda v: v >= 4, "samples must be at least 4"),
    "format": (lambda v: v in ("json", "csv"), "unknown format {!r}"),
    "tolerance": (math.isfinite, "tolerance must be finite"),
}


def load_config_file(path: str) -> Dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} not found")
    out: Dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line without '=': {raw.strip()!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Each setting the command reads from its flag, else the --config file,
    else its default; a file key the command does not read is an error."""
    keys = COMMANDS[args.command].settings
    file_cfg = load_config_file(args.config) if args.config else {}
    for key in file_cfg:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = argparse.Namespace()
    for key, parse, default, _ in SETTINGS:
        if key not in keys:
            continue
        val = getattr(args, key)
        if val is None:
            val = file_cfg.get(key, default)
        try:
            val = None if val is None else parse(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if val is not None and key in LIMITS and not LIMITS[key][0](val):
            raise ConfigError(LIMITS[key][1].format(val))
        setattr(cfg, key, val)
    return cfg


def _complex_arg(args: argparse.Namespace, name: str, default: complex) -> complex:
    text = getattr(args, name)
    return default if text is None else parse_complex(text)


def _batch(points: Sequence[ParameterPoint]) -> ParameterPoint:
    """The points as one batch for the closed forms."""
    return ParameterPoint(
        np.array([p.lam for p in points], dtype=complex),
        np.array([p.mu for p in points], dtype=complex),
    )


def _sweep(
    fields: Callable[[ParameterPoint, int], List[Tuple[str, np.ndarray]]],
    args: argparse.Namespace,
    cfg: argparse.Namespace,
):
    """--lambda/--mu or a grid, evaluated in one batch: `fields` returns
    named stacks of matrices.  JSON holds one entry per point; CSV text one
    row per point: lambda, mu, then each matrix row-major, each value as
    re, im."""
    if args.lam is None and args.mu is None:
        points = grid_points(cfg.grid or "default")
    else:
        points = [ParameterPoint(_complex_arg(args, "lam", 0.0), _complex_arg(args, "mu", 0.0))]
    batch = _batch(points)
    named = [("lambda", batch.lam), ("mu", batch.mu)] + fields(batch, cfg.m)
    if cfg.format == "json":
        names = [name for name, _ in named]
        columns = [matrix_payload(values) for _, values in named]
        return {"m": cfg.m, "points": [dict(zip(names, entry)) for entry in zip(*columns)]}
    cells = [f"[{i}][{j}]" for i in range(cfg.m) for j in range(cfg.m)]
    headers = [
        f"{name}{cell}.{part}"
        for name, values in named
        for cell in (cells if values.ndim == 3 else [""])
        for part in ("re", "im")
    ]
    table = np.concatenate(
        [np.stack([v.real, v.imag], -1).reshape(len(points), -1) for _, v in named], axis=1
    )
    if not np.isfinite(table).all():
        raise FloatingPointError("non-finite result")
    rows = [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join([",".join(headers)] + rows) + "\n"


def _connection_fields(p: ParameterPoint, m: int) -> List[Tuple[str, np.ndarray]]:
    cm = connection_closed(p, m)
    return [("A_lambda", cm.a_lambda), ("A_mu", cm.a_mu)]


def _curvature_fields(p: ParameterPoint, m: int) -> List[Tuple[str, np.ndarray]]:
    form = curvature_closed(p, m)
    return [(COMPONENT_NAMES[k], form.components[k]) for k in COMPONENT_KEYS]


def _verify(args: argparse.Namespace, cfg: argparse.Namespace) -> dict:
    m = cfg.m
    space = TruncatedSpace(cfg.dim)
    plan = DifferentiationPlan(h=cfg.step)
    points = grid_points(cfg.grid or "small")

    def section(key: str, dev: float, default_tol: float, **extra) -> dict:
        t = cfg.tolerance if cfg.tolerance is not None else default_tol
        return {key: dev, "tolerance": t, "passed": bool(dev < t), **extra}

    batch = _batch(points)
    conn = connection_closed(batch, m)
    curv = curvature_closed(batch, m)
    wedge = f_squared_from_wedge(curv)
    conn_dev = conn_est = pair_dev = formula_dev = 0.0
    per_component: Dict[str, float] = {}
    for i, p in enumerate(points):
        oracle = connection_numeric(p, m, space, plan)
        conn_dev = max(
            conn_dev,
            float(np.abs(conn.a_lambda[i] - oracle.a_lambda).max()),
            float(np.abs(conn.a_mu[i] - oracle.a_mu).max()),
        )
        conn_est = max(conn_est, oracle.estimated_error)

        oracle = curvature_numeric(p, m, space, plan)
        for k in COMPONENT_KEYS:
            name = COMPONENT_NAMES[k]
            dev = float(np.abs(curv.components[k][i] - oracle.components[k]).max())
            per_component[name] = max(per_component.get(name, 0.0), dev)
        pair_dev = max(pair_dev, float(np.abs(wedge[i] - f_squared_from_wedge(oracle)).max()))
        formula_dev = max(formula_dev, float(np.abs(wedge[i] - f_squared(p.mu, m)).max()))

    n = len(points)
    curv_dev = max(per_component.values())
    sections = {
        "connection": section("max_dev", conn_dev, 1e-6, max_estimated_error=conn_est, points=n),
        "curvature": section("max_dev", curv_dev, 1e-5, per_component=per_component, points=n),
    }
    t = sections["curvature"]["tolerance"]
    worst = sorted(name for name, v in per_component.items() if v >= t) if pair_dev >= t else []
    # the gate is agreement of the two independently assembled wedge squares;
    # the closed formula deviation is informational
    sections["wedge_square"] = section(
        "oracle_pair_dev", pair_dev, 1e-5, closed_formula_dev=formula_dev, discrepancies=worst
    )

    bch_space = TruncatedSpace(64)
    bch_points = [p for p in points if abs(p.lam) <= 0.5 and abs(p.mu) <= 0.5]
    if not bch_points:
        bch_points = [ParameterPoint(0.25 + 0.1j, 0.2 - 0.15j)]
    bch_dev = max(bch_identity_report(p.lam, p.mu, bch_space).interior_dev for p in bch_points)
    sections["bch"] = section(
        "max_interior_dev", bch_dev, 1e-8, D=bch_space.dim, points=len(bch_points)
    )

    z_samples = (0.3 + 0.2j, 0.7 - 0.4j, 1.1 + 0.05j)
    ident_dev = max(derivative_identity_report(z).interior_dev for z in z_samples)
    sections["derivative_identities"] = section("max_dev", ident_dev, 1e-8, points=len(z_samples))
    return {
        "config": {"m": m, "dim": cfg.dim, "step": cfg.step, "grid": cfg.grid or "small"},
        "sections": sections,
        "passed": all(sec["passed"] for sec in sections.values()),
    }


def _load_loop(args: argparse.Namespace, cfg: argparse.Namespace):
    if args.loop is None:
        return lambda_circle(0.5, mu=_complex_arg(args, "mu", 0.0), samples=cfg.samples)
    with open(args.loop) as fh:
        raw = json.load(fh)
    if isinstance(raw, dict):
        raw = raw.get("vertices", raw)
    if not isinstance(raw, list) or len(raw) < 2:
        raise ConfigError("loop file must hold a JSON list of [lam, mu] vertices")
    verts = _point_pairs(raw, "loop file")
    per_side = max(16, cfg.samples // len(verts))
    return polygon_loop(verts, samples_per_side=per_side, closed=True)


def _holonomy(args: argparse.Namespace, cfg: argparse.Namespace) -> dict:
    loop = _load_loop(args, cfg)
    w, length, phases = parallel_transport(loop, cfg.m)
    return {
        "m": cfg.m,
        "samples": cfg.samples,
        "w": matrix_payload(w),
        "path_length": length,
        "diagonal_phases": [float(x) for x in phases],
    }


IRREDUCIBILITY_CENTERS = (
    ParameterPoint(0.32 + 0.21j, 0.43 + 0.14j),
    ParameterPoint(0.25 - 0.15j, 0.52 + 0.33j),
)

SPAN_SAMPLE_POINTS = IRREDUCIBILITY_CENTERS + (
    ParameterPoint(-0.41 + 0.08j, 0.17 - 0.36j),
    ParameterPoint(0.12 - 0.29j, -0.33 + 0.27j),
    ParameterPoint(-0.22 - 0.18j, 0.48 + 0.05j),
    ParameterPoint(0.37 + 0.02j, -0.21 - 0.44j),
)


def _irreducibility(args: argparse.Namespace, cfg: argparse.Namespace) -> dict:
    m = cfg.m
    loop_dim = holonomy_algebra_dimension(IRREDUCIBILITY_CENTERS, m)
    span_dim = curvature_span_dimension(SPAN_SAMPLE_POINTS, m)
    return {
        "m": m,
        "algebra_dim": loop_dim,
        "curvature_span_dim": span_dim,
        "u_m_dim": m * m,
        "irreducible": bool(loop_dim == m * m),
        "consistent": bool(loop_dim == span_dim),
    }


def _chern(args: argparse.Namespace, cfg: argparse.Namespace) -> dict:
    mu = _complex_arg(args, "mu", 0.3 + 0.0j)
    traces = chern_trace_forms(mu, cfg.m)
    # (i / 2 pi)^2 is the second-character normalization of a volume-form
    # coefficient; both raw and normalized values are reported
    norm = -1.0 / (4.0 * math.pi * math.pi)
    return {
        "m": cfg.m,
        "mu": matrix_payload(mu),
        "tr_f_squared": matrix_payload(traces["tr_f_squared"]),
        "tr_f_squared_normalized": matrix_payload(norm * traces["tr_f_squared"]),
        "tr_f_wedge_tr_f": matrix_payload(traces["tr_f_wedge_tr_f"]),
        "tr_f_wedge_tr_f_normalized": matrix_payload(norm * traces["tr_f_wedge_tr_f"]),
    }


class Command(NamedTuple):
    help: str
    # (args, config) -> JSON payload, or CSV text when the format is csv
    handler: Callable[[argparse.Namespace, argparse.Namespace], object]
    settings: Tuple[str, ...]  # the SETTINGS keys the handler reads
    flags: Tuple[Tuple[str, str, str], ...] = ()  # (flag, dest, help)


POINT_FLAGS = (("--lambda", "lam", "lam as a+bi"), ("--mu", "mu", "mu as a+bi"))
SWEEP_SETTINGS = ("m", "grid", "out", "format")

COMMANDS = {
    "connection": Command(
        "closed-form connection matrices",
        partial(_sweep, _connection_fields),
        SWEEP_SETTINGS,
        POINT_FLAGS,
    ),
    "curvature": Command(
        "closed-form curvature components",
        partial(_sweep, _curvature_fields),
        SWEEP_SETTINGS,
        POINT_FLAGS,
    ),
    "verify": Command(
        "closed forms against the oracle",
        _verify,
        ("m", "dim", "step", "grid", "out", "tolerance"),
    ),
    "holonomy": Command(
        "transport around a loop",
        _holonomy,
        ("m", "samples", "out"),
        (
            ("--loop", "loop", "JSON file of [lam, mu] vertices"),
            ("--mu", "mu", "fixed mu for the default circle"),
        ),
    ),
    "irreducibility": Command("holonomy algebra dimension", _irreducibility, ("m", "out")),
    "chern": Command("trace forms of the curvature square", _chern, ("m", "out"), POINT_FLAGS[1:]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berry-holonomy",
        description="Adiabatic connection, curvature, and holonomy on the "
        "degenerate vacuum bundle of a displaced-squeezed family.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for key, _, _, help_text in SETTINGS:
            if key in cmd.settings:
                p.add_argument(f"--{key}", help=help_text)
        p.add_argument("--config", help="key = value config file")
        for flag, dest, help_text in cmd.flags:
            p.add_argument(flag, dest=dest, help=help_text)
    return parser


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line: write {meta, payload} JSON or CSV text to
    --out or stdout; exit 1 when the payload reports `passed: false`.
    Overflow, invalid operations and division by zero in numpy raise
    FloatingPointError, and so does a NaN or infinity in the result."""
    started = time.monotonic()
    cfg = build_config(args)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        result = COMMANDS[args.command].handler(args, cfg)
    as_csv = getattr(cfg, "format", "json") == "csv"
    if as_csv:
        text = result
    else:
        doc = {
            "meta": {
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "runtime_seconds": round(time.monotonic() - started, 6),
            },
            "payload": {"version": __version__, **result},
        }
        try:
            text = dump_json(doc) + "\n"
        except ValueError:
            raise FloatingPointError("non-finite result") from None
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if not as_csv and result.get("passed") is False else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (ClosureNotStabilized, OverflowError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # ConfigError, bad values, and input or output files that cannot be opened
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
