"""Command-line interface.

Subcommands:

  connection      closed-form connection matrices at a point or over a grid
  curvature       closed-form curvature components at a point or over a grid
  verify          closed forms against the finite-difference oracle
  holonomy        transport around a loop (default: lam-circle of radius 1/2)
  irreducibility  holonomy-algebra and curvature-span dimensions
  chern           trace forms entering second-character integrands

Complex values on the command line use `a+bi` notation ("0.5", "0.5+0.25i",
"-0.3i").  JSON output is canonical: keys sorted, compact separators, complex
numbers as [re, im] pairs, matrices row-major.  Everything that can vary
between identical runs (timestamps, runtime) lives under "meta"; the
"payload" object is byte-stable for byte-for-byte comparison.

Exit codes: 0 success (all checks passed where applicable), 1 tolerance
breach, 2 configuration error (including non-finite inputs and files that
cannot be opened), 3 numerical failure (overflow, a linear-algebra routine
that did not converge, a transport step too large for the loop's samples, a
closure that did not stabilize, or a non-finite result; nothing is written
then).
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
from .connection import berry_phase_diagonal, connection_closed
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
from .reports import complex_pair, dump_json, matrix_payload


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
    # "auto" is a fixed 128; `numeric.default_dim` would pick 64 on the
    # default grid, where the oracle misses the verify gates
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
    """Each setting from its flag, else the --config file, else its default."""
    file_cfg = load_config_file(args.config) if args.config else {}
    for key in file_cfg:
        if key not in {s[0] for s in SETTINGS}:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = argparse.Namespace()
    for key, parse, default, _ in SETTINGS:
        val = getattr(args, key)
        if val is None:
            val = file_cfg.get(key, default)
        try:
            setattr(cfg, key, None if val is None else parse(val))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
    if cfg.m < 1:
        raise ConfigError("m must be positive")
    if cfg.dim < 2:
        raise ConfigError("dim must be at least 2")
    if cfg.samples < 4:
        raise ConfigError("samples must be at least 4")
    if cfg.format not in ("json", "csv"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    if not (1e-8 <= cfg.step <= 1e-2):
        raise ConfigError("step size out of the supported range")
    if cfg.tolerance is not None and not math.isfinite(cfg.tolerance):
        raise ConfigError("tolerance must be finite")
    return cfg


def _complex_arg(args: argparse.Namespace, name: str, default: complex) -> complex:
    text = getattr(args, name)
    return default if text is None else parse_complex(text)


def _all_finite(obj) -> bool:
    """No NaN or infinity anywhere in nested dicts and lists."""
    if isinstance(obj, dict):
        return all(map(_all_finite, obj.values()))
    if isinstance(obj, list):
        return all(map(_all_finite, obj))
    return not isinstance(obj, float) or math.isfinite(obj)


def _csv_text(rows: List[Dict[str, float]]) -> str:
    if not rows:
        return "\n"
    headers = list(rows[0].keys())
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(repr(row[h]) for h in headers))
    return "\n".join(lines) + "\n"


def _sweep(
    fields: Callable[[ParameterPoint, int], List[Tuple[str, np.ndarray]]],
    args: argparse.Namespace,
    cfg: argparse.Namespace,
):
    """--lambda/--mu or a grid: each point's named matrices become one JSON
    entry or one CSV row."""
    if args.lam is None and args.mu is None:
        points = grid_points(cfg.grid or "default")
    else:
        points = [ParameterPoint(_complex_arg(args, "lam", 0.0), _complex_arg(args, "mu", 0.0))]
    entries = []
    for p in points:
        named = fields(p, cfg.m)
        if cfg.format == "csv":
            entry = {
                "lambda.re": p.lam.real,
                "lambda.im": p.lam.imag,
                "mu.re": p.mu.real,
                "mu.im": p.mu.imag,
            }
            for name, mat in named:
                for (i, j), z in np.ndenumerate(mat):
                    entry[f"{name}[{i}][{j}].re"] = float(z.real)
                    entry[f"{name}[{i}][{j}].im"] = float(z.imag)
        else:
            entry = {"lambda": complex_pair(p.lam), "mu": complex_pair(p.mu)}
            for name, mat in named:
                entry[name] = matrix_payload(mat)
        entries.append(entry)
    if cfg.format == "csv":
        return entries
    return {"m": cfg.m, "points": entries}


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

    conn_dev = conn_est = pair_dev = formula_dev = 0.0
    per_component: Dict[str, float] = {}
    for p in points:
        closed = connection_closed(p, m)
        oracle = connection_numeric(p, m, space, plan)
        conn_dev = max(
            conn_dev,
            float(np.abs(closed.a_lambda - oracle.a_lambda).max()),
            float(np.abs(closed.a_mu - oracle.a_mu).max()),
        )
        conn_est = max(conn_est, oracle.estimated_error)

        closed = curvature_closed(p, m)
        oracle = curvature_numeric(p, m, space, plan)
        for k in COMPONENT_KEYS:
            name = COMPONENT_NAMES[k]
            dev = float(np.abs(closed.components[k] - oracle.components[k]).max())
            per_component[name] = max(per_component.get(name, 0.0), dev)
        w_closed = f_squared_from_wedge(closed)
        pair_dev = max(pair_dev, float(np.abs(w_closed - f_squared_from_wedge(oracle)).max()))
        formula_dev = max(formula_dev, float(np.abs(w_closed - f_squared(p.mu, m)).max()))

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
    result = parallel_transport(loop, cfg.m)
    phases = berry_phase_diagonal(loop, cfg.m)
    return {
        "m": cfg.m,
        "samples": cfg.samples,
        "w": matrix_payload(result.w),
        "path_length": result.path_length,
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
        "mu": complex_pair(mu),
        "tr_f_squared": complex_pair(traces["tr_f_squared"]),
        "tr_f_squared_normalized": complex_pair(norm * traces["tr_f_squared"]),
        "tr_f_wedge_tr_f": complex_pair(traces["tr_f_wedge_tr_f"]),
        "tr_f_wedge_tr_f_normalized": complex_pair(norm * traces["tr_f_wedge_tr_f"]),
    }


class Command(NamedTuple):
    help: str
    # (args, config) -> JSON payload, or CSV rows when the format is csv
    handler: Callable[[argparse.Namespace, argparse.Namespace], object]
    csv: bool = False
    flags: Tuple[Tuple[str, str, str], ...] = ()  # (flag, dest, help)


POINT_FLAGS = (("--lambda", "lam", "lam as a+bi"), ("--mu", "mu", "mu as a+bi"))

COMMANDS = {
    "connection": Command(
        "closed-form connection matrices", partial(_sweep, _connection_fields), True, POINT_FLAGS
    ),
    "curvature": Command(
        "closed-form curvature components", partial(_sweep, _curvature_fields), True, POINT_FLAGS
    ),
    "verify": Command("closed forms against the oracle", _verify),
    "holonomy": Command(
        "transport around a loop",
        _holonomy,
        flags=(
            ("--loop", "loop", "JSON file of [lam, mu] vertices"),
            ("--mu", "mu", "fixed mu for the default circle"),
        ),
    ),
    "irreducibility": Command("holonomy algebra dimension", _irreducibility),
    "chern": Command("trace forms of the curvature square", _chern, flags=POINT_FLAGS[1:]),
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
            p.add_argument(f"--{key}", help=help_text)
        p.add_argument("--config", help="key = value config file")
        for flag, dest, help_text in cmd.flags:
            p.add_argument(flag, dest=dest, help=help_text)
    return parser


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line: write {meta, payload} JSON or CSV rows to
    --out or stdout; exit 1 when the payload reports `passed: false`."""
    started = time.monotonic()
    cmd = COMMANDS[args.command]
    cfg = build_config(args)
    if cfg.format == "csv" and not cmd.csv:
        raise ConfigError("csv output is not supported for this command")
    result = cmd.handler(args, cfg)
    if not _all_finite(result):
        raise FloatingPointError("non-finite result")
    if cfg.format == "csv":
        text = _csv_text(result)
    else:
        doc = {
            "meta": {
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "runtime_seconds": round(time.monotonic() - started, 6),
            },
            "payload": {"version": __version__, **result},
        }
        text = dump_json(doc) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if cfg.format == "json" and result.get("passed") is False else 0


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
