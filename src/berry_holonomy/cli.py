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
breach, 2 configuration error (including non-finite inputs), 3 numerical
failure (overflow, a linear-algebra routine that did not converge, a closure
that did not stabilize, or a non-finite result).

The environment variable BERRY_HOLONOMY_THREADS caps grid parallelism.
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
        pts = []
        for entry in raw:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ConfigError("grid entries must be [lam, mu] pairs")
            pts.append(ParameterPoint(parse_complex(str(entry[0])), parse_complex(str(entry[1]))))
        return pts
    return [ParameterPoint(lam, mu) for lam in axis for mu in axis]


@dataclass
class RunConfig:
    m: int = 2
    dim: object = "auto"
    h: float = 1e-4
    samples: int = 2048
    grid: Optional[str] = None
    out: Optional[str] = None
    fmt: str = "json"
    tolerance: Optional[float] = None
    threads: Optional[int] = None

    def resolved_dim(self, fallback: int = 128) -> int:
        if self.dim == "auto":
            return fallback
        return int(self.dim)


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


_CONFIG_KEYS = ("m", "dim", "step", "samples", "grid", "format", "threads", "tolerance", "out")


def build_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: Dict[str, str] = {}
    if getattr(args, "config", None):
        file_cfg = load_config_file(args.config)
        for key in file_cfg:
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")

    def pick(flag_val, key: str, default):
        if flag_val is not None:
            return flag_val
        if key in file_cfg:
            return file_cfg[key]
        return default

    cfg = RunConfig()
    try:
        cfg.m = int(pick(getattr(args, "m", None), "m", 2))
        dim = pick(getattr(args, "dim", None), "dim", "auto")
        cfg.dim = dim if dim == "auto" else int(dim)
        cfg.h = float(pick(getattr(args, "step", None), "step", 1e-4))
        cfg.samples = int(pick(getattr(args, "samples", None), "samples", 2048))
        cfg.grid = pick(getattr(args, "grid", None), "grid", None)
        cfg.out = pick(getattr(args, "out", None), "out", None)
        cfg.fmt = str(pick(getattr(args, "format", None), "format", "json"))
        tol = pick(getattr(args, "tolerance", None), "tolerance", None)
        cfg.tolerance = None if tol is None else float(tol)
        thr = pick(getattr(args, "threads", None), "threads", None)
        cfg.threads = None if thr is None else int(thr)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if cfg.m < 1:
        raise ConfigError("m must be positive")
    if cfg.dim != "auto" and int(cfg.dim) < 2:
        raise ConfigError("dim must be at least 2")
    if cfg.samples < 4:
        raise ConfigError("samples must be at least 4")
    if cfg.fmt not in ("json", "csv"):
        raise ConfigError(f"unknown format {cfg.fmt!r}")
    if not (1e-8 <= cfg.h <= 1e-2):
        raise ConfigError("step size out of the supported range")
    return cfg


def thread_count(cfg: RunConfig) -> int:
    if cfg.threads is not None:
        return max(1, cfg.threads)
    env = os.environ.get("BERRY_HOLONOMY_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("BERRY_HOLONOMY_THREADS must be an integer") from None
    return max(1, min(4, os.cpu_count() or 1))


def _map_ordered(fn, items: Sequence, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _emit(payload: dict, cfg: RunConfig, started: float, rows=None) -> None:
    """Write {meta, payload} JSON or CSV rows to --out or stdout."""
    if cfg.fmt == "csv":
        if rows is None:
            raise ConfigError("csv output is not supported for this command")
        text = _csv_text(rows)
    else:
        doc = {
            "meta": {
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "runtime_seconds": round(time.monotonic() - started, 6),
            },
            "payload": payload,
        }
        text = dump_json(doc) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows: List[Dict[str, float]]) -> str:
    if not rows:
        return "\n"
    headers = list(rows[0].keys())
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(repr(row[h]) for h in headers))
    return "\n".join(lines) + "\n"


def _matrix_csv_cells(prefix: str, mat: np.ndarray) -> Dict[str, float]:
    cells: Dict[str, float] = {}
    rows, cols = mat.shape
    for i in range(rows):
        for j in range(cols):
            cells[f"{prefix}[{i}][{j}].re"] = float(mat[i, j].real)
            cells[f"{prefix}[{i}][{j}].im"] = float(mat[i, j].imag)
    return cells


def _point_args(args: argparse.Namespace) -> Optional[ParameterPoint]:
    lam = getattr(args, "lam", None)
    mu = getattr(args, "mu", None)
    if lam is None and mu is None:
        return None
    return ParameterPoint(
        parse_complex(lam) if lam is not None else 0.0,
        parse_complex(mu) if mu is not None else 0.0,
    )


def cmd_connection(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = build_config(args)
    single = _point_args(args)
    points = [single] if single is not None else grid_points(cfg.grid or "default")

    def one(p: ParameterPoint) -> dict:
        cm = connection_closed(p, cfg.m)
        return {
            "lambda": complex_pair(p.lam),
            "mu": complex_pair(p.mu),
            "A_lambda": matrix_payload(cm.a_lambda),
            "A_mu": matrix_payload(cm.a_mu),
        }

    results = _map_ordered(one, points, thread_count(cfg))
    payload = {"version": __version__, "m": cfg.m, "points": results}
    rows = None
    if cfg.fmt == "csv":
        rows = []
        for p in points:
            cm = connection_closed(p, cfg.m)
            row: Dict[str, float] = {
                "lambda.re": p.lam.real,
                "lambda.im": p.lam.imag,
                "mu.re": p.mu.real,
                "mu.im": p.mu.imag,
            }
            row.update(_matrix_csv_cells("A_lambda", cm.a_lambda))
            row.update(_matrix_csv_cells("A_mu", cm.a_mu))
            rows.append(row)
    _emit(payload, cfg, started, rows)
    return 0


def cmd_curvature(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = build_config(args)
    single = _point_args(args)
    points = [single] if single is not None else grid_points(cfg.grid or "default")

    def one(p: ParameterPoint) -> dict:
        form = curvature_closed(p, cfg.m)
        entry = {"lambda": complex_pair(p.lam), "mu": complex_pair(p.mu)}
        for key in COMPONENT_KEYS:
            entry[COMPONENT_NAMES[key]] = matrix_payload(form.components[key])
        return entry

    results = _map_ordered(one, points, thread_count(cfg))
    payload = {"version": __version__, "m": cfg.m, "points": results}
    rows = None
    if cfg.fmt == "csv":
        rows = []
        for p in points:
            form = curvature_closed(p, cfg.m)
            row = {
                "lambda.re": p.lam.real,
                "lambda.im": p.lam.imag,
                "mu.re": p.mu.real,
                "mu.im": p.mu.imag,
            }
            for key in COMPONENT_KEYS:
                row.update(_matrix_csv_cells(COMPONENT_NAMES[key], form.components[key]))
            rows.append(row)
    _emit(payload, cfg, started, rows)
    return 0


def _verify_sections(cfg: RunConfig) -> Tuple[dict, bool]:
    m = cfg.m
    dim = cfg.resolved_dim(128)
    space = TruncatedSpace(dim)
    plan = DifferentiationPlan(h=cfg.h)
    points = grid_points(cfg.grid or "small")
    threads = thread_count(cfg)
    sections: Dict[str, dict] = {}

    tol = lambda default: cfg.tolerance if cfg.tolerance is not None else default

    def conn_dev(p: ParameterPoint) -> Tuple[float, float]:
        closed = connection_closed(p, m)
        oracle = connection_numeric(p, m, space, plan)
        dev = max(
            float(np.abs(closed.a_lambda - oracle.a_lambda).max()),
            float(np.abs(closed.a_mu - oracle.a_mu).max()),
        )
        return dev, oracle.estimated_error

    conn_results = _map_ordered(conn_dev, points, threads)
    devs = [r[0] for r in conn_results]
    t = tol(1e-6)
    sections["connection"] = {
        "max_dev": max(devs),
        "max_estimated_error": max(r[1] for r in conn_results),
        "tolerance": t,
        "points": len(points),
        "passed": bool(max(devs) < t),
    }

    def curv_dev(p: ParameterPoint) -> Tuple[float, Dict[str, float], float, float]:
        closed = curvature_closed(p, m)
        oracle = curvature_numeric(p, m, space, plan)
        per = {
            COMPONENT_NAMES[k]: float(
                np.abs(closed.components[k] - oracle.components[k]).max()
            )
            for k in COMPONENT_KEYS
        }
        w_closed = f_squared_from_wedge(closed)
        w_oracle = f_squared_from_wedge(oracle)
        pair_dev = float(np.abs(w_closed - w_oracle).max())
        formula_dev = float(np.abs(w_closed - f_squared(p.mu, m)).max())
        return max(per.values()), per, pair_dev, formula_dev

    curv_results = _map_ordered(curv_dev, points, threads)
    worst = max(r[0] for r in curv_results)
    worst_per: Dict[str, float] = {}
    for _, per, _, _ in curv_results:
        for name, val in per.items():
            worst_per[name] = max(worst_per.get(name, 0.0), val)
    t = tol(1e-5)
    sections["curvature"] = {
        "max_dev": worst,
        "per_component": worst_per,
        "tolerance": t,
        "points": len(points),
        "passed": bool(worst < t),
    }

    pair_worst = max(r[2] for r in curv_results)
    formula_worst = max(r[3] for r in curv_results)
    t = tol(1e-5)
    discrepancies = sorted(
        name for name, val in worst_per.items() if val >= t
    ) if pair_worst >= t else []
    sections["wedge_square"] = {
        "oracle_pair_dev": pair_worst,
        "closed_formula_dev": formula_worst,
        "tolerance": t,
        "discrepancies": discrepancies,
        # the gate is agreement of the two independently assembled wedge
        # squares; the closed formula deviation is informational
        "passed": bool(pair_worst < t),
    }

    bch_space = TruncatedSpace(64)
    bch_points = [p for p in points if abs(p.lam) <= 0.5 and abs(p.mu) <= 0.5]
    if not bch_points:
        bch_points = [ParameterPoint(0.25 + 0.1j, 0.2 - 0.15j)]
    bch_devs = _map_ordered(
        lambda p: bch_identity_report(p.lam, p.mu, bch_space).interior_dev,
        bch_points,
        threads,
    )
    t = tol(1e-8)
    sections["bch"] = {
        "max_interior_dev": max(bch_devs),
        "tolerance": t,
        "D": bch_space.dim,
        "points": len(bch_points),
        "passed": bool(max(bch_devs) < t),
    }

    z_samples = (0.3 + 0.2j, 0.7 - 0.4j, 1.1 + 0.05j)
    ident_devs = [derivative_identity_report(z).interior_dev for z in z_samples]
    t = tol(1e-8)
    sections["derivative_identities"] = {
        "max_dev": max(ident_devs),
        "tolerance": t,
        "points": len(z_samples),
        "passed": bool(max(ident_devs) < t),
    }

    all_passed = all(sec["passed"] for sec in sections.values())
    return sections, all_passed


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = build_config(args)
    if cfg.fmt == "csv":
        raise ConfigError("csv output is not supported for this command")
    sections, all_passed = _verify_sections(cfg)
    payload = {
        "version": __version__,
        "config": {
            "m": cfg.m,
            "dim": cfg.resolved_dim(128),
            "step": cfg.h,
            "grid": cfg.grid or "small",
        },
        "sections": sections,
        "passed": all_passed,
    }
    _emit(payload, cfg, started)
    return 0 if all_passed else 1


def _load_loop(args: argparse.Namespace, cfg: RunConfig):
    loop_file = getattr(args, "loop", None)
    if loop_file is None:
        mu = parse_complex(args.mu) if getattr(args, "mu", None) else 0.0
        return lambda_circle(0.5, mu=mu, samples=cfg.samples)
    with open(loop_file) as fh:
        raw = json.load(fh)
    if isinstance(raw, dict):
        raw = raw.get("vertices", raw)
    if not isinstance(raw, list) or len(raw) < 2:
        raise ConfigError("loop file must hold a JSON list of [lam, mu] vertices")
    verts = []
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError("loop vertices must be [lam, mu] pairs")
        verts.append(ParameterPoint(parse_complex(str(entry[0])), parse_complex(str(entry[1]))))
    per_side = max(16, cfg.samples // len(verts))
    return polygon_loop(verts, samples_per_side=per_side, closed=True)


def cmd_holonomy(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = build_config(args)
    if cfg.fmt == "csv":
        raise ConfigError("csv output is not supported for this command")
    loop = _load_loop(args, cfg)
    result = parallel_transport(loop, cfg.m)
    if not np.all(np.isfinite(result.w)):
        print("holonomy produced non-finite entries", file=sys.stderr)
        return 3
    phases = berry_phase_diagonal(loop, cfg.m)
    payload = {
        "version": __version__,
        "m": cfg.m,
        "samples": cfg.samples,
        "w": matrix_payload(result.w),
        "path_length": result.path_length,
        "diagonal_phases": [float(x) for x in phases],
    }
    _emit(payload, cfg, started)
    return 0


IRREDUCIBILITY_CENTERS = (
    ParameterPoint(0.32 + 0.21j, 0.43 + 0.14j),
    ParameterPoint(0.25 - 0.15j, 0.52 + 0.33j),
)

SPAN_SAMPLE_POINTS = (
    ParameterPoint(0.32 + 0.21j, 0.43 + 0.14j),
    ParameterPoint(0.25 - 0.15j, 0.52 + 0.33j),
    ParameterPoint(-0.41 + 0.08j, 0.17 - 0.36j),
    ParameterPoint(0.12 - 0.29j, -0.33 + 0.27j),
    ParameterPoint(-0.22 - 0.18j, 0.48 + 0.05j),
    ParameterPoint(0.37 + 0.02j, -0.21 - 0.44j),
)


def cmd_irreducibility(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = build_config(args)
    if cfg.fmt == "csv":
        raise ConfigError("csv output is not supported for this command")
    m = cfg.m
    try:
        loop_dim = holonomy_algebra_dimension(IRREDUCIBILITY_CENTERS, m)
    except ClosureNotStabilized as exc:
        print(
            f"holonomy closure did not stabilize: partial dimension "
            f"{exc.partial_dimension}",
            file=sys.stderr,
        )
        return 3
    span_dim = curvature_span_dimension(SPAN_SAMPLE_POINTS, m)
    payload = {
        "version": __version__,
        "m": m,
        "algebra_dim": loop_dim,
        "curvature_span_dim": span_dim,
        "u_m_dim": m * m,
        "irreducible": bool(loop_dim == m * m),
        "consistent": bool(loop_dim == span_dim),
    }
    _emit(payload, cfg, started)
    return 0


def cmd_chern(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = build_config(args)
    if cfg.fmt == "csv":
        raise ConfigError("csv output is not supported for this command")
    mu = parse_complex(args.mu) if getattr(args, "mu", None) else 0.3 + 0.0j
    traces = chern_trace_forms(mu, cfg.m)
    # (i / 2 pi)^2 is the second-character normalization of a volume-form
    # coefficient; both raw and normalized values are reported
    norm = -1.0 / (4.0 * math.pi * math.pi)
    payload = {
        "version": __version__,
        "m": cfg.m,
        "mu": complex_pair(mu),
        "tr_f_squared": complex_pair(traces["tr_f_squared"]),
        "tr_f_squared_normalized": complex_pair(norm * traces["tr_f_squared"]),
        "tr_f_wedge_tr_f": complex_pair(traces["tr_f_wedge_tr_f"]),
        "tr_f_wedge_tr_f_normalized": complex_pair(norm * traces["tr_f_wedge_tr_f"]),
    }
    _emit(payload, cfg, started)
    return 0


def _add_common(parser: argparse.ArgumentParser, point: bool = False) -> None:
    parser.add_argument("--m", type=int, default=None, help="vacuum degeneracy")
    parser.add_argument("--dim", default=None, help="truncation dimension or 'auto'")
    parser.add_argument("--step", type=float, default=None, help="stencil step for oracles")
    parser.add_argument("--samples", type=int, default=None, help="loop sample count")
    parser.add_argument("--grid", default=None, help="'default', 'small', or a JSON file")
    parser.add_argument("--out", default=None, help="output file (stdout when omitted)")
    parser.add_argument("--format", default=None, choices=("json", "csv"))
    parser.add_argument("--tolerance", type=float, default=None, help="override check tolerances")
    parser.add_argument("--threads", type=int, default=None, help="grid parallelism cap")
    parser.add_argument("--config", default=None, help="key = value config file")
    if point:
        parser.add_argument("--lambda", dest="lam", default=None, help="lam as a+bi")
        parser.add_argument("--mu", dest="mu", default=None, help="mu as a+bi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berry-holonomy",
        description="Adiabatic connection, curvature, and holonomy on the "
        "degenerate vacuum bundle of a displaced-squeezed family.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("connection", help="closed-form connection matrices")
    _add_common(p, point=True)
    p.set_defaults(func=cmd_connection)

    p = sub.add_parser("curvature", help="closed-form curvature components")
    _add_common(p, point=True)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("verify", help="closed forms against the oracle")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("holonomy", help="transport around a loop")
    _add_common(p)
    p.add_argument("--loop", default=None, help="JSON file of [lam, mu] vertices")
    p.add_argument("--mu", dest="mu", default=None, help="fixed mu for the default circle")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("irreducibility", help="holonomy algebra dimension")
    _add_common(p)
    p.set_defaults(func=cmd_irreducibility)

    p = sub.add_parser("chern", help="trace forms of the curvature square")
    _add_common(p)
    p.add_argument("--mu", dest="mu", default=None, help="mu as a+bi")
    p.set_defaults(func=cmd_chern)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ClosureNotStabilized as exc:
        print(str(exc), file=sys.stderr)
        return 3
    # LinAlgError subclasses ValueError, so it must be caught first
    except (OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
