"""Command-line interface.

Subcommands:

  connection      closed-form connection matrices at a point or over a grid
  curvature       closed-form curvature components at a point or over a grid
  verify          closed forms against the finite-difference oracle
  holonomy        transport around a loop (default: lam-circle of radius 1/2)
  irreducibility  holonomy-algebra and curvature-span dimensions
  chern           trace forms entering second-character integrands

Each subcommand accepts only the settings it reads (`Command.settings`), as
flags and as `--config` file keys; `--lambda`, `--mu` and `--loop` are flags
only, never config keys.
Complex values on the command line use `a+bi` notation ("0.5", "0.5+0.25i",
"-0.3i").  JSON output is canonical: keys sorted, compact separators, complex
numbers as [re, im] pairs, matrices row-major.  Everything that can vary
between identical runs (timestamps, runtime) lives under "meta"; the
"payload" object is byte-stable for byte-for-byte comparison.

Exit codes: 0 success (all checks passed where applicable), 1 tolerance
breach, 2 configuration error (including non-finite inputs, a tolerance of
zero or below, --grid given together with --lambda or --mu, --loop
together with --mu, files that cannot be opened, and inputs that ask for an
array too large to allocate; the message names the allocation), 3
numerical failure (an overflow, invalid operation or division by zero in
numpy, a linear-algebra routine that did not converge, a transport step too
large for the loop's samples, a closure that did not stabilize, or a
non-finite result; nothing is written then).
The exit-3 message names the failed floating-point operation, as in
"numerical failure: overflow encountered in multiply".
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
from functools import lru_cache, partial
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .connection import connection_closed, frame_moment
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
from .fock import bch_identity_report
from .holonomy import (
    holonomy_algebra_dimension,
    lambda_circle,
    parallel_transport,
    polygon_loop,
)
from .lie import ClosureNotStabilized
from .numeric import STEP, connection_numeric, derivative_identity_report
from .reports import RawJSON, dump_json, matrix_payload, render_points


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


def _pair_values(raw: list, source: str) -> Tuple[List[complex], List[complex]]:
    """The lam and the mu values of a parsed, non-empty JSON list of
    [lam, mu] string pairs, in order."""
    if not raw:
        raise ConfigError(f"{source} holds no points")
    lams: List[complex] = []
    mus: List[complex] = []
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError(f"{source} entries must be [lam, mu] pairs")
        lams.append(parse_complex(str(entry[0])))
        mus.append(parse_complex(str(entry[1])))
    return lams, mus


def grid_batch(name_or_path: str) -> ParameterPoint:
    """A named grid ('default', 'small') or a JSON file of [lam, mu] string
    pairs, as one batch of points of shape (points,)."""
    named = {"default": (DEFAULT_MAGNITUDES, DEFAULT_PHASES), "small": ((0.0, 0.5), (0.0,))}
    if name_or_path in named:
        axis = _axis_values(*named[name_or_path])
        lams, mus = [lam for lam in axis for _ in axis], axis * len(axis)
    else:
        if not os.path.exists(name_or_path):
            raise ConfigError(f"grid {name_or_path!r} is neither a named grid nor a file")
        with open(name_or_path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, list):
            raise ConfigError("grid file must hold a JSON list of [lam, mu] pairs")
        lams, mus = _pair_values(raw, f"grid {name_or_path!r}")
    return ParameterPoint(np.array(lams, dtype=complex), np.array(mus, dtype=complex))


def grid_points(name_or_path: str) -> List[ParameterPoint]:
    """`grid_batch` as a list of points."""
    batch = grid_batch(name_or_path)
    return list(map(ParameterPoint, batch.lam.tolist(), batch.mu.tolist()))


def _dim(text) -> int:
    # "auto" is a fixed 128: at D=64 the oracle misses the verify gates on
    # the default grid
    return 128 if text == "auto" else int(text)


# config key (also the `--KEY` flag and its argparse dest), parser, default, help,
# and the test a parsed value must pass with the error message ({} for the value),
# or None; flags arrive as strings and go through the same parser as config-file values
SETTINGS = (
    ("m", int, 2, "vacuum degeneracy", (lambda v: v >= 1, "m must be positive")),
    ("dim", _dim, "auto", "truncation dimension or 'auto' (128)",
     (lambda v: v >= 2, "dim must be at least 2")),
    ("step", float, STEP, "stencil step for oracles",
     (lambda v: 1e-8 <= v <= 1e-2, "step size out of the supported range")),
    ("samples", int, 2048, "loop steps; a --loop polygon takes max(16, samples // sides) a side",
     (lambda v: v >= 4, "samples must be at least 4")),
    ("grid", str, None, "'default', 'small', or a JSON file", None),
    ("out", str, None, "output file (stdout when omitted)", None),
    ("format", str, "json", "json or csv", (lambda v: v in ("json", "csv"), "unknown format {!r}")),
    ("tolerance", float, None, "override check tolerances",
     (lambda v: 0 < v < math.inf, "tolerance must be positive and finite")),
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
    """Each setting the command reads from its flag, else the --config file,
    else its default; a file key the command does not read is an error."""
    keys = COMMANDS[args.command].settings
    file_cfg = load_config_file(args.config) if args.config else {}
    for key in file_cfg:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = argparse.Namespace()
    for key, parse, default, _, limit in SETTINGS:
        if key not in keys:
            continue
        val = getattr(args, key)
        if val is None:
            val = file_cfg.get(key, default)
        try:
            val = None if val is None else parse(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if val is not None and limit is not None and not limit[0](val):
            raise ConfigError(limit[1].format(val))
        setattr(cfg, key, val)
    return cfg


def _complex_arg(args: argparse.Namespace, name: str, default: complex) -> complex:
    text = getattr(args, name)
    return default if text is None else parse_complex(text)


def _sweep(
    fields: Callable[[ParameterPoint, int], List[Tuple[str, np.ndarray]]],
    args: argparse.Namespace,
    cfg: argparse.Namespace,
):
    """--lambda/--mu or a grid (not both), evaluated in one batch: `fields`
    returns named stacks of matrices.  JSON holds one entry per point; CSV
    text one row per point: lambda, mu, then each matrix row-major, each
    value as re, im.  The CSV text, or the JSON `points` as a `RawJSON`,
    comes as blocks of whole rows, all rendered before this returns, so
    `meta.runtime_seconds` covers the rendering and a non-finite table
    fails before any output is opened.  Both formats come from
    `reports.render_points`, which formats a constant or repeated column
    once (most of the closed forms' columns are such)."""
    point_flags = [flag for flag, dest, _ in POINT_FLAGS if getattr(args, dest) is not None]
    if point_flags and args.grid is not None:
        given = " and ".join(point_flags)
        raise ConfigError(f"--grid and {given} both given: sweep a grid or evaluate one point")
    if point_flags:
        batch = ParameterPoint(
            *(np.array([_complex_arg(args, dest, 0.0)], dtype=complex) for dest in ("lam", "mu"))
        )
    else:
        batch = grid_batch(cfg.grid or "default")
    named = [("lambda", batch.lam), ("mu", batch.mu)] + fields(batch, cfg.m)
    blocks = render_points(named, cfg.format)
    return {"m": cfg.m, "points": RawJSON(blocks)} if cfg.format == "json" else blocks


def _connection_fields(p: ParameterPoint, m: int) -> List[Tuple[str, np.ndarray]]:
    cm = connection_closed(p, m)
    return [("A_lambda", cm.a_lambda), ("A_mu", cm.a_mu)]


def _curvature_fields(p: ParameterPoint, m: int) -> List[Tuple[str, np.ndarray]]:
    form = curvature_closed(p, m)
    return [(COMPONENT_NAMES[k], form.components[k]) for k in COMPONENT_KEYS]


# points per oracle call in `verify`: the default grid's 81 make one, and a
# call at D = 128, m = 2 allocates about 12 MB at its peak
ORACLE_BATCH = 128

# points per factorization report in `verify`: the default grid's 25 make one,
# and the report's D = 64 stacks stay near 2 MB each
BCH_BATCH = 32


def _max_abs(x, y) -> float:
    return float(np.abs(x - y).max())


def _slices(batch: ParameterPoint, size: int) -> Iterator[ParameterPoint]:
    """The batch of shape (points,) as consecutive slices of at most `size`."""
    for i in range(0, batch.lam.size, size):
        yield ParameterPoint(batch.lam[i : i + size], batch.mu[i : i + size])


def _slice_devs(b: ParameterPoint, m: int, dim: int, h: float) -> Dict[str, float]:
    """One slice of the grid reduced to its worst deviations, keyed by name:
    the oracle's connection and each curvature component (`COMPONENT_NAMES`)
    against the closed forms, the oracle's estimated error, the frame's V+ N V
    and V+ N^2 V against their exact values (truncation), and the closed
    wedge square against the oracle's and against `f_squared`.  No array
    outlives the slice."""
    r = connection_numeric(b, m, dim, h)
    conn = connection_closed(b, m)
    curv = curvature_closed(b, m)
    wedge = f_squared_from_wedge(curv)
    nv = np.arange(dim)[:, None] * r.frame
    devs = {
        COMPONENT_NAMES[k]: _max_abs(curv.components[k], r.curvature.components[k])
        for k in COMPONENT_KEYS
    }
    devs.update(
        conn=max(_max_abs(conn.a_lambda, r.a[0]), _max_abs(conn.a_mu, r.a[1])),
        est=float(r.estimated_error.max()),
        trunc=_max_abs(r.frame.conj().swapaxes(-1, -2) @ nv, frame_moment(b, m, 1)),
        curv_trunc=_max_abs(nv.conj().swapaxes(-1, -2) @ nv, frame_moment(b, m, 2)),
        pair=_max_abs(wedge, f_squared_from_wedge(r.curvature)),
        formula=_max_abs(wedge, f_squared(b.mu, m)),
    )
    return devs


def _verify(args: argparse.Namespace, cfg: argparse.Namespace) -> dict:
    """The closed forms against the oracle over the grid, read once as a
    batch and walked in slices of `ORACLE_BATCH` points, each reduced to its
    worst deviations (`_slice_devs`); every number printed is a maximum over
    the grid, so it is the maximum over the slices.  The factorization check
    takes the grid's inner points in slices of `BCH_BATCH`."""
    m = cfg.m
    grid = grid_batch(cfg.grid or "small")

    def section(key: str, dev: float, default_tol: float, **extra) -> dict:
        t = cfg.tolerance if cfg.tolerance is not None else default_tol
        return {key: dev, "tolerance": t, "passed": bool(dev < t), **extra}

    seconds = {}

    def timed(name: str, fn: Callable[[], object]):
        started = time.perf_counter()
        out = fn()
        seconds[name] = round(time.perf_counter() - started, 6)
        return out

    per_slice = timed(
        "oracle",
        lambda: [_slice_devs(b, m, cfg.dim, cfg.step) for b in _slices(grid, ORACLE_BATCH)],
    )
    worst = {key: max(d[key] for d in per_slice) for key in per_slice[0]}
    per_component = {COMPONENT_NAMES[k]: worst[COMPONENT_NAMES[k]] for k in COMPONENT_KEYS}
    n = grid.lam.size
    sections = {
        "connection": section(
            "max_dev",
            worst["conn"],
            1e-6,
            max_estimated_error=worst["est"],
            max_truncation_error=worst["trunc"],
            points=n,
        ),
        "curvature": section(
            "max_dev",
            max(per_component.values()),
            1e-5,
            per_component=per_component,
            max_truncation_error=worst["curv_trunc"],
            points=n,
        ),
    }
    t = sections["curvature"]["tolerance"]
    pair_dev = worst["pair"]
    failed = sorted(name for name, v in per_component.items() if v >= t) if pair_dev >= t else []
    # the gate is agreement of the two independently assembled wedge squares;
    # the closed formula deviation is informational
    sections["wedge_square"] = section(
        "oracle_pair_dev", pair_dev, 1e-5, closed_formula_dev=worst["formula"], discrepancies=failed
    )

    # the factorization check at D = 64 takes the points with |lam|, |mu| <= 0.5,
    # or one fixed point when the grid holds none
    bch_dim = 64
    inner = (np.abs(grid.lam) <= 0.5) & (np.abs(grid.mu) <= 0.5)
    if inner.any():
        bch_points = ParameterPoint(grid.lam[inner], grid.mu[inner])
    else:
        bch_points = ParameterPoint(np.array([0.25 + 0.1j]), np.array([0.2 - 0.15j]))
    bch = timed(
        "bch",
        lambda: [bch_identity_report(b.lam, b.mu, bch_dim) for b in _slices(bch_points, BCH_BATCH)],
    )
    bch_dev = max(float(part[0].max()) for rep in bch for part in rep.values())
    sections["bch"] = section(
        "max_interior_dev", bch_dev, 1e-8, D=bch_dim, points=bch_points.lam.size
    )

    z_samples = (0.3 + 0.2j, 0.7 - 0.4j, 1.1 + 0.05j)
    reports = timed("identities", lambda: [derivative_identity_report(z) for z in z_samples])
    ident_dev = max(max(devs) for devs in reports)
    sections["derivative_identities"] = section("max_dev", ident_dev, 1e-8, points=len(z_samples))
    return {
        "config": {"m": m, "dim": cfg.dim, "step": cfg.step, "grid": cfg.grid or "small"},
        "sections": sections,
        "passed": all(sec["passed"] for sec in sections.values()),
        "meta": {"section_seconds": seconds},
    }


def _load_loop(args: argparse.Namespace, cfg: argparse.Namespace):
    if args.loop is None:
        return lambda_circle(0.5, mu=_complex_arg(args, "mu", 0.0), samples=cfg.samples)
    if args.mu is not None:
        raise ConfigError("--loop and --mu both given: --mu sets the mu of the default circle")
    with open(args.loop) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or len(raw) < 2:
        raise ConfigError("loop file must hold a JSON list of [lam, mu] vertices")
    verts = list(map(ParameterPoint, *_pair_values(raw, "loop file")))
    per_side = max(16, cfg.samples // len(verts))
    return polygon_loop(verts, samples_per_side=per_side, closed=True)


def _holonomy(args: argparse.Namespace, cfg: argparse.Namespace) -> dict:
    loop = _load_loop(args, cfg)
    w, length, phases = parallel_transport(loop, cfg.m)
    return {
        "m": cfg.m,
        "samples": loop.samples,
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
    # (args, config) -> JSON payload, or the CSV text's blocks when the format
    # is csv; a payload's "meta" entry (run-dependent facts such as timings)
    # goes to meta
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


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged and returns a new namespace each call."""
    parser = argparse.ArgumentParser(
        prog="berry-holonomy",
        description="Adiabatic connection, curvature, and holonomy on the "
        "degenerate vacuum bundle of a displaced-squeezed family.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for key, _, _, help_text, _ in SETTINGS:
            if key in cmd.settings:
                p.add_argument(f"--{key}", help=help_text)
        p.add_argument("--config", help="key = value config file")
        for flag, dest, help_text in cmd.flags:
            p.add_argument(flag, dest=dest, help=help_text)
    return parser


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line: write {meta, payload} JSON or CSV text to
    --out or stdout, piece by piece, never joined; exit 1 when the payload
    reports `passed: false`.
    Overflow, invalid operations and division by zero in numpy raise
    FloatingPointError, and so does a NaN or infinity in the result: a
    sweep checks its float table before it renders either format (its JSON
    points reach `dump_json` as `RawJSON` text), and the JSON encoder
    rejects one anywhere else.  Nothing is written then."""
    started = time.monotonic()
    cfg = build_config(args)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        result = COMMANDS[args.command].handler(args, cfg)
    as_csv = getattr(cfg, "format", "json") == "csv"
    if as_csv:
        pieces = result
    else:
        meta = result.pop("meta", {})
        doc = {
            "meta": {
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "runtime_seconds": round(time.monotonic() - started, 6),
                **meta,
            },
            "payload": {"version": __version__, **result},
        }
        try:
            pieces = dump_json(doc, pieces=True) + ["\n"]
        except ValueError:
            raise FloatingPointError("non-finite result") from None
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return 1 if not as_csv and result.get("passed") is False else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (ClosureNotStabilized, OverflowError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # ConfigError, bad values, input or output files that cannot be opened,
    # and arrays sized by the input (dim, m, samples) too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
