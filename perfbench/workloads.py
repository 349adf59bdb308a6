"""The benchmark's workloads: seeded inputs, CLI command lines and output checks.

Each workload is a fixed list of `berry-holonomy` command lines.  The seed
only shapes the generated input files (the polygon loop and the sweep grid);
the program receives nothing but those files and its arguments.  Every
command is one operation: its check returns the reasons its output is wrong
(empty when it is right) and the deviations the accuracy metrics are made of.

Importing this module needs `berry_holonomy` on `sys.path`: the checks compare
against the package's closed forms called directly, and the holonomy
reference uses `connection_closed` with an integrator of its own.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from berry_holonomy.connection import connection_closed
from berry_holonomy.curvature import COMPONENT_KEYS, COMPONENT_NAMES, curvature_closed
from berry_holonomy.family import ParameterPoint

CIRCLE_RADIUS = 0.5
CIRCLE_MU = 2.0
# Sweep rows must match the closed forms called directly; the slack only
# admits a different summation order, never a wrong sign or entry.
SWEEP_RTOL = 1e-12
UNITARITY_TOL = 1e-10
PHASE_TOL = 1e-9
# The reference must be this much better than the loosest accuracy a
# holonomy command may show, so `holonomy_digits` measures the program.
REFERENCE_TOL = 1e-12
REFERENCE_STEPS = 4096  # Magnus steps per loop, shared among its pieces


@dataclass
class Outcome:
    """What one command's check found: failure reasons and deviations."""

    failures: List[str] = field(default_factory=list)
    devs: Dict[str, float] = field(default_factory=dict)


@dataclass
class Command:
    argv: List[str]
    out: Path
    check: Callable[[Path], Outcome]
    sweep_points: int = 0  # grid points of a CSV sweep, else 0


@dataclass
class Workload:
    commands: List[Command]
    reference: dict = field(default_factory=dict)


def complex_text(z: complex) -> str:
    """`a+bi` notation as the CLI reads it."""
    return f"{z.real!r}{z.imag:+}i"


def parse_text(s: str) -> complex:
    return complex(s.replace("i", "j"))


def matrix_from_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"matrix payload has shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def digits(dev: float) -> float:
    """Decimal digits of agreement, -log10 of a deviation floored at 1e-16."""
    return -math.log10(max(dev, 1e-16))


def _disk(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    th = 2.0 * math.pi * rng.random()
    z = r * complex(math.cos(th), math.sin(th))
    return complex(round(z.real, 6), round(z.imag, 6))


def _write_pairs(path: Path, pairs: Sequence[Tuple[complex, complex]]) -> List[ParameterPoint]:
    """Write [lam, mu] string pairs; return the points the CLI will parse."""
    text = [[complex_text(lam), complex_text(mu)] for lam, mu in pairs]
    path.write_text(json.dumps(text))
    return [ParameterPoint(parse_text(a), parse_text(b)) for a, b in text]


def _payload(path: Path) -> dict:
    return json.loads(path.read_text())["payload"]


# -- holonomy reference ------------------------------------------------------


def _one_form(cm, dlam: complex, dmu: complex) -> np.ndarray:
    return (
        cm.a_lambda * dlam
        + cm.a_mu * dmu
        - cm.a_lambda.conj().T * np.conj(dlam)
        - cm.a_mu.conj().T * np.conj(dmu)
    )


def magnus_transport(point_at, velocity_at, m: int, steps: int) -> np.ndarray:
    """Transport W' = -A(gamma') W over t in [0, 1] by the fourth-order
    two-point Gauss-Magnus product of `scipy.linalg.expm` steps.

    It shares nothing with `holonomy.transport` (RK4 plus a polar
    projection) except the closed connection it integrates.
    """
    h = 1.0 / steps
    mid = (np.arange(steps) + 0.5) * h
    off = h * 0.5 / math.sqrt(3.0)
    nodes = np.concatenate([mid - off, mid + off])
    a = np.array(
        [
            _one_form(connection_closed(ParameterPoint(*point_at(t)), m), *velocity_at(t))
            for t in nodes
        ]
    )
    a1, a2 = a[:steps], a[steps:]
    omega = -0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)
    w = np.eye(m, dtype=complex)
    for step in expm(omega):
        w = step @ w
    return w


def _reference(pieces, m: int, steps: int) -> Tuple[np.ndarray, float]:
    """Holonomy over consecutive path pieces, with a step-halving error
    estimate; raises when the reference itself is not accurate enough."""

    def product(n: int) -> np.ndarray:
        w = np.eye(m, dtype=complex)
        for point_at, velocity_at in pieces:
            w = magnus_transport(point_at, velocity_at, m, n) @ w
        return w

    fine = product(steps)
    err = float(np.abs(fine - product(steps // 2)).max()) / 15.0
    if err > REFERENCE_TOL:
        raise RuntimeError(f"holonomy reference not converged (estimate {err:.2e})")
    return fine, err


def circle_piece(radius: float, mu: complex):
    """The CLI's default loop: lam = r e^{2 pi i t} at fixed mu, from lam = r."""
    return (
        lambda t: (radius * np.exp(2j * np.pi * t), mu),
        lambda t: (2j * np.pi * radius * np.exp(2j * np.pi * t), 0.0),
    )


def polygon_pieces(verts: Sequence[ParameterPoint]):
    pieces = []
    for p0, p1 in zip(verts, list(verts[1:]) + [verts[0]]):
        dl, dm = p1.lam - p0.lam, p1.mu - p0.mu
        pieces.append(
            (
                lambda t, p0=p0, dl=dl, dm=dm: (p0.lam + t * dl, p0.mu + t * dm),
                lambda t, dl=dl, dm=dm: (dl, dm),
            )
        )
    return pieces


# -- checks ------------------------------------------------------------------


def check_verify(path: Path) -> Outcome:
    payload = _payload(path)
    out = Outcome()
    if payload.get("passed") is not True:
        out.failures.append("verify payload.passed is not true")
    sections = payload["sections"]
    out.devs["conn"] = float(sections["connection"]["max_dev"])
    out.devs["curv"] = float(sections["curvature"]["max_dev"])
    return out


def check_holonomy(
    path: Path, w_ref: np.ndarray, min_digits: float, circle_radius: Optional[float]
) -> Outcome:
    payload = _payload(path)
    out = Outcome()
    w = matrix_from_pairs(payload["w"])
    if w.shape != w_ref.shape:
        out.failures.append(f"W has shape {w.shape}, expected {w_ref.shape}")
        return out
    if not np.all(np.isfinite(w)):
        out.failures.append("W has non-finite entries")
        return out
    defect = float(np.abs(w.conj().T @ w - np.eye(w.shape[0])).max())
    if defect > UNITARITY_TOL:
        out.failures.append(f"W is not unitary (defect {defect:.2e})")
    err = float(np.abs(w - w_ref).max())
    out.devs["holonomy"] = err
    if digits(err) < min_digits:
        out.failures.append(f"W differs from the reference by {err:.2e}")
    if circle_radius is not None:
        want = 2.0 * math.pi * circle_radius**2
        phases = [float(x) for x in payload["diagonal_phases"]]
        if len(phases) != w.shape[0] or any(abs(x - want) > PHASE_TOL for x in phases):
            out.failures.append(f"diagonal phases {phases} are not 2 pi r^2 = {want}")
    return out


def check_irreducibility(path: Path, m: int) -> Outcome:
    payload = _payload(path)
    out = Outcome()
    if payload.get("algebra_dim") != m * m:
        out.failures.append(f"algebra_dim {payload.get('algebra_dim')} at m={m}, expected {m * m}")
    if payload.get("curvature_span_dim") != 4:
        out.failures.append(f"curvature_span_dim {payload.get('curvature_span_dim')}, expected 4")
    return out


def closed_matrices(kind: str, p: ParameterPoint, m: int) -> Dict[str, np.ndarray]:
    """The matrices a sweep row holds, from the closed forms called directly."""
    if kind == "connection":
        cm = connection_closed(p, m)
        return {"A_lambda": cm.a_lambda, "A_mu": cm.a_mu}
    form = curvature_closed(p, m)
    return {COMPONENT_NAMES[k]: form.components[k] for k in COMPONENT_KEYS}


def _close(got, want) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - want) <= SWEEP_RTOL * (1.0 + np.abs(want))))


def check_sweep(
    path: Path, kind: str, fmt: str, points: Sequence[ParameterPoint], m: int, sample: Sequence[int]
) -> Outcome:
    out = Outcome()
    if fmt == "json":
        rows = _payload(path)["points"]
    else:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    if len(rows) != len(points):
        out.failures.append(f"{len(rows)} rows for {len(points)} grid points")
        return out
    for i in sample:
        p, row = points[i], rows[i]
        want = closed_matrices(kind, p, m)
        if fmt == "json":
            where = matrix_from_pairs([[row["lambda"], row["mu"]]])[0]
            got = {name: matrix_from_pairs(row[name]) for name in want}
        else:
            where = [
                complex(float(row["lambda.re"]), float(row["lambda.im"])),
                complex(float(row["mu.re"]), float(row["mu.im"])),
            ]
            got = {}
            for name, mat in want.items():
                cells = np.empty(mat.shape, dtype=complex)
                for (a, b) in np.ndindex(mat.shape):
                    cells[a, b] = complex(
                        float(row[f"{name}[{a}][{b}].re"]), float(row[f"{name}[{a}][{b}].im"])
                    )
                got[name] = cells
        if not _close(where, [p.lam, p.mu]):
            out.failures.append(f"row {i} is at {where}, expected ({p.lam}, {p.mu})")
        for name, mat in want.items():
            if got[name].shape != mat.shape or not _close(got[name], mat):
                out.failures.append(f"row {i}: {name} differs from {kind}_closed")
    return out


# -- workloads ---------------------------------------------------------------


def _verify_grid(seed: int, work: Path, smoke: bool) -> Workload:
    out = work / "verify.json"
    argv = ["verify", "--m", "2", "--grid", "default", "--out", str(out)]
    if smoke:
        grid = work / "grid.json"
        _write_pairs(grid, [(0.25 + 0.1j, 0.2 - 0.15j)])
        argv = ["verify", "--m", "2", "--grid", str(grid), "--dim", "64", "--out", str(out)]
    return Workload([Command(argv, out, check_verify)])


def _holonomy_loops(seed: int, work: Path, smoke: bool) -> Workload:
    samples, circle_ms, poly_m, min_digits = 4096, (2, 3), 3, 8.0
    if smoke:
        samples, circle_ms, poly_m, min_digits = 512, (2,), 2, 5.0
    rng = np.random.default_rng([seed, 1])
    verts = _write_pairs(
        work / "polygon.json", [(_disk(rng, 0.8), _disk(rng, 0.8)) for _ in range(6)]
    )
    commands, reference = [], {}
    loops = [(f"circle_m{m}", m, [circle_piece(CIRCLE_RADIUS, CIRCLE_MU)], CIRCLE_RADIUS) for m in circle_ms]
    loops.append((f"polygon_m{poly_m}", poly_m, polygon_pieces(verts), None))
    for label, m, pieces, radius in loops:
        w_ref, err = _reference(pieces, m, REFERENCE_STEPS // len(pieces))
        reference[label] = err
        out = work / f"{label}.json"
        argv = ["holonomy", "--m", str(m), "--samples", str(samples)]
        argv += ["--mu", str(CIRCLE_MU)] if radius is not None else ["--loop", str(work / "polygon.json")]
        commands.append(
            Command(
                argv + ["--out", str(out)],
                out,
                lambda path, w_ref=w_ref, radius=radius: check_holonomy(path, w_ref, min_digits, radius),
            )
        )
    return Workload(commands, {"reference_error_estimate": reference})


def _irreducibility(seed: int, work: Path, smoke: bool) -> Workload:
    commands = []
    for m in (2,) if smoke else (3, 4):
        out = work / f"irreducibility_m{m}.json"
        argv = ["irreducibility", "--m", str(m), "--out", str(out)]
        commands.append(Command(argv, out, lambda path, m=m: check_irreducibility(path, m)))
    return Workload(commands)


def _sweep_closed(seed: int, work: Path, smoke: bool) -> Workload:
    n, m, n_sample = (20, 2, 20) if smoke else (2000, 4, 16)
    rng = np.random.default_rng([seed, 2])
    grid = work / "grid.json"
    points = _write_pairs(grid, [(_disk(rng, 1.0), _disk(rng, 1.0)) for _ in range(n)])
    sample = sorted(rng.choice(n, size=n_sample, replace=False).tolist())
    commands = []
    for kind in ("connection", "curvature"):
        for fmt in ("json", "csv"):
            out = work / f"{kind}.{fmt}"
            argv = [kind, "--m", str(m), "--grid", str(grid), "--format", fmt, "--out", str(out)]
            check = lambda path, kind=kind, fmt=fmt: check_sweep(path, kind, fmt, points, m, sample)
            commands.append(Command(argv, out, check, sweep_points=n if fmt == "csv" else 0))
    return Workload(commands)


_BUILDERS = {
    "verify-grid": _verify_grid,
    "holonomy-loops": _holonomy_loops,
    "irreducibility": _irreducibility,
    "sweep-closed": _sweep_closed,
}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """Write the workload's inputs under `work` and compute its references."""
    return _BUILDERS[name](seed, work, smoke)
