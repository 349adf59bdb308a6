"""Parallel transport and holonomy of the closed-form connection.

Transport solves W'(t) = -A(gamma(t); gamma'(t)) W(t) with the
fourth-order two-point Gauss-Magnus rule (Iserles & Norsett 1999; Blanes,
Casas, Oteo & Ros 2009) and restores exact unitarity by one polar
projection at the end.  `LoopPath.gauss_steps` places the nodes of every
loop integral strictly inside the loop's smooth pieces, never on a corner.
A loop's `point_at` and `velocity_at` take arrays of t, so
`connection.loop_one_form` evaluates the closed connection at all nodes in
one call, and `parallel_transport` takes W, the abelian diagonal phases and
the path length from that one evaluation.

For a small coordinate square of side eps spanned by tangents (u, v),
log W = -F(u, v) eps^2 + O(eps^3); halving eps divides the residual against
the closed curvature by about eight, which `small_loop_check` reports as a
ratio.

Two routes measure the real dimension of the holonomy algebra at a base
point.  `holonomy_algebra_dimension` closes small-loop logarithms conjugated
back to the base point along straight segments.
`transported_curvature_dimension` is the Ambrose-Singer route: it closes the
closed-form curvature contractions at the loop centers, transported back
along the same segments.  In both the transport matters: the generated
algebra can exceed the span of the untransported curvature contractions
(`curvature_span_dimension`), because transport mixes in covariant
derivatives of the curvature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh, logm

from .connection import loop_one_form
from .curvature import PLANE_TANGENTS, contract_two_form, curvature_closed
from .family import ParameterPoint
from .lie import ClosureNotStabilized, real_lie_closure
from .reports import IdentityReport


@dataclass
class LoopPath:
    """A parameterized path in the (lam, mu) parameter space.

    `point_at` maps an array of t in [0, 1] to a ParameterPoint whose lam
    and mu broadcast to the shape of t, and `velocity_at` gives the
    t-derivative (dlam, dmu) the same way.  `breakpoints` split [0, 1] into
    pieces that are smooth inside (the sides of a polygon).
    """

    point_at: Callable[[np.ndarray], ParameterPoint]
    velocity_at: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    samples: int
    closed: bool = True
    breakpoints: Tuple[float, ...] = (0.0, 1.0)

    def gauss_steps(self) -> Tuple[np.ndarray, np.ndarray]:
        """Step lengths h, shape (steps,), and the two Gauss-Legendre nodes
        t_mid -+ h/(2 sqrt 3) of every step, shape (steps, 2).

        Each breakpoint piece gets round(samples * length) equal steps (at
        least one), so every node lies strictly inside its piece.
        """
        hs, mids = [], []
        for lo, hi in zip(self.breakpoints[:-1], self.breakpoints[1:]):
            n = max(1, round(self.samples * (hi - lo)))
            h = (hi - lo) / n
            hs.append(np.full(n, h))
            mids.append(lo + (np.arange(n) + 0.5) * h)
        h, mid = np.concatenate(hs), np.concatenate(mids)
        off = h / (2.0 * math.sqrt(3.0))
        return h, np.stack([mid - off, mid + off], axis=1)


def lambda_circle(
    radius: float, mu: complex = 0.0, samples: int = 2048, center: complex = 0.0
) -> LoopPath:
    """Circle of given radius in the lam plane at fixed mu."""
    if radius <= 0:
        raise ValueError("radius must be positive")

    def param(t) -> ParameterPoint:
        return ParameterPoint(center + radius * np.exp(2j * np.pi * t), mu)

    def vel(t) -> Tuple[np.ndarray, complex]:
        return (2j * np.pi * radius * np.exp(2j * np.pi * t), 0.0)

    return LoopPath(point_at=param, velocity_at=vel, samples=samples)


def polygon_loop(
    vertices: Sequence[ParameterPoint], samples_per_side: int = 384, closed: bool = True
) -> LoopPath:
    """Piecewise-linear loop through the vertices, last edge returning to
    the first vertex when closed."""
    verts = list(vertices)
    if len(verts) < 2:
        raise ValueError("need at least two vertices")
    pts = verts + [verts[0]] if closed else verts
    lam = np.array([p.lam for p in pts], dtype=complex)
    mu = np.array([p.mu for p in pts], dtype=complex)
    n = len(pts) - 1
    bps = tuple(i / n for i in range(n + 1))

    def side(t) -> Tuple[np.ndarray, np.ndarray]:
        """Index of the side each t lies on, and the fraction along it."""
        t = np.asarray(t, dtype=float)
        i = np.minimum((t * n).astype(int), n - 1)
        return i, t * n - i

    def param(t) -> ParameterPoint:
        i, s = side(t)
        return ParameterPoint(
            (1.0 - s) * lam[i] + s * lam[i + 1], (1.0 - s) * mu[i] + s * mu[i + 1]
        )

    def vel(t) -> Tuple[np.ndarray, np.ndarray]:
        i, _ = side(t)
        return (n * (lam[i + 1] - lam[i]), n * (mu[i + 1] - mu[i]))

    return LoopPath(
        point_at=param,
        velocity_at=vel,
        samples=samples_per_side * n,
        closed=closed,
        breakpoints=bps,
    )


def square_loop(
    center: ParameterPoint, plane: str, eps: float, samples_per_side: int = 384
) -> LoopPath:
    """Coordinate square of side eps at `center` in one of the six planes
    named by the curvature component keys."""
    if plane not in PLANE_TANGENTS:
        raise ValueError(f"unknown plane {plane!r}")
    u, v = PLANE_TANGENTS[plane]
    c = np.array([center.lam, center.mu])
    uu = np.array(u, dtype=complex)
    vv = np.array(v, dtype=complex)
    corners = [c, c + eps * uu, c + eps * uu + eps * vv, c + eps * vv]
    verts = [ParameterPoint(w[0], w[1]) for w in corners]
    return polygon_loop(verts, samples_per_side=samples_per_side, closed=True)


def transport(
    loop: LoopPath, m: int, *, one_form: Optional[Tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """Fourth-order Gauss-Magnus transport along the full path; one polar
    projection at the end.

    Every step exponentiates Omega = -h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1]
    from the one-form at its two Gauss nodes, all steps through one batched
    `eigh` of i Omega; `one_form` is `loop_one_form(loop, m)` when the
    caller has it already.  The polar projection removes the roundoff that
    the product of many steps accumulates, which would otherwise reach the
    logarithm of a small loop.  Raises FloatingPointError when a step's
    i Omega has an eigenvalue of magnitude pi or more (or not finite): such
    a step lies outside the Magnus convergence radius, and more samples are
    needed.
    """
    h, a = loop_one_form(loop, m) if one_form is None else one_form
    a1, a2 = a[:, 0], a[:, 1]
    hh = h[:, None, None]
    omega = -0.5 * hh * (a1 + a2) + (math.sqrt(3.0) / 12.0) * hh * hh * (a2 @ a1 - a1 @ a2)
    # scipy's eigh, not numpy's: perfbench's tracer books every
    # numpy.linalg.eigh call to the Fock layer.  LAPACK does not see NaN (it
    # returns zero eigenvalues), so Omega is checked next to the radius.
    evals, vecs = eigh(1j * omega, overwrite_a=True, check_finite=False)
    if not (np.isfinite(omega).all() and np.all(np.abs(evals) < math.pi)):
        raise FloatingPointError(
            f"transport step outside the Magnus convergence radius at {loop.samples} samples"
        )
    steps = (vecs * np.exp(-1j * evals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    w = np.eye(m, dtype=complex)
    for step in steps:
        w = step @ w
    uu, _, vh = np.linalg.svd(w)
    return uu @ vh


def parallel_transport(loop: LoopPath, m: int) -> Tuple[np.ndarray, float, np.ndarray]:
    """(w, path_length, diagonal_phases): the holonomy W of a closed loop,
    its path length, and the abelian phases Im oint A_ii, all summed over
    the nodes of one one-form evaluation.

    For a lam-circle of radius r at mu = 0 every phase is 2 pi r^2
    regardless of m; on any closed loop the phases sum to -arg det W
    (mod 2 pi) up to rounding.
    """
    if not loop.closed:
        raise ValueError("holonomy requires a closed loop")
    h, a = loop_one_form(loop, m)
    _, nodes = loop.gauss_steps()
    speed = np.hypot(*map(np.abs, loop.velocity_at(nodes)))
    return (
        transport(loop, m, one_form=(h, a)),
        float(0.5 * np.dot(np.repeat(h, 2), speed.ravel())),
        0.5 * np.einsum("s,snii->i", h, a).imag,
    )


def small_loop_check(
    center: ParameterPoint,
    plane: str,
    eps: float,
    m: int,
    steps_per_side: int = 384,
) -> IdentityReport:
    """log W against -eps^2 F(u, v) at eps and eps/2.

    Third-order remainder means the ratio of the two residuals sits near 8;
    the report carries both residuals and the ratio.
    """
    if not (1e-4 <= eps <= 1e-2):
        raise ValueError("eps out of the supported range")
    u, v = PLANE_TANGENTS[plane]
    f_uv = contract_two_form(curvature_closed(center, m), u, v)

    def residual(e: float) -> float:
        loop = square_loop(center, plane, e, samples_per_side=steps_per_side)
        w = transport(loop, m)
        return float(np.abs(logm(w) + f_uv * e * e).max())

    r_full = residual(eps)
    r_half = residual(eps / 2.0)
    ratio = r_full / r_half if r_half > 0 else float("inf")
    return IdentityReport(
        interior_dev=r_full,
        boundary_dev=r_half,
        extras={"ratio": ratio, "plane": plane, "eps": eps},
    )


def _segment_transport(
    p0: ParameterPoint, p1: ParameterPoint, m: int, steps: int
) -> np.ndarray:
    seg = polygon_loop([p0, p1], samples_per_side=steps, closed=False)
    return transport(seg, m)


def holonomy_algebra_dimension(
    centers: Sequence[ParameterPoint],
    m: int,
    budget: int = 6,
    eps: float = 1e-2,
    steps_per_side: int = 128,
    seg_steps: int = 256,
    base: ParameterPoint = ParameterPoint(0.0, 0.0),
) -> int:
    """Real dimension of the algebra generated by based small-loop logs.

    Every center contributes six square loops (one per coordinate plane);
    each log W is conjugated back to `base` along a straight segment before
    entering the closure.  Raises ClosureNotStabilized when commutator
    rounds within `budget` keep finding new directions.
    """
    if len(centers) < 2:
        raise ValueError("need at least two centers")
    els: List[np.ndarray] = []
    for c in centers:
        w_seg = _segment_transport(base, c, m, seg_steps)
        w_seg_i = w_seg.conj().T
        for plane in PLANE_TANGENTS:
            loop = square_loop(c, plane, eps, samples_per_side=steps_per_side)
            lw = logm(transport(loop, m))
            els.append(w_seg_i @ lw @ w_seg)
    dim, stabilized = real_lie_closure(els, max_rounds=budget)
    if not stabilized:
        raise ClosureNotStabilized(dim, budget)
    return dim


def transported_curvature_dimension(
    centers: Sequence[ParameterPoint],
    m: int,
    seg_steps: int = 256,
    base: ParameterPoint = ParameterPoint(0.0, 0.0),
) -> int:
    """Real dimension of the algebra generated by curvature transported to
    `base` (Ambrose-Singer).

    At every center the six plane contractions of the closed curvature are
    conjugated back to `base` along the straight segment that
    `holonomy_algebra_dimension` uses, then closed under commutators.  This
    needs no loop transport or matrix logarithm, so it is an independent
    check on the loop route.  Raises ClosureNotStabilized when commutator
    rounds keep finding new directions.
    """
    if not centers:
        raise ValueError("need at least one center")
    els: List[np.ndarray] = []
    for c in centers:
        w_seg = _segment_transport(base, c, m, seg_steps)
        w_seg_i = w_seg.conj().T
        form = curvature_closed(c, m)
        for u, v in PLANE_TANGENTS.values():
            els.append(w_seg_i @ contract_two_form(form, u, v) @ w_seg)
    rounds = 6
    dim, stabilized = real_lie_closure(els, max_rounds=rounds)
    if not stabilized:
        raise ClosureNotStabilized(dim, rounds)
    return dim
