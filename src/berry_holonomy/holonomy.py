"""Parallel transport and holonomy of the closed-form connection.

Transport solves W'(t) = -A(gamma(t); gamma'(t)) W(t) with the
fourth-order two-point Gauss-Magnus rule (Iserles & Norsett 1999; Blanes,
Casas, Oteo & Ros 2009) and restores exact unitarity by one polar
projection at the end.  The step exponentials, the Magnus radius guard and
the product of the steps are batched numpy operations on the stack of
steps, with no Python loop over the steps.  The exponentials take the
lowest Pade degree whose range covers the stack's largest 1-norm, and the
guard needs eigenvalues only when some step's Frobenius norm reaches pi.
`logm` is the principal logarithm of a unitary matrix.  The module needs
nothing beyond numpy.
`LoopPath.gauss_steps` places the nodes of every loop integral strictly
inside the loop's smooth pieces, never on a corner.  A loop's `point_at`
and `velocity_at` take arrays of t, so `connection.loop_one_form`
evaluates the closed connection at all nodes in one call, and
`parallel_transport` takes W, the abelian diagonal phases and the path
length from that one evaluation.

For a small coordinate square of side eps spanned by tangents (u, v),
log W = -F(u, v) eps^2 + O(eps^3); halving eps divides the residual against
the closed curvature by about eight, which `small_loop_check` reports as a
ratio.

Two routes measure the real dimension of the holonomy algebra based at the
origin.  `holonomy_algebra_dimension` closes small-loop logarithms conjugated
back to the origin along straight segments.
`transported_curvature_dimension` is the Ambrose-Singer route: it closes the
closed-form curvature contractions at the loop centers, transported back
along the same segments.  In both the transport matters: the generated
algebra can exceed the span of the untransported curvature contractions
(`curvature_span_dimension`), because transport mixes in covariant
derivatives of the curvature.  Loop sides and step counts are the module
constants below; the closure's round budget is `lie.CLOSURE_ROUNDS`, the
same for both routes and for `curvature_span_dimension`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .connection import loop_one_form
from .curvature import PLANE_TANGENTS, contract_two_form, curvature_closed, plane_contractions
from .family import ParameterPoint
from .lie import real_lie_closure

# steps per side of the squares whose logarithm `small_loop_check` compares
CHECK_STEPS_PER_SIDE = 384
# side and steps per side of the small loops of `holonomy_algebra_dimension`
ALGEBRA_EPS = 1e-2
ALGEBRA_STEPS_PER_SIDE = 128
# steps of the segment that carries each center's generators to the origin
SEGMENT_STEPS = 256
# square roots `logm` may take, and the least singular value of W + I that
# a root accepts: below it W has an eigenvalue at -1 and no principal log
LOG_MAX_ROOTS = 8
LOG_MIN_GAP = 1e-8

# coefficients b_0..b_p of the diagonal Pade [p/p] approximants of exp, and
# the 1-norm up to which each is accurate to double precision (Higham 2005,
# SIAM J. Matrix Anal. Appl. 26:1179, Table 2.3 and Algorithm 2.3)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
# (theta_p, b_0..b_p) for p = 3, 5, 7, 9
_PADE_LOW = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (
        9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    ),
    (
        2.097847961257068,
        (
            17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
            2162160.0, 110880.0, 3960.0, 90.0, 1.0,
        ),
    ),
)


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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of every matrix of an (n, m, m) stack by a diagonal Pade
    approximant (Higham 2005, Algorithm 2.3), one `solve` for the stack.

    The degree is chosen once for the stack: the lowest of 3, 5, 7, 9 whose
    theta bounds the largest 1-norm in the stack.  Above theta_9 it is
    [13/13] with scaling and squaring: each matrix is scaled by its own
    power of two 2^-s, s the least with 1-norm 2^-s |a|_1 < THETA13, and
    squared back s times.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    eye = np.eye(a.shape[-1])
    largest = norm.max(initial=0.0)
    for theta, b in _PADE_LOW:
        if largest <= theta:
            even = [eye, a @ a]
            while len(even) < len(b) // 2:
                even.append(even[-1] @ even[1])
            u = a @ sum(c * x for c, x in zip(b[1::2], even))
            v = sum(c * x for c, x in zip(b[0::2], even))
            return np.linalg.solve(v - u, v + u)
    b = _PADE13
    s = np.maximum(np.frexp(norm / _THETA13)[1], 0)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        sel = s > k
        r[sel] = r[sel] @ r[sel]
    return r


def transport(
    loop: LoopPath, m: int, *, one_form: Optional[Tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """Fourth-order Gauss-Magnus transport along the full path; one polar
    projection at the end.

    Every step is exp(Omega), Omega = -h/2 (A1 + A2) + sqrt(3) h^2/12
    [A2, A1] from the one-form at its two Gauss nodes; `_expm` takes the
    whole stack of Omega at once, and the ordered product of the steps is
    taken pairwise, halving the stack with one batched matmul per level.
    `one_form` is `loop_one_form(loop, m)` when the caller has it already.
    The polar projection removes the roundoff that the product of many
    steps accumulates, which would otherwise reach the logarithm of a small
    loop.  Raises FloatingPointError when Omega is not finite or a step's
    i Omega has an eigenvalue of magnitude pi or more: such a step lies
    outside the Magnus convergence radius, and more samples are needed.
    The Frobenius norm of the hermitian i Omega bounds its eigenvalues, so
    the eigenvalues (`eigvalsh` on the stack) are taken only when some
    step's |Omega|_F is pi or more.
    """
    h, a = loop_one_form(loop, m) if one_form is None else one_form
    a1, a2 = a[:, 0], a[:, 1]
    hh = h[:, None, None]
    omega = -0.5 * hh * (a1 + a2) + (math.sqrt(3.0) / 12.0) * hh * hh * (a2 @ a1 - a1 @ a2)
    if not (
        np.isfinite(omega).all()
        and (
            np.linalg.norm(omega, axis=(1, 2)).max() < math.pi
            or np.abs(np.linalg.eigvalsh(1j * omega)).max() < math.pi
        )
    ):
        raise FloatingPointError(
            f"transport step outside the Magnus convergence radius at {loop.samples} samples"
        )
    steps = _expm(omega)
    while len(steps) > 1:
        n = len(steps)
        paired = steps[1::2] @ steps[0 : n - 1 : 2]
        steps = np.concatenate([paired, steps[n - 1 :]]) if n % 2 else paired
    uu, _, vh = np.linalg.svd(steps[0])
    return uu @ vh


def logm(w: np.ndarray) -> np.ndarray:
    """Principal logarithm of a unitary matrix W.

    Takes square roots W <- polar(W + I), the principal root of a unitary
    W without an eigenvalue at -1, until |W - I|_F <= 1/4; the Frobenius
    norm bounds every |lambda - 1| of the spectrum.  Then log W = 2^k 2
    artanh(X) after k roots, with the Cayley transform X = (W + I)^-1
    (W - I), whose norm tan(theta/2) is below 0.13, summed as a series.
    Raises FloatingPointError when W + I has a singular value below
    LOG_MIN_GAP (an eigenvalue at -1, where the principal branch is not
    defined) or LOG_MAX_ROOTS roots leave W away from I.
    """
    eye = np.eye(w.shape[0])
    roots = 0
    while np.linalg.norm(w - eye) > 0.25:
        if roots == LOG_MAX_ROOTS:
            raise FloatingPointError(
                f"matrix logarithm: W stays away from I after {roots} square roots"
            )
        uu, s, vh = np.linalg.svd(w + eye)
        if s[-1] < LOG_MIN_GAP:
            raise FloatingPointError(
                "matrix logarithm: W has an eigenvalue at -1, where no principal branch exists"
            )
        w = uu @ vh
        roots += 1
    x = np.linalg.solve(w + eye, w - eye)
    x2 = x @ x
    term, total = x, x.copy()
    for j in range(3, 64, 2):
        term = term @ x2
        total += term / j
        if np.abs(term).max() <= 1e-17 * np.abs(total).max():
            break
    return 2.0 ** (roots + 1) * total


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
    center: ParameterPoint, plane: str, eps: float, m: int
) -> Tuple[float, float, float]:
    """(residual, half_residual, ratio): log W against -eps^2 F(u, v) at eps
    and at eps/2, each square with CHECK_STEPS_PER_SIDE steps a side, and
    their ratio, which a third-order remainder puts near 8.
    """
    if not (1e-4 <= eps <= 1e-2):
        raise ValueError("eps out of the supported range")
    u, v = PLANE_TANGENTS[plane]
    f_uv = contract_two_form(curvature_closed(center, m), u, v)

    def residual(e: float) -> float:
        loop = square_loop(center, plane, e, samples_per_side=CHECK_STEPS_PER_SIDE)
        w = transport(loop, m)
        return float(np.abs(logm(w) + f_uv * e * e).max())

    r_full = residual(eps)
    r_half = residual(eps / 2.0)
    return r_full, r_half, (r_full / r_half if r_half > 0 else float("inf"))


def _based_closure(
    centers: Sequence[ParameterPoint],
    m: int,
    generators: Callable[[ParameterPoint], List[np.ndarray]],
) -> int:
    """Real dimension of the closure of `generators(c)` over the centers c
    (centers outer, generators inner), each conjugated back to the origin as
    w+ x w by the transport w along the straight segment from the origin to
    c in SEGMENT_STEPS steps."""
    els: List[np.ndarray] = []
    for c in centers:
        w = transport(polygon_loop([ParameterPoint(0.0, 0.0), c], SEGMENT_STEPS, closed=False), m)
        els.extend(w.conj().T @ x @ w for x in generators(c))
    return real_lie_closure(els)


def holonomy_algebra_dimension(centers: Sequence[ParameterPoint], m: int) -> int:
    """Real dimension of the algebra generated by based small-loop logs.

    Every center contributes six square loops of side ALGEBRA_EPS (one per
    coordinate plane, ALGEBRA_STEPS_PER_SIDE steps a side); each log W is
    conjugated back to the origin before entering the closure.  Raises
    ClosureNotStabilized when CLOSURE_ROUNDS commutator rounds keep finding
    new directions.
    """
    if len(centers) < 2:
        raise ValueError("need at least two centers")

    def loop_logs(c: ParameterPoint) -> List[np.ndarray]:
        return [
            logm(transport(square_loop(c, plane, ALGEBRA_EPS, ALGEBRA_STEPS_PER_SIDE), m))
            for plane in PLANE_TANGENTS
        ]

    return _based_closure(centers, m, loop_logs)


def transported_curvature_dimension(centers: Sequence[ParameterPoint], m: int) -> int:
    """Real dimension of the algebra generated by curvature transported to
    the origin (Ambrose-Singer).

    At every center the six plane contractions of the closed curvature are
    conjugated back to the origin along the segment that
    `holonomy_algebra_dimension` uses, then closed under commutators.  This
    needs no loop transport or matrix logarithm, so it is an independent
    check on the loop route.  Raises ClosureNotStabilized when
    CLOSURE_ROUNDS commutator rounds keep finding new directions.
    """
    if not centers:
        raise ValueError("need at least one center")

    return _based_closure(centers, m, lambda c: plane_contractions(c, m))
