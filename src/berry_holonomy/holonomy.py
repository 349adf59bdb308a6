"""Parallel transport and holonomy of the closed-form connection.

Transport solves W'(t) = -A(gamma(t); gamma'(t)) W(t) with the
fourth-order two-point Gauss-Magnus rule (Iserles & Norsett 1999; Blanes,
Casas, Oteo & Ros 2009) and restores exact unitarity by one polar
projection at the end.  The step exponentials, the Magnus radius guard and
the product of the steps are batched numpy operations on the stack of
steps, with no Python loop over the steps and no linear solve.  Stacks are
laid out (m, m, *batch, steps), and every product of two stacks goes
through `_stack_matmul`: an elementwise sum over k for small m, numpy's
stacked matmul above ELEMENTWISE_MAX_M.  The exponentials are truncated
Taylor series of the lowest degree whose range covers the stack's largest
1-norm, and the guard needs eigenvalues only when some step's Frobenius
norm reaches pi.
`logm` is the principal logarithm of every unitary matrix of a stack.
The module needs nothing beyond numpy.
`LoopPath.gauss_steps` cuts each of the loop's `pieces` equal smooth pieces
into round(samples / pieces) equal steps, whose nodes never lie on a corner.
A loop's `at` maps an array of t to the points and velocities there, so
`loop_one_form` evaluates the loop and the closed connection once at all
nodes, and `parallel_transport` takes W, the abelian diagonal phases and the
path length from that one evaluation.

A polygon whose vertices are ParameterPoints of arrays is a batch of
polygons, as a ParameterPoint of arrays is a batch of points: its points
carry the batch shape in front.  One `transport` call takes the whole
batch through the same integrator as a single loop, which is a batch of
shape (), and returns its W stacked behind the batch shape.  Short loops
gain most: a square of 16 steps a side pays numpy's per-operation
overhead on 64 steps, a batch of twelve such squares pays it once on 768.

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
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .connection import connection_closed, contract_one_form
from .curvature import PLANE_TANGENTS, contract_two_form, curvature_closed, plane_contractions
from .family import ParameterPoint, stack_points
from .lie import real_lie_closure

# steps per side of the squares whose logarithm `small_loop_check` compares
CHECK_STEPS_PER_SIDE = 384
# side and steps per side of the small loops of `holonomy_algebra_dimension`.
# |log W| is about ALGEBRA_EPS^2, so roundoff leaves the logs a relative
# floor of about 1e-12.  16 is the least power of two whose logs sit at that
# floor (against 1024 steps a side) at every m from 2 to 16; 8 does up to
# m = 12, and at m = 16 reads twice the floor.
ALGEBRA_EPS = 1e-2
ALGEBRA_STEPS_PER_SIDE = 16
# steps of the segment that carries each center's generators to the origin
SEGMENT_STEPS = 256
# least singular value of W + I that `logm` accepts: below it W has an
# eigenvalue at -1 and no principal log
LOG_MIN_GAP = 1e-8

# Bytes a loop step costs at the transport's peak, per m^2 and fixed: the
# tracemalloc peak of `parallel_transport` on a polygon, m = 1 to 8 at 2^14
# and 2^16 steps (a circle's is about 60 bytes a step less).  A loop whose
# steps need more than the physical memory is refused before any step
# array is built: overcommit would grant the arrays and the kernel would
# kill the process when it touched them.
_STEP_BYTES_PER_M2 = 128
_STEP_BYTES_FIXED = 160

# Largest m whose step stacks `_stack_matmul` multiplies entry by entry.
# numpy's stacked matmul pays about 0.4 us per matrix whatever m is; the
# elementwise sum pays per vector operation, m (2m - 1) of them over the
# steps, each growing with m.  Timed on whole transports (2 vCPUs, one
# OpenBLAS thread), the sum wins at m <= 4 on 256 to 4096 steps; at m = 5
# it wins or ties on 4096 steps and loses on 256 and 512; from m = 6 it
# loses throughout.
ELEMENTWISE_MAX_M = 4

# (k, theta_k): degrees of the truncated Taylor series of exp that
# Paterson-Stockmeyer evaluates with 1, 2, 3, 4, 5, 6 products, and the
# 1-norm up to which each has backward error below 2^-53 (Higham 2008,
# Functions of Matrices, Table A.3; Al-Mohy & Higham 2011, SIAM J. Sci.
# Comput. 33:488, Table 3.1)
_TAYLOR = ((2, 2.58e-8), (4, 3.40e-4), (6, 9.07e-3), (9, 8.96e-2), (12, 3.00e-1), (16, 7.81e-1))


@dataclass
class LoopPath:
    """A parameterized path in the (lam, mu) parameter space.

    `at` maps an array of t in [0, 1] to (point, (dlam, dmu)): a
    ParameterPoint whose lam and mu broadcast to the shape of t, and its
    t-derivative the same way.  A batch of loops (a polygon of array
    vertices) puts its batch shape in front of the shape of t; all its
    loops share one step grid.  [0, 1] is cut into `pieces` equal pieces
    that are smooth inside (the sides of a polygon); `samples` is the step
    count of one loop.
    """

    at: Callable[[np.ndarray], Tuple[ParameterPoint, Tuple[np.ndarray, np.ndarray]]]
    samples: int
    closed: bool = True
    pieces: int = 1

    @property
    def _piece_steps(self) -> int:
        return max(1, round(self.samples / self.pieces))

    def gauss_steps(self) -> Tuple[np.ndarray, np.ndarray]:
        """Step lengths h, shape (steps,), and the two Gauss-Legendre nodes
        t_mid -+ h/(2 sqrt 3) of every step, shape (steps, 2).

        Every piece [k/pieces, (k+1)/pieces] gets max(1, round(samples /
        pieces)) equal steps, so every node lies strictly inside its piece.
        """
        n = self._piece_steps
        ends = np.arange(self.pieces + 1) / self.pieces
        h = np.repeat(np.diff(ends) / n, n)
        mid = np.repeat(ends[:-1], n) + np.tile(np.arange(n) + 0.5, self.pieces) * h
        off = h / (2.0 * math.sqrt(3.0))
        return h, np.stack([mid - off, mid + off], axis=1)


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


def loop_one_form(loop: LoopPath, m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, a, speed) at the two Gauss nodes of every step of
    `loop.gauss_steps()`, from one evaluation of the loop and of the
    connection: step lengths h, shape (steps,), the contracted one-form
    A(gamma'), shape (2, m, m, *batch, steps), and |gamma'|, shape
    (*batch, steps, 2).  Every loop integral sums over these nodes.
    Raises MemoryError, naming the bytes, before any step array is built
    when the steps of one loop of the batch need more than the physical
    memory (`_STEP_BYTES_PER_M2`).

    The array is laid out as `_stack_matmul` reads it: up to
    ELEMENTWISE_MAX_M a contiguous copy with the steps last, above it a
    view of the contraction in which every step's matrix is contiguous.
    """
    steps = loop.pieces * loop._piece_steps
    need = steps * (_STEP_BYTES_PER_M2 * m * m + _STEP_BYTES_FIXED)
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise MemoryError(
            f"Unable to allocate {need} bytes for {steps} loop steps at m = {m}: "
            f"more than the {memory} bytes of physical memory"
        )
    h, nodes = loop.gauss_steps()
    point, velocity = loop.at(nodes)
    cm = connection_closed(point, m)
    a = np.moveaxis(contract_one_form(cm, *velocity), (-3, -2, -1), (0, 1, 2))
    a = np.ascontiguousarray(a) if m <= ELEMENTWISE_MAX_M else a
    return h, a, np.hypot(*map(np.abs, velocity))


def lambda_circle(
    radius: float, mu: complex = 0.0, samples: int = 2048, center: complex = 0.0
) -> LoopPath:
    """Circle of given radius in the lam plane at fixed mu."""
    if radius <= 0:
        raise ValueError("radius must be positive")

    def at(t) -> Tuple[ParameterPoint, Tuple[np.ndarray, complex]]:
        turn = np.exp(2j * np.pi * t)
        return ParameterPoint(center + radius * turn, mu), (2j * np.pi * radius * turn, 0.0)

    return LoopPath(at, samples)


def polygon_loop(
    vertices: Sequence[ParameterPoint], samples_per_side: int = 384, closed: bool = True
) -> LoopPath:
    """Piecewise-linear loop through the vertices, last edge returning to
    the first vertex when closed.  Vertices whose lam and mu are arrays
    make a batch of polygons: they broadcast to one batch shape (a scalar
    vertex is shared by every polygon), which goes in front of the shape
    of t."""
    verts = list(vertices)
    if len(verts) < 2:
        raise ValueError("need at least two vertices")
    pts = verts + [verts[0]] if closed else verts
    n = len(pts) - 1
    # z[0] and z[1]: lam and mu of every vertex, shape (*batch, vertices)
    shape = np.broadcast_shapes(*(np.shape(w) for p in pts for w in (p.lam, p.mu)))
    z = np.empty((2,) + shape + (len(pts),), dtype=complex)
    for k, p in enumerate(pts):
        z[0, ..., k], z[1, ..., k] = p.lam, p.mu
    velocities = n * (z[..., 1:] - z[..., :-1])  # constant along each side

    def at(t) -> Tuple[ParameterPoint, Tuple[np.ndarray, np.ndarray]]:
        # i: the side each t lies on, s: the fraction along it
        t = np.asarray(t, dtype=float)
        i = np.minimum((t * n).astype(int), n - 1)
        s = t * n - i
        point = ParameterPoint(
            *((1.0 - s) * np.take(w, i, axis=-1) + s * np.take(w, i + 1, axis=-1) for w in z)
        )
        return point, tuple(np.take(w, i, axis=-1) for w in velocities)

    return LoopPath(at, samples_per_side * n, closed, n)


def _squares(center: ParameterPoint, tangents, eps, samples_per_side: int) -> LoopPath:
    """Squares c, c + eps u, c + eps u + eps v, c + eps v for tangent pairs
    (u, v) of PLANE_TANGENTS, given as a (..., 2, 2) array of (dlam, dmu)
    rows.  The center's arrays, eps and the leading axes of `tangents`
    broadcast to the batch shape."""
    c = np.stack(np.broadcast_arrays(center.lam, center.mu), axis=-1)
    tangents = np.asarray(tangents, dtype=complex)
    eps = np.asarray(eps)[..., None]
    u, v = eps * tangents[..., 0, :], eps * tangents[..., 1, :]
    corners = [c, c + u, c + u + v, c + v]
    verts = [ParameterPoint(w[..., 0], w[..., 1]) for w in corners]
    return polygon_loop(verts, samples_per_side=samples_per_side, closed=True)


def square_loop(
    center: ParameterPoint, plane: str, eps: float, samples_per_side: int = 384
) -> LoopPath:
    """Coordinate square of side eps at `center` in one of the six planes
    named by the curvature component keys; a batch center or an array of
    sides makes a batch of squares."""
    if plane not in PLANE_TANGENTS:
        raise ValueError(f"unknown plane {plane!r}")
    return _squares(center, PLANE_TANGENTS[plane], eps, samples_per_side)


def _matrices_last(stack: np.ndarray) -> np.ndarray:
    """An (m, m, ...) stack as the (..., m, m) view numpy's linalg reads."""
    return np.moveaxis(stack, (0, 1), (-2, -1))


def _stack_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for every step of two (m, m, *batch, steps) stacks.

    Up to ELEMENTWISE_MAX_M row i is the sum over k of a[i, k] * b[k, :],
    each term one vector operation over the row, the batch and the steps,
    so no step pays numpy's per-matrix dispatch; such stacks are fastest
    with the steps contiguous.  Above it the steps go to numpy's stacked
    matmul, which wants each step's matrix contiguous instead.
    """
    m = a.shape[0]
    if m > ELEMENTWISE_MAX_M:
        return np.moveaxis(_matrices_last(a) @ _matrices_last(b), (-2, -1), (0, 1))
    out = np.empty(a.shape, dtype=complex)
    for i in range(m):
        row = out[i]
        np.multiply(a[i, 0], b[0], out=row)
        for k in range(1, m):
            row += a[i, k] * b[k]
    return out


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of every matrix of an (m, m, ...) stack by its truncated Taylor
    series, evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2:60, 1973).

    The degree k is chosen once for the stack: the lowest in _TAYLOR whose
    theta_k bounds the largest 1-norm.  Above the top theta each matrix is
    scaled by its own power of two, the least that brings its 1-norm below
    theta_16, and squared back as many times.  With s = ceil(sqrt(k)),
    which divides every k of the table, the series is a polynomial in a^s
    whose coefficients are polynomials of degree below s in a (the top one
    of degree s), summed by Horner's rule in a^s.
    """
    m = a.shape[0]
    norm = np.abs(a).sum(axis=0).max(axis=0)
    largest = norm.max(initial=0.0)
    for degree, theta in _TAYLOR:
        if largest <= theta:
            break
    squarings = np.zeros(norm.shape, dtype=int)
    if largest > theta:
        squarings = np.maximum(np.frexp(norm / theta)[1], 0)
        a = a * np.ldexp(1.0, -squarings)
    s = math.isqrt(degree - 1) + 1
    powers = [None, a]
    while len(powers) <= s:
        powers.append(_stack_matmul(powers[-1], a))
    p = powers[s] / math.factorial(degree)
    term = np.empty_like(p)  # reused: a fresh temporary per term costs more than the add
    for lo in range(degree - s, -1, -s):
        for j in range(1, s):
            p += np.multiply(powers[j], 1.0 / math.factorial(lo + j), out=term)
        for d in range(m):
            p[d, d] += 1.0 / math.factorial(lo)
        if lo:
            p = _stack_matmul(powers[s], p)
    for k in range(int(squarings.max(initial=0))):
        sel = squarings > k
        p[..., sel] = _stack_matmul(p[..., sel], p[..., sel])
    return p


def transport(
    loop: LoopPath, m: int, *, one_form: Optional[Tuple[np.ndarray, ...]] = None
) -> np.ndarray:
    """Fourth-order Gauss-Magnus transport along the full path; one polar
    projection at the end.  A batch of loops (a polygon of array vertices)
    gives its W stacked behind the batch shape, (*batch, m, m); a single
    loop gives one m x m W.

    Every step is exp(Omega), Omega = -h/2 (A1 + A2) + sqrt(3) h^2/12
    [A2, A1] from the one-form at its two Gauss nodes; `_expm` takes the
    whole (m, m, *batch, steps) stack of Omega at once, and the ordered
    product of the steps is taken pairwise, halving the steps axis with one
    `_stack_matmul` per level (the last step of an odd stack multiplies the
    last pair), so no two loops' steps are ever multiplied together.
    `one_form` is `loop_one_form(loop, m)` when the caller has it already
    (its speed is not read).  The polar projection removes the roundoff that
    the product of many steps accumulates, which would otherwise reach the
    logarithm of a small loop.  Raises FloatingPointError when Omega is not
    finite or a step's i Omega has an eigenvalue of magnitude pi or more:
    such a step lies outside the Magnus convergence radius, and more samples
    are needed.  The Frobenius norm of the hermitian i Omega bounds its
    eigenvalues, so the eigenvalues (`eigvalsh` on the stack) are taken only
    when some step's |Omega|_F is pi or more.
    """
    h, (a1, a2), _ = loop_one_form(loop, m) if one_form is None else one_form
    omega = _stack_matmul(a2, a1) - _stack_matmul(a1, a2)
    omega *= (math.sqrt(3.0) / 12.0) * h * h
    omega -= 0.5 * h * (a1 + a2)
    if not (
        np.isfinite(omega).all()
        and (
            np.linalg.norm(omega, axis=(0, 1)).max() < math.pi
            or np.abs(np.linalg.eigvalsh(1j * _matrices_last(omega))).max() < math.pi
        )
    ):
        raise FloatingPointError(
            f"transport step outside the Magnus convergence radius at {loop.samples} samples"
        )
    steps = _expm(omega)
    while steps.shape[-1] > 1:
        n = steps.shape[-1]
        paired = _stack_matmul(steps[..., 1::2], steps[..., 0 : n - 1 : 2])
        if n % 2:
            last = _matrices_last(paired[..., -1])
            last[...] = _matrices_last(steps[..., -1]) @ last
        steps = paired
    uu, _, vh = np.linalg.svd(_matrices_last(steps[..., 0]))
    return uu @ vh


def logm(w: np.ndarray) -> np.ndarray:
    """Principal logarithm of every unitary matrix W of a (..., m, m) stack.

    The Cayley transform X = (W + I)^-1 (W - I) maps each eigenvalue
    e^{i theta} of W to i tan(theta/2) and keeps the eigenvectors, so
    log W = -2i arctan(i X) (Higham 2008, Functions of Matrices, ch. 11).
    X is anti-hermitian only to roundoff, so arctan takes the hermitian
    part H of i X.  arctan is odd, so with the SVD H = U S V+ it is
    U arctan(S) V+, the same matrix as from the eigenpairs of H; the SVD
    keeps numpy's `eigh` to the Fock layer, where perfbench's tracer books
    every call of it.  The gap check, the solve and the SVD each take the
    whole stack.  Raises FloatingPointError when some W + I has a singular
    value below LOG_MIN_GAP: that W has an eigenvalue at -1, where the
    principal branch is not defined.
    """
    eye = np.eye(w.shape[-1])
    if (np.linalg.svd(w + eye, compute_uv=False)[..., -1] < LOG_MIN_GAP).any():
        raise FloatingPointError(
            "matrix logarithm: W has an eigenvalue at -1, where no principal branch exists"
        )
    x = np.linalg.solve(w + eye, w - eye)
    u, s, vh = np.linalg.svd(0.5j * (x - np.swapaxes(x.conj(), -1, -2)))
    return (u * (-2j * np.arctan(s))[..., None, :]) @ vh


def parallel_transport(loop: LoopPath, m: int) -> Tuple[np.ndarray, float | np.ndarray, np.ndarray]:
    """(w, path_length, diagonal_phases): the holonomy W of a closed loop,
    its path length, and the abelian phases Im oint A_ii, all summed over
    the nodes of one `loop_one_form` call; a batch of loops stacks them as
    (*batch, m, m), (*batch,) and (*batch, m).

    For a lam-circle of radius r at mu = 0 every phase is 2 pi r^2
    regardless of m; on any closed loop the phases sum to -arg det W
    (mod 2 pi) up to rounding."""
    if not loop.closed:
        raise ValueError("holonomy requires a closed loop")
    h, a, speed = one_form = loop_one_form(loop, m)
    return (
        transport(loop, m, one_form=one_form),
        0.5 * (speed.reshape(speed.shape[:-2] + (-1,)) @ np.repeat(h, 2)),
        0.5 * np.einsum("nii...s,s->...i", a, h).imag,
    )


def small_loop_check(
    center: ParameterPoint, plane: str, eps: float, m: int
) -> Tuple[float, float, float]:
    """(residual, half_residual, ratio): log W against -eps^2 F(u, v) at eps
    and at eps/2, the two squares one batch with CHECK_STEPS_PER_SIDE steps
    a side, and their ratio, which a third-order remainder puts near 8.
    """
    if not (1e-4 <= eps <= 1e-2):
        raise ValueError("eps out of the supported range")
    u, v = PLANE_TANGENTS[plane]
    f_uv = contract_two_form(curvature_closed(center, m), u, v)
    sides = np.array([eps, eps / 2.0])
    squares = square_loop(center, plane, sides, CHECK_STEPS_PER_SIDE)
    e = sides[:, None, None]
    r_full, r_half = map(float, np.abs(logm(transport(squares, m)) + f_uv * e * e).max(axis=(1, 2)))
    return r_full, r_half, (r_full / r_half if r_half > 0 else float("inf"))


def _based_closure(centers: ParameterPoint, m: int, generators: np.ndarray) -> int:
    """Real dimension of the closure of `generators`, a (centers, k, m, m)
    stack of k matrices at each center of the batch `centers` (centers
    outer, generators inner), each conjugated back to the origin as w+ x w
    by the transport w along the straight segment from the origin to its
    center in SEGMENT_STEPS steps; the segments are one polygon batch."""
    segments = polygon_loop([ParameterPoint(0.0, 0.0), centers], SEGMENT_STEPS, closed=False)
    w = transport(segments, m)[:, None]
    based = np.swapaxes(w.conj(), -1, -2) @ generators @ w
    return real_lie_closure(based.reshape(-1, m, m))


def holonomy_algebra_dimension(centers: Sequence[ParameterPoint], m: int) -> int:
    """Real dimension of the algebra generated by based small-loop logs.

    Every center contributes six square loops of side ALGEBRA_EPS (one per
    coordinate plane, ALGEBRA_STEPS_PER_SIDE steps a side), all transported
    as one batch; each log W is conjugated back to the origin before
    entering the closure.  Raises ClosureNotStabilized when CLOSURE_ROUNDS
    commutator rounds keep finding new directions.
    """
    if len(centers) < 2:
        raise ValueError("need at least two centers")
    c = stack_points(centers)
    squares = _squares(
        ParameterPoint(c.lam[:, None], c.mu[:, None]),
        list(PLANE_TANGENTS.values()),
        ALGEBRA_EPS,
        ALGEBRA_STEPS_PER_SIDE,
    )
    return _based_closure(c, m, logm(transport(squares, m)))


def transported_curvature_dimension(centers: Sequence[ParameterPoint], m: int) -> int:
    """Real dimension of the algebra generated by curvature transported to
    the origin (Ambrose-Singer).

    At every center the six plane contractions of the closed curvature are
    conjugated back to the origin along the segments that
    `holonomy_algebra_dimension` uses, then closed under commutators.  This
    needs no loop transport or matrix logarithm, so it is an independent
    check on the loop route.  Raises ClosureNotStabilized when
    CLOSURE_ROUNDS commutator rounds keep finding new directions.
    """
    if not centers:
        raise ValueError("need at least one center")
    c = stack_points(centers)
    return _based_closure(c, m, plane_contractions(c, m))
