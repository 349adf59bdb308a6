"""Reference implementations the tests compare the package against.

None of these is reached by a command: each restates, by a different route,
something the package computes.  Dense operator matrices and a direct
eigen-solve exponential check the factor engine; the Hamiltonian H0 and the
spectrum of U H0 U+ check the family's isospectrality; dA + A ^ A of a
connection field and the projector two-form P dP ^ dP check the curvature;
a closure in u(m) that commutes one pair at a time and ranks a per-matrix
row list checks the batched Lie closure; a Pade exponential with a batched
solve and a transport of (steps, m, m) stacks through numpy's matmul check
the solve-free transport.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from berry_holonomy.curvature import CurvatureForm, curvature_closed, leg_pairs
from berry_holonomy.family import ParameterPoint, classifying_projector, vacuum_frame
from berry_holonomy.fock import apply_factors
from berry_holonomy.holonomy import LoopPath, loop_one_form
from berry_holonomy.lie import CLOSURE_ROUNDS, RANK_RTOL, ClosureNotStabilized
from berry_holonomy.numeric import STEP, _dagger, wirtinger_derivative


def make_operators(D: int) -> Dict[str, np.ndarray]:
    """Ladder and two-photon generators on the first D levels, keyed
    a, a_dag, N, K_plus, K_minus, K_3."""
    a = np.zeros((D, D), dtype=complex)
    for n in range(1, D):
        a[n - 1, n] = math.sqrt(n)
    ad = a.conj().T
    n_op = ad @ a
    kp = 0.5 * (ad @ ad)
    km = 0.5 * (a @ a)
    k3 = 0.5 * (n_op + 0.5 * np.eye(D))
    return {"a": a, "a_dag": ad, "N": n_op, "K_plus": kp, "K_minus": km, "K_3": k3}


def exp_antihermitian(g: np.ndarray) -> np.ndarray:
    """e^G for anti-hermitian G, via the hermitian eigen-solve of iG.

    The result is unitary to roundoff for any norm of G, unlike generic
    scaling-and-squaring which loses unitarity for large generators.
    """
    G = np.asarray(g, dtype=complex)
    defect = np.abs(G + G.conj().T).max()
    if defect > 1e-12 * max(1.0, np.abs(G).max()):
        raise ValueError("generator is not anti-hermitian (defect %.3e)" % defect)
    w, V = np.linalg.eigh(1j * G)
    return (V * np.exp(-1j * w)) @ V.conj().T


def hamiltonian_h0(m: int, dim: int) -> np.ndarray:
    """Diagonal n(n-1)...(n-m+1); the first m entries vanish identically."""
    if m < 1:
        raise ValueError("m must be positive")
    if m >= dim:
        raise ValueError("m must be smaller than the space dimension")
    n = np.arange(dim, dtype=float)
    diag = np.ones(dim)
    for k in range(m):
        diag = diag * (n - k)
    return np.diag(diag).astype(complex)


def isospectral_check(p: ParameterPoint, m: int, D: int) -> Tuple[float, int]:
    """(max_dev, kernel_dim): the lower half of the spectrum of U H0 U+
    against H0, and the size of the near-kernel.

    The conjugated Hamiltonian shares the spectrum of H0 by construction, so
    `max_dev` over the lowest D // 2 eigenvalues (always that many) isolates
    eigen-solver noise; the near-kernel must be at least m-dimensional.
    """
    h0 = hamiltonian_h0(m, D)
    u = apply_factors(p.factors, np.eye(D))
    h = u @ h0 @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    ev_h = np.sort(np.linalg.eigvalsh(h))
    ev_h0 = np.sort(np.diag(h0).real)
    count = D // 2
    max_dev = float(np.abs(ev_h[:count] - ev_h0[:count]).max())
    kernel = int(np.sum(np.abs(ev_h) < 1e-8))
    return max_dev, kernel


def _along(p: ParameterPoint, i: int, f: Callable[[ParameterPoint], np.ndarray]):
    """z -> f at p with its i-th coordinate of (lam, mu) set to z."""
    coords = (p.lam, p.mu)
    return lambda z: f(ParameterPoint(*coords[:i], z, *coords[i + 1 :]))


def curvature_from_components(
    a_field: Callable[[ParameterPoint], Tuple[np.ndarray, np.ndarray]],
    p: ParameterPoint,
    h: float,
) -> CurvatureForm:
    """F = dA + A ^ A assembled from Wirtinger derivatives of any A-field:

      F_ab = d_a A_b - d_b A_a + [A_a, A_b]

    over every pair a < b of the legs.  `a_field` returns (A_lam, A_mu) at a
    point; the conjugate legs are the negated adjoints, A_zb = -A_z+, whose
    derivatives obey d_x (M+) = (d_xb M)+, with the conjugate-leg shift of
    `connection_numeric`.  The closed connection fed through here is a
    reference for `curvature_closed` that shares none of its scalar profiles.
    """
    # (A_lam, A_mu) behind the point's batch axes, so stencil points lead
    field = lambda q: np.stack(a_field(q), axis=-3)
    a = list(a_field(p))
    k = len(a)
    legs = [wirtinger_derivative(_along(p, i, field), z, h) for i, z in enumerate((p.lam, p.mu))]
    # d[x] = d_x (A_1, ..., A_k) for each leg x
    d = [d_z for d_z, _ in legs] + [d_zb for _, d_zb in legs]
    d_conj = d[k:] + d[:k]
    a += [-_dagger(a_z) for a_z in a]
    # da[x][y] = d_x A_y over all 2k legs y, with d_x A_yb = -(d_xb A_y)+
    da = [[*d_x, *(-_dagger(dc) for dc in dc_x)] for d_x, dc_x in zip(d, d_conj)]
    comp = {
        key: da[i][j] - da[j][i] + a[i] @ a[j] - a[j] @ a[i] for i, j, key in leg_pairs(p.legs)
    }
    return CurvatureForm(comp)


def global_form_check(
    p: ParameterPoint, m: int, dim: int, h: float = STEP
) -> Dict[str, Tuple[float, float]]:
    """The curvature of the projector against the frame-coordinate components.

    For P = V V+ the gauge-invariant two-form P dP ^ dP, pushed to the
    frame block as V+ (.) V, must reproduce the closed components; the
    lam-lamb and mu-mub wedges are compared.  Each key ("llb", "mmb") gets
    the frame-block deviation and the full-matrix one (the latter includes
    the orthogonal-complement block, which the frame form does not
    constrain, so it is reported but not expected to be small).
    """
    proj_at = lambda q: classifying_projector(q, m, dim)
    v = vacuum_frame(p, m, dim)
    proj = v @ v.conj().T
    form = curvature_closed(p, m)

    devs = {}
    for i, z0 in enumerate((p.lam, p.mu)):
        dp_z, dp_zb = wirtinger_derivative(_along(p, i, proj_at), z0, h)
        lhs = proj @ (dp_z @ dp_zb - dp_zb @ dp_z)
        # the wedge of the leg with its conjugate, two legs on
        key = p.legs[i] + p.legs[i + 2]
        rhs = v @ form.components[key] @ v.conj().T
        frame_dev = float(np.abs(v.conj().T @ (lhs - rhs) @ v).max())
        devs[key] = (frame_dev, float(np.abs(lhs - rhs).max()))
    return devs


# -- the pair-loop Lie closure: one commutator and one row per Python step --


def real_vector(mat: np.ndarray) -> np.ndarray:
    return np.concatenate([mat.real.ravel(), mat.imag.ravel()])


def numerical_rank(mats: Sequence[np.ndarray]) -> int:
    """Rank of the stacked real vectors, each normalized to unit max-abs so
    small commutators are not drowned by the singular-value threshold."""
    if not mats:
        return 0
    rows = [real_vector(mat) / max(np.abs(mat).max(), 1e-300) for mat in mats]
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def antihermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat - mat.conj().T) / 2


def real_lie_closure(gens: Sequence[np.ndarray]) -> int:
    """Dimension of the closure under commutators, inside u(m).

    Generators, commutators and compressed directions are each replaced by
    their anti-hermitian part.  Each round commutes all current pairs,
    appends the nonzero results, and recomputes the rank; stabilization
    means one full round added nothing.  Raises ClosureNotStabilized when
    CLOSURE_ROUNDS rounds do not stabilize.  The basis list is capped to
    keep the pairwise pass quadratic in a small number; the cap is far above
    m^2 for any m this library handles.
    """
    basis: List[np.ndarray] = [
        mat / np.abs(mat).max()
        for mat in map(antihermitian_part, gens)
        if np.abs(mat).max() > 1e-14
    ]
    dim = numerical_rank(basis)
    if dim == 0:
        return 0
    for _ in range(CLOSURE_ROUNDS):
        fresh = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                c = antihermitian_part(basis[i] @ basis[j] - basis[j] @ basis[i])
                if np.abs(c).max() > 1e-14:
                    fresh.append(c / np.abs(c).max())
        new_dim = numerical_rank(basis + fresh)
        if new_dim == dim:
            return dim
        basis = basis + fresh
        dim = new_dim
        if len(basis) > 400:
            basis = _compress(basis, dim)
    raise ClosureNotStabilized(dim, CLOSURE_ROUNDS)


def _compress(basis: List[np.ndarray], dim: int) -> List[np.ndarray]:
    """Replace a bloated spanning list by `dim` orthogonal combinations."""
    shape = basis[0].shape
    rows = np.array([real_vector(b) for b in basis])
    _, _, vh = np.linalg.svd(rows, full_matrices=False)
    half = shape[0] * shape[1]
    out = []
    for k in range(dim):
        v = vh[k]
        mat = antihermitian_part(v[:half].reshape(shape) + 1j * v[half:].reshape(shape))
        out.append(mat / np.abs(mat).max())
    return out


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


def pade_expm(a: np.ndarray) -> np.ndarray:
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


def matmul_transport(
    loop: LoopPath, m: int, *, one_form: Optional[Tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """Fourth-order Gauss-Magnus transport along the full path; one polar
    projection at the end.

    Every step is exp(Omega), Omega = -h/2 (A1 + A2) + sqrt(3) h^2/12
    [A2, A1] from the one-form at its two Gauss nodes; `pade_expm` takes the
    whole stack of Omega at once, and the ordered product of the steps is
    taken pairwise, halving the stack with one batched matmul per level.
    `one_form` is `loop_one_form(loop, m)` when the caller has it already;
    the loop is a single one, and its (2, m, m, steps) one-form is read as
    two (steps, m, m) stacks.
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
    a1, a2 = np.moveaxis(a, -1, 1)
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
    steps = pade_expm(omega)
    while len(steps) > 1:
        n = len(steps)
        paired = steps[1::2] @ steps[0 : n - 1 : 2]
        steps = np.concatenate([paired, steps[n - 1 :]]) if n % 2 else paired
    uu, _, vh = np.linalg.svd(steps[0])
    return uu @ vh
