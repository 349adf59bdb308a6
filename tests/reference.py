"""Reference implementations the tests compare the package against.

None of these is reached by a command: each restates, by a different route,
something the package computes.  Dense operator matrices and a direct
eigen-solve exponential check the factor engine; the Hamiltonian H0 and the
spectrum of U H0 U+ check the family's isospectrality; dA + A ^ A of a
connection field and the projector two-form P dP ^ dP check the curvature.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

import numpy as np

from berry_holonomy.curvature import CurvatureForm, curvature_closed, leg_pairs
from berry_holonomy.family import ParameterPoint, classifying_projector, vacuum_frame
from berry_holonomy.fock import TruncatedSpace, apply_factors
from berry_holonomy.numeric import STEP, _dagger, wirtinger_derivative
from berry_holonomy.reports import IdentityReport


def make_operators(space: TruncatedSpace) -> Dict[str, np.ndarray]:
    """Ladder and two-photon generators on the truncated space, keyed
    a, a_dag, N, K_plus, K_minus, K_3."""
    D = space.dim
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


def hamiltonian_h0(m: int, space: TruncatedSpace) -> np.ndarray:
    """Diagonal n(n-1)...(n-m+1); the first m entries vanish identically."""
    if m < 1:
        raise ValueError("m must be positive")
    if m >= space.dim:
        raise ValueError("m must be smaller than the space dimension")
    n = np.arange(space.dim, dtype=float)
    diag = np.ones(space.dim)
    for k in range(m):
        diag = diag * (n - k)
    return np.diag(diag).astype(complex)


def isospectral_check(p: ParameterPoint, m: int, space: TruncatedSpace) -> Tuple[float, int]:
    """(max_dev, kernel_dim): the lower half of the spectrum of U H0 U+
    against H0, and the size of the near-kernel.

    The conjugated Hamiltonian shares the spectrum of H0 by construction, so
    `max_dev` over the lowest D // 2 eigenvalues (always that many) isolates
    eigen-solver noise; the near-kernel must be at least m-dimensional.
    """
    D = space.dim
    h0 = hamiltonian_h0(m, space)
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
    field = lambda q: np.stack(a_field(q))
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
    p: ParameterPoint, m: int, space: TruncatedSpace, h: float = STEP
) -> IdentityReport:
    """The curvature of the projector against the frame-coordinate components.

    For P = V V+ the gauge-invariant two-form P dP ^ dP, pushed to the
    frame block as V+ (.) V, must reproduce the closed components; the
    lam-lamb and mu-mub wedges are compared.  `interior_dev` is the
    frame-block deviation, `boundary_dev` the full-matrix one (the latter
    includes the orthogonal-complement block, which the frame form does not
    constrain, so it is reported but not expected to be small).
    """
    proj_at = lambda q: classifying_projector(q, m, space)
    v = vacuum_frame(p, m, space)
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

    return IdentityReport(
        interior_dev=max(d[0] for d in devs.values()),
        boundary_dev=max(d[1] for d in devs.values()),
        extras={f"{key}_frame_dev": d[0] for key, d in devs.items()},
    )
