"""Closed-form curvature two-form of the vacuum-bundle connection.

The curvature F = dA + A ^ A decomposes over the six independent wedges of
the real four-dimensional parameter space, in the fixed order

  dlam^dmu, dlam^dlamb, dlam^dmub, dmu^dlamb, dmu^dmub, dlamb^dmub,

and every component is a combination of six fixed m x m matrices: the
truncated ladder pair E, F = E+, the top projector K = e_{m-1,m-1}, the
two-level projector L = K + e_{m-2,m-2}, and the products EK, KF.  The
scalar weights depend only on mu, and, as in `connection`, a batch of
points gives stacked (..., m, m) components.  Two structural identities
hold exactly:
C_lamlamb = -m K, and the hermiticity pairings C_lamlamb+ = C_lamlamb,
C_mumub+ = C_mumub, C_lambmub = -C_lammu+, C_mulamb = C_lammub+.

The wedge square F ^ F collapses onto K and L alone:

  f^2 = (cosh|mu| sinh|mu| / |mu|) (m^2 (m-1)/4 L - m^2 (m+1)/2 K),

which `f_squared` returns and `f_squared_from_wedge` rebuilds from the six
components as a consistency oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .connection import cosh_sinh_over, csm1_over_x2, sinhc
from .family import ParameterPoint
from .lie import real_lie_closure

COMPONENT_KEYS: Tuple[str, ...] = ("lm", "llb", "lmb", "mlb", "mmb", "lbmb")

COMPONENT_NAMES: Dict[str, str] = {
    "lm": "C_lambda_mu",
    "llb": "C_lambda_lambdabar",
    "lmb": "C_lambda_mubar",
    "mlb": "C_mu_lambdabar",
    "mmb": "C_mu_mubar",
    "lbmb": "C_lambdabar_mubar",
}

# Coordinate-plane tangent pairs (dlam, dmu) whose contraction isolates,
# up to the conjugate pairings, the corresponding component.
PLANE_TANGENTS: Dict[str, Tuple[tuple, tuple]] = {
    "lm": ((1, 0), (0, 1)),
    "llb": ((1, 0), (1j, 0)),
    "lmb": ((1, 0), (0, 1j)),
    "mlb": ((0, 1), (1j, 0)),
    "mmb": ((0, 1), (0, 1j)),
    "lbmb": ((1j, 0), (0, 1j)),
}


def _basis(m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ladder pair E, F = E+ and the projectors K, L."""
    E = np.zeros((m, m), dtype=complex)
    for i in range(m - 1):
        E[i, i + 1] = math.sqrt(i + 1.0)
    F = E.conj().T
    K = np.zeros((m, m), dtype=complex)
    K[m - 1, m - 1] = 1.0
    L = K.copy()
    if m >= 2:
        L[m - 2, m - 2] = 1.0
    return E, F, K, L


@dataclass
class CurvatureForm:
    components: Dict[str, np.ndarray]


def curvature_closed(p: ParameterPoint, m: int) -> CurvatureForm:
    """The six components at p, each of shape (..., m, m) for a batch of
    points."""
    if m < 1:
        raise ValueError("m must be positive")
    E, F, K, L = _basis(m)
    EK, KF = E @ K, K @ F
    lam, mu = np.broadcast_arrays(
        np.asarray(p.lam, dtype=complex), np.asarray(p.mu, dtype=complex)
    )
    x = np.abs(mu)
    c = np.cosh(x)
    cs_x = cosh_sinh_over(x)
    q = csm1_over_x2(x)
    s = sinhc(x)
    em1 = x * x * q  # cosh sinh / x - 1, safe at x = 0
    mb = np.conj(mu)
    f_mb2 = mb * mb * q
    f_mb = mb * s
    f_m = mu * s
    f_m2 = mu * mu * q
    cell = lambda z: np.asarray(z)[..., None, None]
    ch = cell(m * (c / 4.0) * (1.0 + cs_x))
    comp = {
        "lm": cell(m * (f_mb2 * c / 4.0)) * EK - cell(m * (f_mb / 4.0) * (1.0 + cs_x)) * KF,
        "llb": np.broadcast_to(-m * K, lam.shape + (m, m)).copy(),
        "lmb": -(ch * EK - cell(m * (f_m / 4.0) * em1) * KF),
        "mlb": -(cell(-m * (f_mb / 4.0) * em1) * EK + ch * KF),
        "mmb": -(cell((m / 2.0) * cs_x) * K + cell((m * (m - 1) / 4.0) * cs_x) * L),
        "lbmb": -(
            cell(-m * (f_m / 4.0) * (1.0 + cs_x)) * EK + cell(m * (f_m2 * c / 4.0)) * KF
        ),
    }
    return CurvatureForm(comp)


def contract_two_form(form: CurvatureForm, u: tuple, v: tuple) -> np.ndarray:
    """F(u, v) for tangents u, v given as complex pairs (dlam, dmu)."""
    a1, b1 = u
    a2, b2 = v
    vals = {
        "lm": a1 * b2 - a2 * b1,
        "llb": a1 * np.conj(a2) - a2 * np.conj(a1),
        "lmb": a1 * np.conj(b2) - a2 * np.conj(b1),
        "mlb": b1 * np.conj(a2) - b2 * np.conj(a1),
        "mmb": b1 * np.conj(b2) - b2 * np.conj(b1),
        "lbmb": np.conj(a1) * np.conj(b2) - np.conj(a2) * np.conj(b1),
    }
    out = np.zeros_like(form.components["llb"])
    for k in COMPONENT_KEYS:
        out = out + form.components[k] * vals[k]
    return out


def f_squared(mu: complex, m: int) -> np.ndarray:
    """Closed form of the F ^ F coefficient; K and L only, stacked
    (..., m, m) for an array of mu."""
    if m < 1:
        raise ValueError("m must be positive")
    _, _, K, L = _basis(m)
    # hypot is Python's abs(complex) bit for bit, so each point of an array
    # gets exactly its scalar value
    cs_x = cosh_sinh_over(np.hypot(np.real(mu), np.imag(mu)))
    return cs_x[..., None, None] * (m * m * (m - 1) / 4.0 * L - m * m * (m + 1) / 2.0 * K)


def f_squared_from_wedge(form: CurvatureForm) -> np.ndarray:
    """F ^ F coefficient from the six components via anticommutators."""
    c = form.components
    anti = lambda X, Y: X @ Y + Y @ X
    return anti(c["lm"], c["lbmb"]) - anti(c["llb"], c["mmb"]) + anti(c["lmb"], c["mlb"])


def chern_trace_forms(mu: complex, m: int) -> Dict[str, complex]:
    """Traces tr F^2 and (tr F)^2-style scalars entering second-character
    integrands; both collapse to multiples of cosh sinh / |mu|."""
    f2 = f_squared(mu, m)
    form = curvature_closed(ParameterPoint(0.0, mu), m)
    tr_f2 = complex(np.trace(f2))
    tr_each = {k: complex(np.trace(v)) for k, v in form.components.items()}
    tr_wedge_of_traces = (
        2.0 * (tr_each["lm"] * tr_each["lbmb"])
        - 2.0 * (tr_each["llb"] * tr_each["mmb"])
        + 2.0 * (tr_each["lmb"] * tr_each["mlb"])
    )
    return {"tr_f_squared": tr_f2, "tr_f_wedge_tr_f": tr_wedge_of_traces}


def curvature_span_dimension(points: Sequence[ParameterPoint], m: int) -> int:
    """Real Lie-algebra dimension generated by plane contractions of the
    closed curvature over the sample points.  Raises ClosureNotStabilized
    when commutator rounds keep finding new directions."""
    if not points:
        raise ValueError("need at least one sample point")
    els = []
    for p in points:
        form = curvature_closed(p, m)
        for u, v in PLANE_TANGENTS.values():
            els.append(contract_two_form(form, u, v))
    return real_lie_closure(els)
