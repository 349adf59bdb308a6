"""Closed-form curvature two-form of the vacuum-bundle connection.

The curvature F = dA + A ^ A decomposes over the six independent wedges
dz_a ^ dz_b of the real four-dimensional parameter space, one per pair
a < b of `ParameterPoint.legs` (`leg_pairs`, the oracle's rule too), keyed
lm, llb, lmb, mlb, mmb, lbmb; every table below follows from it.  Every
component is a combination of six fixed m x m matrices: the truncated
ladder pair E, F = E+, the top projector K = e_{m-1,m-1}, the two-level
projector L = K + e_{m-2,m-2}, and the products EK, KF.  The scalar weights
depend only on mu, and, as in `connection`, a batch of points gives
stacked (..., m, m) components.  Two structural identities hold exactly:
C_lamlamb = -m K, and the hermiticity pairings C_lamlamb+ = C_lamlamb,
C_mumub+ = C_mumub, C_lambmub = -C_lammu+, C_mulamb = C_lammub+.

The wedge square F ^ F collapses onto K and L alone:

  f^2 = (cosh|mu| sinh|mu| / |mu|) (m^2 (m-1)/4 L - m^2 (m+1)/2 K),

which `f_squared` returns and `f_squared_from_wedge` rebuilds from the six
components as a consistency oracle.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .connection import cosh_sinh_over, csm1_over_x2, sinhc
from .family import ParameterPoint, stack_points
from .lie import real_lie_closure


def leg_pairs(legs: Sequence[str]) -> List[Tuple[int, int, str]]:
    """(a, b, key) for every pair a < b of leg indices, in the order of the
    two-form's components; the key of dz_a ^ dz_b is legs[a] + legs[b]."""
    return [(a, b, legs[a] + legs[b]) for a, b in itertools.combinations(range(len(legs)), 2)]


# per leg of ParameterPoint.legs: its display name and its real tangent (dlam, dmu)
LEG_NAMES = {"l": "lambda", "m": "mu", "lb": "lambdabar", "mb": "mubar"}
LEG_TANGENTS = {"l": (1, 0), "m": (0, 1), "lb": (1j, 0), "mb": (0, 1j)}

_LEGS = ParameterPoint.legs
_PAIRS = leg_pairs(_LEGS)
COMPONENT_KEYS: Tuple[str, ...] = tuple(key for _, _, key in _PAIRS)
COMPONENT_NAMES: Dict[str, str] = {
    key: f"C_{LEG_NAMES[_LEGS[a]]}_{LEG_NAMES[_LEGS[b]]}" for a, b, key in _PAIRS
}
# Coordinate-plane tangent pairs (dlam, dmu) whose contraction isolates,
# up to the conjugate pairings, the corresponding component.
PLANE_TANGENTS: Dict[str, Tuple[tuple, tuple]] = {
    key: (LEG_TANGENTS[_LEGS[a]], LEG_TANGENTS[_LEGS[b]]) for a, b, key in _PAIRS
}
# (sign, P, Q) for the splits of the four legs into pairs P, Q with P holding the first
# leg: the i-th pair's complement is the (5 - i)-th, and sign the parity of P Q
_COMPLEMENTS = [
    ((-1) ** sum(x > y for x in (a, b) for y in (c, d)), p, q)
    for (a, b, p), (c, d, q) in zip(_PAIRS, _PAIRS[::-1])
    if a == 0
]


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
    """F(u, v) = sum over a < b of F_ab (u_a v_b - u_b v_a) for tangents u, v
    given as complex pairs (dlam, dmu), whose leg components are
    (dlam, dmu, conj dlam, conj dmu)."""
    u, v = [*u, *map(np.conj, u)], [*v, *map(np.conj, v)]
    return sum(form.components[key] * (u[a] * v[b] - u[b] * v[a]) for a, b, key in _PAIRS)


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


def _complement_sum(term: Callable[[str, str], object]):
    """sum of sign term(P, Q) over the complementary component pairs: the
    coefficient of dlam ^ dmu ^ dlamb ^ dmub in a wedge of two two-forms.
    Unary minus, unlike a product with -1, keeps every signed zero."""
    first, *rest = (term(p, q) if sign > 0 else -term(p, q) for sign, p, q in _COMPLEMENTS)
    return sum(rest, first)


def f_squared_from_wedge(form: CurvatureForm) -> np.ndarray:
    """F ^ F coefficient from the six components via anticommutators."""
    c = form.components
    return _complement_sum(lambda p, q: c[p] @ c[q] + c[q] @ c[p])


def chern_trace_forms(mu: complex, m: int) -> Dict[str, complex]:
    """Traces tr F^2 and (tr F)^2-style scalars entering second-character
    integrands; both collapse to multiples of cosh sinh / |mu|."""
    f2 = f_squared(mu, m)
    form = curvature_closed(ParameterPoint(0.0, mu), m)
    tr_f2 = complex(np.trace(f2))
    tr_each = {k: complex(np.trace(v)) for k, v in form.components.items()}
    tr_wedge_of_traces = _complement_sum(lambda p, q: 2.0 * (tr_each[p] * tr_each[q]))
    return {"tr_f_squared": tr_f2, "tr_f_wedge_tr_f": tr_wedge_of_traces}


def plane_contractions(p: ParameterPoint, m: int) -> np.ndarray:
    """F(u, v) of the closed curvature at p for each coordinate plane, in
    the order of PLANE_TANGENTS, stacked (..., 6, m, m) behind the batch."""
    form = curvature_closed(p, m)
    return np.stack([contract_two_form(form, u, v) for u, v in PLANE_TANGENTS.values()], axis=-3)


def curvature_span_dimension(points: Sequence[ParameterPoint], m: int) -> int:
    """Real Lie-algebra dimension generated by `plane_contractions` over the
    sample points (points outer, planes inner).  Raises ClosureNotStabilized
    when commutator rounds keep finding new directions."""
    if not points:
        raise ValueError("need at least one sample point")
    return real_lie_closure(plane_contractions(stack_points(points), m).reshape(-1, m, m))
