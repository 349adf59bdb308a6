"""Finite-difference oracle for the connection and curvature.

Everything here differentiates the vacuum frame V = U V0 directly (V0 the
first m number states), with no knowledge of the closed-form scalar
profiles; agreement between this module and the closed expressions is the
library's primary self-check.  Frames come from the factor engine
`fock.apply_factors`, so no unitary is ever formed.

`connection_numeric` is the one oracle, for either family: it takes a
point's (j, z) factors (see `family`), evaluates the frame and its
Wirtinger legs d_z V, d_zbar V per factor once (`_frame_legs`), and returns
from them the connection A_a = V+ d_a V per factor, its error estimate and
the curvature.  The curvature needs first derivatives only: with
P = V V+,

  F_ab = (d_abar V)+ (1 - P) d_b V - (d_bbar V)+ (1 - P) d_a V,

which is dA + A ^ A after V+ V = 1 is used to trade the A ^ A term for
the projector.  Like the closed forms, the oracle is array-valued: a
ParameterPoint of arrays is a batch, each stencil frame is one engine call
for all of it, and the matrices come back stacked with shape (..., m, m).

Wirtinger convention: for f of one complex variable,

  d_z f    = (d_x f - i d_y f) / 2
  d_zbar f = (d_x f + i d_y f) / 2,

with d_x, d_y central differences of step h (`STEP` unless `--step` says
otherwise).  `wirtinger_derivative` is the only such stencil in the package;
`derivative_identity_report` (scalar identities) uses it too.
"""
from __future__ import annotations

import cmath
import math
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

from .connection import tanhc
from .curvature import CurvatureForm, leg_pairs
from .family import Point
from .fock import TruncatedSpace, apply_factors
from .reports import IdentityReport


# also `--step`'s default; at 1e-4 the O(h^2) error breaks the m = 4 wedge gate
STEP = 2e-5


def wirtinger_derivative(
    f: Callable[[complex], np.ndarray], z0: complex, h: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(d_z f, d_zbar f) at z0 for matrix- or scalar-valued f."""
    fx = (f(z0 + h) - f(z0 - h)) / (2.0 * h)
    fy = (f(z0 + 1j * h) - f(z0 - 1j * h)) / (2.0 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


class OracleResult(NamedTuple):
    a: List[np.ndarray]  # A = V+ d_z V per factor, stacked (..., m, m)
    estimated_error: np.ndarray  # one per point of the batch
    curvature: CurvatureForm  # F_ab for every pair of legs


def _dagger(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(mat.conj(), -1, -2)


def _frame_legs(
    factors: List[Tuple[int, complex]], m: int, space: TruncatedSpace, h: float
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """The frame V = prod_k exp((z_k (a+)^j_k - conj(z_k) a^j_k) / j_k) V0
    for the (j, z) `factors`, and (d_z V, d_zbar V) for each factor's z;
    array z give stacked frames, as in the engine."""
    v0 = np.eye(space.dim)[:, :m]
    legs = []
    for k, (j, z0) in enumerate(factors):
        frame = lambda z: apply_factors(factors[:k] + [(j, z)] + factors[k + 1 :], v0)
        legs.append(wirtinger_derivative(frame, z0, h))
    return apply_factors(factors, v0), legs


def connection_numeric(p: Point, m: int, space: TruncatedSpace, h: float = STEP) -> OracleResult:
    """Per factor the connection A = V+ d_z V; per point `estimated_error`,
    the worst defect of the conjugate legs against the negated adjoints; and
    the curvature F_ab (see the module note) for each pair a < b of the legs
    z_1..z_k, zbar_1..zbar_k, keyed by `curvature.leg_pairs(p.legs)`, which
    for a ParameterPoint are `curvature.COMPONENT_KEYS` in order."""
    if m < 1:
        raise ValueError("m must be positive")
    if m >= space.dim:
        raise ValueError("m must be smaller than the space dimension")
    v, legs = _frame_legs(p.factors, m, space, h)
    k = len(legs)
    d = [d_z for d_z, _ in legs] + [d_zb for _, d_zb in legs]
    d_conj = d[k:] + d[:k]
    vh = _dagger(v)
    a = [vh @ dv for dv in d]
    defects = [np.abs(a_zb + _dagger(a_z)).max(axis=(-2, -1)) for a_z, a_zb in zip(a, a[k:])]
    err = np.max(defects, axis=0)
    off_frame = [dv - v @ a_dv for dv, a_dv in zip(d, a)]
    comp = {
        key: _dagger(d_conj[i]) @ off_frame[j] - _dagger(d_conj[j]) @ off_frame[i]
        for i, j, key in leg_pairs(p.legs)
    }
    return OracleResult(a[:k], err, CurvatureForm(comp))


def derivative_identity_report(z: complex) -> IdentityReport:
    """Finite-difference check of three Wirtinger-derivative identities of
    the scalar profile t(z) = z tanh|z| / |z|:

      d_z t           = (1 - tanh^2|z| + tanh|z|/|z|) / 2
      d_z log(1-t tb) = -conj(z) tanh|z| / |z|   with tb = conj(t)
      d_z conj(t)     = (conj(z)^2 / (2|z|^2)) (1 - tanh^2|z| - tanh|z|/|z|)

    Central differences of step 1e-5 in the real and imaginary directions
    build d_z; the reported deviations are absolute.
    """
    h = 1e-5
    if abs(z) < 10.0 * h:
        raise ValueError("too close to removable singularity for this step")

    def t_of(w: complex) -> complex:
        return w * tanhc(abs(w))

    wirt = lambda f, w: wirtinger_derivative(f, w, h)[0]

    x = abs(z)
    th = math.tanh(x)
    toverx = tanhc(x)

    d1_num = wirt(t_of, z)
    d1_ref = 0.5 * (1.0 - th * th + toverx)
    dev1 = abs(d1_num - d1_ref)

    def logf(w: complex) -> complex:
        tw = t_of(w)
        return cmath.log(1.0 - tw * np.conj(tw))

    d2_num = wirt(logf, z)
    d2_ref = -np.conj(z) * toverx
    dev2 = abs(d2_num - d2_ref)

    def tbar(w: complex) -> complex:
        return np.conj(t_of(w))

    d3_num = wirt(tbar, z)
    d3_ref = (np.conj(z) ** 2 / (2.0 * x * x)) * (1.0 - th * th - toverx)
    dev3 = abs(d3_num - d3_ref)

    worst = max(dev1, dev2, dev3)
    return IdentityReport(
        interior_dev=worst,
        boundary_dev=worst,
        extras={
            "z": [z.real, z.imag],
            "h": h,
            "identity_1_dev": dev1,
            "identity_2_dev": dev2,
            "identity_3_dev": dev3,
            "identity_2_rhs": [d2_ref.real, d2_ref.imag],
        },
    )
