"""Finite-difference oracle for the connection and curvature.

Everything here differentiates the vacuum frame V = U V0 directly (V0 the
first m number states), with no knowledge of the closed-form scalar
profiles; agreement between this module and the closed expressions is the
library's primary self-check.  Frames come from the factor engine
`fock.apply_factors` at O(D^2 m) each, so no unitary is ever formed.

The connection is A_a = V+ d_a V.  The curvature needs first derivatives
only: with P = V V+,

  F_ab = (d_abar V)+ (1 - P) d_b V - (d_bbar V)+ (1 - P) d_a V,

which is dA + A ^ A after V+ V = 1 is used to trade the A ^ A term for
the projector.  V and the eight stencil frames serve every component.

`_frame_legs` is the one frame-derivative path: it takes any factor list
of the engine, so the two-parameter family (factors (1, lam), (2, mu)) and
the generalized family (factors (j, lam_j)) differentiate the same way.

Wirtinger convention: for f of one complex variable,

  d_z f    = (d_x f - i d_y f) / 2
  d_zbar f = (d_x f + i d_y f) / 2,

with d_x, d_y central differences of step h.  `wirtinger_derivative` is the
only such stencil in the package; `curvature_from_components` (dA + A ^ A of
any connection field) and `derivative_identity_report` (scalar identities)
use it too.  Optional one-level Richardson
extrapolation combines steps h and h/2 as (4 D(h/2) - D(h)) / 3.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .connection import ConnectionMatrices, tanhc
from .curvature import CurvatureForm, curvature_closed
from .family import GeneralizedPoint, ParameterPoint, vacuum_frame
from .fock import TruncatedSpace, apply_factors
from .reports import IdentityReport


@dataclass(frozen=True)
class DifferentiationPlan:
    h: float = 1e-4
    richardson: bool = False

    def __post_init__(self):
        if not (1e-8 <= self.h <= 1e-2):
            raise ValueError("step size out of the supported range")


def wirtinger_derivative(
    f: Callable[[complex], np.ndarray], z0: complex, plan: DifferentiationPlan
) -> Tuple[np.ndarray, np.ndarray]:
    """(d_z f, d_zbar f) at z0 for matrix- or scalar-valued f."""

    def central(h: float):
        fx = (f(z0 + h) - f(z0 - h)) / (2.0 * h)
        fy = (f(z0 + 1j * h) - f(z0 - 1j * h)) / (2.0 * h)
        return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)

    if plan.richardson:
        coarse = central(plan.h)
        fine = central(plan.h / 2.0)
        return (
            (4.0 * fine[0] - coarse[0]) / 3.0,
            (4.0 * fine[1] - coarse[1]) / 3.0,
        )
    return central(plan.h)


@dataclass
class OracleConnection(ConnectionMatrices):
    estimated_error: float


@dataclass
class GeneralizedOracleConnection:
    a: List[np.ndarray]
    a_bar: List[np.ndarray]


def _resolve(m: int, space: TruncatedSpace, plan: Optional[DifferentiationPlan]):
    if m < 1:
        raise ValueError("m must be positive")
    if m >= space.dim:
        raise ValueError("m must be smaller than the space dimension")
    return plan or DifferentiationPlan()


def _frame_legs(
    factors: List[Tuple[int, complex]], m: int, space: TruncatedSpace, plan: DifferentiationPlan
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """The frame V = prod_k exp((z_k (a+)^j_k - conj(z_k) a^j_k) / j_k) V0
    for the (j, z) `factors`, and (d_z V, d_zbar V) for each factor's z."""
    v0 = np.eye(space.dim)[:, :m]
    legs = []
    for k, (j, z0) in enumerate(factors):
        frame = lambda z: apply_factors(factors[:k] + [(j, z)] + factors[k + 1 :], v0)
        legs.append(wirtinger_derivative(frame, z0, plan))
    return apply_factors(factors, v0), legs


def _two_parameter_oracle(
    p: ParameterPoint, m: int, space: TruncatedSpace, plan: DifferentiationPlan
) -> OracleConnection:
    v, legs = _frame_legs([(1, p.lam), (2, p.mu)], m, space, plan)
    vh = v.conj().T
    (a_l, a_lb), (a_m, a_mb) = [(vh @ d_z, vh @ d_zb) for d_z, d_zb in legs]
    # the conjugate legs must be the negated adjoints; the defect is a
    # direct read of the finite-difference error level
    err = max(
        float(np.abs(a_lb + a_l.conj().T).max()),
        float(np.abs(a_mb + a_m.conj().T).max()),
    )
    return OracleConnection(a_l, a_m, estimated_error=err)


def _generalized_oracle(
    p: GeneralizedPoint, m: int, space: TruncatedSpace, plan: DifferentiationPlan
) -> GeneralizedOracleConnection:
    v, legs = _frame_legs(list(enumerate(p.lambdas, start=1)), m, space, plan)
    vh = v.conj().T
    return GeneralizedOracleConnection(
        a=[vh @ d_z for d_z, _ in legs], a_bar=[vh @ d_zb for _, d_zb in legs]
    )


def connection_numeric(
    p: Union[ParameterPoint, GeneralizedPoint],
    m: int,
    space: TruncatedSpace,
    plan: Optional[DifferentiationPlan] = None,
):
    """Connection matrices A_a = V+ d_a V by direct differentiation of the frame."""
    plan = _resolve(m, space, plan)
    if isinstance(p, GeneralizedPoint):
        return _generalized_oracle(p, m, space, plan)
    return _two_parameter_oracle(p, m, space, plan)


# (a, b) legs of each component F_ab, and the conjugate of each leg
_COMPONENT_LEGS = {
    "lm": ("l", "m"),
    "llb": ("l", "lb"),
    "lmb": ("l", "mb"),
    "mlb": ("m", "lb"),
    "mmb": ("m", "mb"),
    "lbmb": ("lb", "mb"),
}
_CONJUGATE_LEG = {"l": "lb", "lb": "l", "m": "mb", "mb": "m"}


def curvature_numeric(
    p: ParameterPoint,
    m: int,
    space: TruncatedSpace,
    plan: Optional[DifferentiationPlan] = None,
) -> CurvatureForm:
    """Curvature from first derivatives of the frame (see the module note)."""
    plan = _resolve(m, space, plan)
    v, ((d_l, d_lb), (d_m, d_mb)) = _frame_legs([(1, p.lam), (2, p.mu)], m, space, plan)
    d = {"l": d_l, "lb": d_lb, "m": d_m, "mb": d_mb}
    off_frame = {leg: dv - v @ (v.conj().T @ dv) for leg, dv in d.items()}
    comp = {
        key: d[_CONJUGATE_LEG[a]].conj().T @ off_frame[b]
        - d[_CONJUGATE_LEG[b]].conj().T @ off_frame[a]
        for key, (a, b) in _COMPONENT_LEGS.items()
    }
    return CurvatureForm(comp)


def curvature_from_components(
    a_field: Callable[[ParameterPoint], Tuple[np.ndarray, np.ndarray]],
    p: ParameterPoint,
    h: float,
) -> CurvatureForm:
    """F = dA + A ^ A assembled from Wirtinger derivatives of any A-field.

    `a_field` returns (A_lam, A_mu) at a point; the conjugate legs are the
    negated adjoints, whose derivatives obey d_z (M+) = (d_zb M)+.  The
    closed connection fed through here is a reference for
    `curvature_closed` that shares none of its scalar profiles.
    """
    plan = DifferentiationPlan(h=h)
    a_lam, a_mu = a_field(p)
    field = lambda lam, mu: np.stack(a_field(ParameterPoint(lam, mu)))
    (dl_al, dl_am), (dlb_al, dlb_am) = wirtinger_derivative(
        lambda z: field(z, p.mu), p.lam, plan
    )
    (dm_al, dm_am), (dmb_al, dmb_am) = wirtinger_derivative(
        lambda z: field(p.lam, z), p.mu, plan
    )

    H = lambda M: M.conj().T
    comm = lambda X, Y: X @ Y - Y @ X

    comp = {
        "lm": dl_am - dm_al + comm(a_lam, a_mu),
        "llb": -(H(dlb_al) + dlb_al + comm(a_lam, H(a_lam))),
        "lmb": -(H(dlb_am) + dmb_al + comm(a_lam, H(a_mu))),
        "mlb": -(H(dmb_al) + dlb_am + comm(a_mu, H(a_lam))),
        "mmb": -(H(dmb_am) + dmb_am + comm(a_mu, H(a_mu))),
        "lbmb": -(H(dl_am) - H(dm_al) - comm(H(a_lam), H(a_mu))),
    }
    return CurvatureForm(comp)


def global_form_check(
    p: ParameterPoint,
    m: int,
    space: TruncatedSpace,
    plan: Optional[DifferentiationPlan] = None,
) -> IdentityReport:
    """The curvature of the projector against the frame-coordinate components.

    For P = V V+ the gauge-invariant two-form P dP ^ dP, pushed to the
    frame block as V+ (.) V, must reproduce the closed components; the
    lam-lamb and mu-mub wedges are compared.  `interior_dev` is the
    frame-block deviation, `boundary_dev` the full-matrix one (the latter
    includes the orthogonal-complement block, which the frame form does not
    constrain, so it is reported but not expected to be small).
    """
    plan = _resolve(m, space, plan)

    def proj_at(q: ParameterPoint) -> np.ndarray:
        v = vacuum_frame(q, m, space)
        return v @ v.conj().T

    v = vacuum_frame(p, m, space)
    proj = v @ v.conj().T
    form = curvature_closed(p, m)

    devs = {}
    for key, leg in (("llb", "lam"), ("mmb", "mu")):
        if leg == "lam":
            f = lambda z: proj_at(ParameterPoint(z, p.mu))
            z0 = p.lam
        else:
            f = lambda z: proj_at(ParameterPoint(p.lam, z))
            z0 = p.mu
        dp_z, dp_zb = wirtinger_derivative(f, z0, plan)
        lhs = proj @ (dp_z @ dp_zb - dp_zb @ dp_z)
        rhs = v @ form.components[key] @ v.conj().T
        frame_dev = float(np.abs(v.conj().T @ (lhs - rhs) @ v).max())
        full_dev = float(np.abs(lhs - rhs).max())
        devs[key] = (frame_dev, full_dev)

    interior = max(d[0] for d in devs.values())
    boundary = max(d[1] for d in devs.values())
    return IdentityReport(
        interior_dev=interior,
        boundary_dev=boundary,
        extras={
            "llb_frame_dev": devs["llb"][0],
            "mmb_frame_dev": devs["mmb"][0],
        },
    )


def convergence_report(
    p: ParameterPoint,
    m: int,
    dims: Sequence[int],
    plan: Optional[DifferentiationPlan] = None,
) -> List[float]:
    """Connection oracle across increasing truncations: the max-abs
    differences between consecutive dimensions, one fewer than `dims`."""
    if len(dims) < 2:
        raise ValueError("need at least two dimensions")
    if list(dims) != sorted(set(dims)):
        raise ValueError("dimensions must be strictly increasing")
    if dims[0] < 4 * m:
        raise ValueError("smallest dimension must be at least 4m")
    plan = plan or DifferentiationPlan()
    stacked = []
    for d in dims:
        oc = connection_numeric(p, m, TruncatedSpace(int(d)), plan)
        stacked.append(np.hstack([oc.a_lambda, oc.a_mu]))
    return [
        float(np.abs(stacked[i + 1] - stacked[i]).max()) for i in range(len(stacked) - 1)
    ]


def derivative_identity_report(z: complex, h: float = 1e-5) -> IdentityReport:
    """Finite-difference check of three Wirtinger-derivative identities of
    the scalar profile t(z) = z tanh|z| / |z|:

      d_z t           = (1 - tanh^2|z| + tanh|z|/|z|) / 2
      d_z log(1-t tb) = -conj(z) tanh|z| / |z|   with tb = conj(t)
      d_z conj(t)     = (conj(z)^2 / (2|z|^2)) (1 - tanh^2|z| - tanh|z|/|z|)

    Central differences in the real and imaginary directions build d_z;
    the reported deviations are absolute.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError("step size out of the supported range")
    if abs(z) < 10.0 * h:
        raise ValueError("too close to removable singularity for this step")

    def t_of(w: complex) -> complex:
        return w * tanhc(abs(w))

    plan = DifferentiationPlan(h=h)
    wirt = lambda f, w: wirtinger_derivative(f, w, plan)[0]

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
