"""Finite-difference oracle for the connection and curvature.

Everything here differentiates the vacuum frame V = U V0 directly (V0 the
first m number states), with no knowledge of the closed-form scalar
profiles; agreement between this module and the closed expressions is the
library's primary self-check.  Frames come from the factor helper
`fock.factor`, so no unitary is ever formed.

`connection_numeric` is the one oracle, for either family: it takes a
point, whose (j, z) factors it reads (see `family`), and the truncation as
the plain number of Fock levels `dim`; it evaluates the frame V and its
Wirtinger legs d_z V, d_zbar V per factor once (`_frame_legs`), and returns
V (its moments V+ N^k V are `connection.frame_moment`) and from the legs
A_a = V+ d_a V per factor, its error estimate and the curvature.  The legs
share work: the suffix products of the frame are formed once, each factor's
four stencil points act on its suffix only, and the prefix, which does not
depend on that factor's z, is applied to the two derivatives after the
stencil.  The curvature needs first derivatives only: with P = V V+,

  F_ab = (d_abar V)+ (1 - P) d_b V - (d_bbar V)+ (1 - P) d_a V,

which is dA + A ^ A after V+ V = 1 is used to trade the A ^ A term for
the projector.  Like the closed forms, the oracle is array-valued: a
ParameterPoint of arrays is a batch, and the matrices come back stacked
with shape (..., m, m).

Wirtinger convention: for f of one complex variable,

  d_z f    = (d_x f - i d_y f) / 2
  d_zbar f = (d_x f + i d_y f) / 2,

with d_x, d_y central differences of step h (`STEP` unless `--step` says
otherwise).  `wirtinger_derivative` is the only such stencil in the package;
it evaluates its function once, on the four stencil points stacked on a
leading axis, and `derivative_identity_report` (scalar identities, its
three deviations returned as a tuple) uses it the same way.
"""
from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

from .connection import tanhc
from .curvature import CurvatureForm, leg_pairs
from .family import Point
from .fock import factor


# also `--step`'s default; at 1e-4 the O(h^2) error breaks the m = 4 wedge gate
STEP = 2e-5


# the stencil points z0 + h * STENCIL: +x, -x, +y, -y
STENCIL = np.array([1, -1, 1j, -1j])


def wirtinger_derivative(
    f: Callable[[np.ndarray], np.ndarray], z0, h: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(d_z f, d_zbar f) at z0 (a scalar or an array) for matrix- or
    scalar-valued f.  f is called once, on the four stencil points stacked
    on a leading axis, and returns its values stacked the same way."""
    z0 = np.asarray(z0)
    fp = f(z0 + h * STENCIL.reshape((4,) + (1,) * z0.ndim))
    fx = (fp[0] - fp[1]) / (2.0 * h)
    fy = (fp[2] - fp[3]) / (2.0 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


class OracleResult(NamedTuple):
    a: List[np.ndarray]  # A = V+ d_z V per factor, stacked (..., m, m)
    estimated_error: np.ndarray  # one per point of the batch
    curvature: CurvatureForm  # F_ab for every pair of legs
    frame: np.ndarray  # V on the dim levels, stacked (..., dim, m)


def _dagger(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(mat.conj(), -1, -2)


def _frame_legs(
    factors: List[Tuple[int, complex]], m: int, dim: int, h: float
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """The frame V = F_0 ... F_{k-1} V0 with F_i = exp((z_i (a+)^j_i -
    conj(z_i) a^j_i) / j_i) for the k (j, z) `factors`, and
    (d_z V, d_zbar V) for each factor's z; array z give stacked frames, as
    in `fock.apply_factors`.

    The suffixes S_i = F_i ... F_{k-1} V0 (S_k = V0) are formed once.  Only
    F_i depends on z_i, so d V = F_0 ... F_{i-1} d(F_i S_{i+1}): the stencil
    of factor i acts on S_{i+1} alone, and the prefix, built from the base
    factors, acts on the two derivatives only.  Arrays hold the levels
    first, then the stencil points (or the pair d_z, d_zbar), the batch and
    the m columns."""
    zs = np.broadcast_arrays(*(np.asarray(z, dtype=complex) for _, z in factors))
    batch = zs[0].shape
    zs = [z.reshape(-1) for z in zs]
    base = [factor(j, z[np.newaxis], dim) for (j, _), z in zip(factors, zs)]
    suffix = [np.eye(dim, m, dtype=complex)[:, np.newaxis, np.newaxis]]
    for f in reversed(base):
        suffix.append(f(suffix[-1]))
    suffix.reverse()  # suffix[i] = S_i, suffix[0] = V
    stacked = lambda y: np.ascontiguousarray(np.moveaxis(y, 0, -2)).reshape(batch + (dim, m))
    legs = []
    for i, ((j, _), z0) in enumerate(zip(factors, zs)):
        points = lambda z: np.moveaxis(factor(j, z, dim)(suffix[i + 1]), 1, 0)
        d = np.stack(wirtinger_derivative(points, z0, h), axis=1)
        for f in reversed(base[:i]):
            d = f(d)
        legs.append((stacked(d[:, 0]), stacked(d[:, 1])))
    return stacked(suffix[0][:, 0]), legs


def connection_numeric(p: Point, m: int, dim: int, h: float = STEP) -> OracleResult:
    """Per factor the connection A = V+ d_z V; per point `estimated_error`,
    the worst defect of the conjugate legs against the negated adjoints; the
    curvature F_ab (see the module note) for each pair a < b of the legs
    z_1..z_k, zbar_1..zbar_k, keyed by `curvature.leg_pairs(p.legs)`, which
    for a ParameterPoint are `curvature.COMPONENT_KEYS` in order; and V."""
    if m < 1:
        raise ValueError("m must be positive")
    if m >= dim:
        raise ValueError("m must be smaller than the space dimension")
    v, legs = _frame_legs(p.factors, m, dim, h)
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
    return OracleResult(a[:k], err, CurvatureForm(comp), v)


def derivative_identity_report(z: complex) -> Tuple[float, float, float]:
    """Finite-difference check of three Wirtinger-derivative identities of
    the scalar profile t(z) = z tanh|z| / |z|:

      d_z t           = (1 - tanh^2|z| + tanh|z|/|z|) / 2
      d_z log(1-t tb) = -conj(z) tanh|z| / |z|   with tb = conj(t)
      d_z conj(t)     = (conj(z)^2 / (2|z|^2)) (1 - tanh^2|z| - tanh|z|/|z|)

    Central differences of step 1e-5 in the real and imaginary directions
    build d_z; the three absolute deviations come back in this order.
    """
    h = 1e-5
    if abs(z) < 10.0 * h:
        raise ValueError("too close to removable singularity for this step")

    def t_of(w: np.ndarray) -> np.ndarray:
        return w * tanhc(abs(w))

    x = abs(z)
    th = math.tanh(x)
    toverx = tanhc(x)
    # (function of w, its closed-form d_z at z), one row per identity
    identities = (
        (t_of, 0.5 * (1.0 - th * th + toverx)),
        (lambda w: np.log(1.0 - t_of(w) * np.conj(t_of(w))), -np.conj(z) * toverx),
        (lambda w: np.conj(t_of(w)), (np.conj(z) ** 2 / (2.0 * x * x)) * (1.0 - th * th - toverx)),
    )
    return tuple(abs(wirtinger_derivative(f, z, h)[0] - ref) for f, ref in identities)
