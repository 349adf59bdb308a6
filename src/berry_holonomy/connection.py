"""Closed-form adiabatic connection on the degenerate vacuum bundle.

The connection one-form in the vacuum frame is A = V+ dV, expanded as
A = A_lam dlam + A_mu dmu (the conjugate components are minus the adjoints,
A_lamb = -A_lam+, A_mub = -A_mu+).  Both matrix coefficients are sparse in
the number basis:

  A_lam: conj(lam)/2 on the diagonal, cosh|mu| on the first subdiagonal
  (weighted by sqrt(i+1)) and conj(mu) sinh|mu|/|mu| on the first
  superdiagonal (same weight).

  A_mu: (1/2 + j) alpha on the diagonal, gamma sqrt((j+1)(j+2)) two below,
  beta sqrt((j+1)(j+2)) two above, with

    alpha = conj(mu) sinh^2|mu| / (2 |mu|^2)
    beta  = (conj(mu)^2 / 4) (cosh|mu| sinh|mu| / |mu| - 1) / |mu|^2
    gamma = (1 + cosh|mu| sinh|mu| / |mu|) / 4.

Every function here is array-valued: a ParameterPoint whose lam and mu are
arrays (of one shape, or broadcastable) is a batch of points, and the
matrices come back stacked with shape (..., m, m).  A scalar point gives
plain m x m matrices.

All scalar profiles are even or odd in |mu| and analytic at mu = 0; below
|mu| = 1e-4 they take a Taylor series instead, chosen per entry by
`np.where`.  The direct formula never sees those small arguments, so it
never divides 0/0.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .family import ParameterPoint

SERIES_SWITCH = 1e-4


def _profile(x, series: Callable, direct: Callable):
    """series(x^2) below SERIES_SWITCH, direct(x) elsewhere, entry by entry;
    a scalar x gives a numpy scalar."""
    x = np.asarray(x, dtype=float)
    small = x < SERIES_SWITCH
    return np.where(small, series(x * x), direct(np.where(small, 1.0, x)))[()]


def sinhc(x):
    """sinh(x)/x, extended by its Taylor series near zero."""
    return _profile(x, lambda x2: 1.0 + x2 / 6.0 + x2 * x2 / 120.0, lambda x: np.sinh(x) / x)


def cosh_sinh_over(x):
    """cosh(x) sinh(x)/x near zero behaves as 1 + 2x^2/3 + 2x^4/15."""
    return _profile(
        x,
        lambda x2: 1.0 + 2.0 * x2 / 3.0 + 2.0 * x2 * x2 / 15.0,
        lambda x: np.cosh(x) * np.sinh(x) / x,
    )


def tanhc(x):
    """tanh(x)/x; series 1 - x^2/3 + 2x^4/15."""
    return _profile(x, lambda x2: 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0, lambda x: np.tanh(x) / x)


def csm1_over_x2(x):
    """(cosh(x) sinh(x)/x - 1)/x^2; series 2/3 + 2x^2/15 + 4x^4/315.

    The subtraction loses ~8 digits at x = 1e-4 if evaluated directly, so
    the series branch is mandatory there; the absolute error it leaves is
    harmless because every use multiplies by mu^2 or conj(mu)^2.
    """
    return _profile(
        x,
        lambda x2: 2.0 / 3.0 + 2.0 * x2 / 15.0 + 4.0 * x2 * x2 / 315.0,
        lambda x: (np.cosh(x) * np.sinh(x) / x - 1.0) / (x * x),
    )


class ConnectionMatrices(NamedTuple):
    a_lambda: np.ndarray
    a_mu: np.ndarray


def connection_closed(p: ParameterPoint, m: int) -> ConnectionMatrices:
    """Closed-form A_lam, A_mu in the vacuum frame, shape (..., m, m) for a
    batch of points."""
    if m < 1:
        raise ValueError("m must be positive")
    lam, mu = np.broadcast_arrays(
        np.asarray(p.lam, dtype=complex), np.asarray(p.mu, dtype=complex)
    )
    x = np.abs(mu)
    s = sinhc(x)
    col = lambda z: np.asarray(z)[..., None]
    i = np.arange(m)
    w1 = np.sqrt(i[1:] * 1.0)
    w2 = np.sqrt((i[: m - 2] + 1.0) * (i[: m - 2] + 2.0))
    a_lam = np.zeros(lam.shape + (m, m), dtype=complex)
    a_mu = np.zeros(lam.shape + (m, m), dtype=complex)
    a_lam[..., i, i] = col(0.5 * np.conj(lam))
    a_lam[..., i[1:], i[:-1]] = w1 * col(np.cosh(x))
    a_lam[..., i[:-1], i[1:]] = w1 * col(np.conj(mu) * s)
    a_mu[..., i, i] = (0.5 + i) * col(0.5 * np.conj(mu) * s * s)
    a_mu[..., i[2:], i[:-2]] = w2 * col(0.25 * (1.0 + cosh_sinh_over(x)))
    a_mu[..., i[:-2], i[2:]] = w2 * col(0.25 * np.conj(mu) ** 2 * csm1_over_x2(x))
    return ConnectionMatrices(a_lam, a_mu)


def frame_moment(p: ParameterPoint, m: int, power: int) -> np.ndarray:
    """V+ N^power V = P_m O^power P_m (power >= 1), stacked (..., m, m), where
    O = (b+ + conj(lam))(b + lam) with b = S+ a S = cosh|mu| a + s a+, s =
    e^{i arg mu} sinh|mu|, is pentadiagonal; each O moves two levels at most,
    so m + 2 power levels make it exact, and at the origin O = N exactly."""
    c, s = np.cosh(np.abs(p.mu)), p.mu * sinhc(np.abs(p.mu))
    cell = lambda z: np.asarray(z)[..., None, None]
    n = np.arange(m + 2 * power)
    up = np.diag(np.sqrt(n[1:]), -1)  # a+
    low = cell(p.lam * c + np.conj(p.lam) * s) * up + cell(c * s) * (up @ up)
    o = cell(c * c) * np.diag(n) + cell(np.abs(s) ** 2) * np.diag(n + 1) + low
    o = o + cell(np.abs(p.lam) ** 2) * np.eye(n.size) + np.swapaxes(low.conj(), -1, -2)
    return np.linalg.matrix_power(o, power)[..., :m, :m]


def contract_one_form(cm: ConnectionMatrices, dlam, dmu) -> np.ndarray:
    """A(v) for tangents v = (dlam, dmu), one per point of the batch;
    conjugate legs enter as -A+, so A(v) = X - X+ with
    X = A_lam dlam + A_mu dmu."""
    cell = lambda z: np.asarray(z)[..., None, None]
    x = cm.a_lambda * cell(dlam) + cm.a_mu * cell(dmu)
    # one buffer, subtracted into in place: a second temporary costs more
    out = np.conjugate(np.swapaxes(x, -1, -2), out=np.empty_like(x))
    return np.subtract(x, out, out=out)
