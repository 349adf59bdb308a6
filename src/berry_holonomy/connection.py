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

All scalar profiles are even or odd in |mu| and analytic at mu = 0; below
|mu| = 1e-4 they switch to Taylor series to avoid 0/0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .family import ParameterPoint

SERIES_SWITCH = 1e-4


def sinhc(x: float) -> float:
    """sinh(x)/x, extended by its Taylor series near zero."""
    if x < SERIES_SWITCH:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return math.sinh(x) / x


def cosh_sinh_over(x: float) -> float:
    """cosh(x) sinh(x)/x near zero behaves as 1 + 2x^2/3 + 2x^4/15."""
    if x < SERIES_SWITCH:
        x2 = x * x
        return 1.0 + 2.0 * x2 / 3.0 + 2.0 * x2 * x2 / 15.0
    return math.cosh(x) * math.sinh(x) / x


def tanhc(x: float) -> float:
    """tanh(x)/x; series 1 - x^2/3 + 2x^4/15."""
    if x < SERIES_SWITCH:
        x2 = x * x
        return 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0
    return math.tanh(x) / x


def csm1_over_x2(x: float) -> float:
    """(cosh(x) sinh(x)/x - 1)/x^2; series 2/3 + 2x^2/15 + 4x^4/315.

    The subtraction loses ~8 digits at x = 1e-4 if evaluated directly, so
    the series branch is mandatory there; the absolute error it leaves is
    harmless because every use multiplies by mu^2 or conj(mu)^2.
    """
    if x < SERIES_SWITCH:
        x2 = x * x
        return 2.0 / 3.0 + 2.0 * x2 / 15.0 + 4.0 * x2 * x2 / 315.0
    return (math.cosh(x) * math.sinh(x) / x - 1.0) / (x * x)


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Scalar profiles of the mu-leg of the connection at a given mu."""

    alpha: complex
    beta: complex
    gamma: complex
    zeta: complex

    @staticmethod
    def at(mu: complex) -> "ConnectionCoeffs":
        x = abs(mu)
        s = sinhc(x)
        return ConnectionCoeffs(
            alpha=0.5 * np.conj(mu) * s * s,
            beta=0.25 * np.conj(mu) ** 2 * csm1_over_x2(x),
            gamma=0.25 * (1.0 + cosh_sinh_over(x)),
            zeta=mu * tanhc(x),
        )


@dataclass(frozen=True)
class MaurerCartanCoeffs:
    """Operator-basis expansion of U+ dU restricted to the vacuum block.

    c_id, c_adag, c_a multiply 1, a+, a in the lam-leg; c_adag2, c_k3, c_a2
    multiply (a+)^2/2, (a+a + aa+)/4... the same combinations that produce
    the tridiagonal/pentadiagonal matrices below.
    """

    c_id: complex
    c_adag: complex
    c_a: complex
    c_adag2: complex
    c_k3: complex
    c_a2: complex

    @staticmethod
    def at(p: ParameterPoint) -> "MaurerCartanCoeffs":
        x = abs(p.mu)
        cc = ConnectionCoeffs.at(p.mu)
        return MaurerCartanCoeffs(
            c_id=0.5 * np.conj(p.lam),
            c_adag=math.cosh(x),
            c_a=np.conj(p.mu) * sinhc(x),
            c_adag2=cc.gamma,
            c_k3=cc.alpha,
            c_a2=cc.beta,
        )


@dataclass
class ConnectionMatrices:
    a_lambda: np.ndarray
    a_mu: np.ndarray
    point: ParameterPoint
    m: int


def connection_closed(p: ParameterPoint, m: int) -> ConnectionMatrices:
    """Closed-form A_lam, A_mu as m x m matrices in the vacuum frame."""
    if m < 1:
        raise ValueError("m must be positive")
    mc = MaurerCartanCoeffs.at(p)
    a_lam = np.zeros((m, m), dtype=complex)
    a_mu = np.zeros((m, m), dtype=complex)
    for i in range(m):
        a_lam[i, i] = mc.c_id
        a_mu[i, i] = (0.5 + i) * mc.c_k3
    for i in range(m - 1):
        w = math.sqrt(i + 1.0)
        a_lam[i + 1, i] = w * mc.c_adag
        a_lam[i, i + 1] = w * mc.c_a
    for j in range(m - 2):
        w = math.sqrt((j + 1.0) * (j + 2.0))
        a_mu[j + 2, j] = w * mc.c_adag2
        a_mu[j, j + 2] = w * mc.c_a2
    return ConnectionMatrices(a_lambda=a_lam, a_mu=a_mu, point=p, m=m)


def contract_one_form(cm: ConnectionMatrices, dlam: complex, dmu: complex) -> np.ndarray:
    """A(v) for tangent v = (dlam, dmu); conjugate legs enter as -A+."""

    out = cm.a_lambda * dlam + cm.a_mu * dmu
    out = out - cm.a_lambda.conj().T * np.conj(dlam) - cm.a_mu.conj().T * np.conj(dmu)
    return out


class _VelocityLoop(Protocol):
    samples: int

    def point_at(self, t: float) -> ParameterPoint: ...

    def velocity_at(self, t: float) -> tuple: ...


def berry_phase_diagonal(loop, m: int) -> np.ndarray:
    """Abelian phases: Im of the diagonal of the contracted one-form,
    integrated around a closed loop by the periodic trapezoid rule.

    For a lam-circle of radius r at mu = 0 every diagonal entry gives
    2 pi r^2 regardless of m.
    """
    if not getattr(loop, "closed", True):
        raise ValueError("loop must be closed")
    n = loop.samples
    acc = np.zeros(m, dtype=float)
    for k in range(n):
        t = k / n
        p = loop.point_at(t)
        dlam, dmu = loop.velocity_at(t)
        a = contract_one_form(connection_closed(p, m), dlam, dmu)
        acc += np.diag(a).imag
    return acc / n
