"""The displaced-squeezed isospectral family and its degenerate vacuum frame.

H0 = N(N-1)...(N-m+1) has an m-fold degenerate vacuum spanned by the first
m number states.  Conjugating by U(lam, mu) = displacement(lam) squeeze(mu)
produces an isospectral family whose vacuum frame V = U V0 (V0 the first m
coordinate columns) classifies the parameter point into the rank-m
projectors via P = V V+.  `unitary_u`, `vacuum_frame` and
`classifying_projector` take a ParameterPoint of arrays as a batch and
stack their matrices behind its shape, from one factor-engine call.

A multi-parameter extension, GeneralizedPoint, replaces U by an ordered
product of k exponentials exp{(lam_j (a+)^j - conj(lam_j) a^j)/j},
j = 1..k; the number of factors k is independent of the degeneracy m.  For
k = 2 the product reproduces U(lam_1, mu = lam_2) exactly, since the j = 2
generator equals lam_2 K+ - conj(lam_2) K-.  Either point type gives its
(j, z) `factors` for the engine and its `legs`, the names of the 2k
directions z_1..z_k, zbar_1..zbar_k, so the frames and the oracle take both.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .fock import TruncatedSpace, apply_factors


@dataclass(frozen=True)
class ParameterPoint:
    """A point (lam, mu); arrays of one shape make it a batch of points for
    the closed forms, the frames and the oracles."""

    lam: complex
    mu: complex

    # pairs of these, in order, are the curvature keys lm, llb, ..., lbmb
    legs = ("l", "m", "lb", "mb")

    @property
    def factors(self) -> List[Tuple[int, complex]]:
        return [(1, self.lam), (2, self.mu)]


@dataclass(frozen=True)
class GeneralizedPoint:
    lambdas: tuple

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(complex(z) for z in self.lambdas))

    @property
    def factors(self) -> List[Tuple[int, complex]]:
        return list(enumerate(self.lambdas, start=1))

    @property
    def legs(self) -> Tuple[str, ...]:
        """l1..lk, then l1b..lkb."""
        return tuple(f"l{j}{bar}" for bar in ("", "b") for j in range(1, len(self.lambdas) + 1))


Point = ParameterPoint | GeneralizedPoint


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


def unitary_u(p: Point, space: TruncatedSpace) -> np.ndarray:
    """The ordered product of p's factors, left to right: displacement(lam)
    then squeeze(mu) for a ParameterPoint."""
    return apply_factors(p.factors, np.eye(space.dim))


def vacuum_frame(p: Point, m: int, space: TruncatedSpace) -> np.ndarray:
    """First m columns of U(p); an orthonormal frame for the conjugated vacuum."""
    return apply_factors(p.factors, np.eye(space.dim)[:, :m])


def classifying_projector(p: Point, m: int, space: TruncatedSpace) -> np.ndarray:
    """P = V V+ for the vacuum frame V at p."""
    v = vacuum_frame(p, m, space)
    return v @ np.swapaxes(v.conj(), -1, -2)


def isospectral_check(p: ParameterPoint, m: int, space: TruncatedSpace) -> Tuple[float, int]:
    """(max_dev, kernel_dim): the lower half of the spectrum of U H0 U+
    against H0, and the size of the near-kernel.

    The conjugated Hamiltonian shares the spectrum of H0 by construction, so
    `max_dev` over the lowest D // 2 eigenvalues (always that many) isolates
    eigen-solver noise; the near-kernel must be at least m-dimensional.
    """
    D = space.dim
    h0 = hamiltonian_h0(m, space)
    u = unitary_u(p, space)
    h = u @ h0 @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    ev_h = np.sort(np.linalg.eigvalsh(h))
    ev_h0 = np.sort(np.diag(h0).real)
    count = D // 2
    max_dev = float(np.abs(ev_h[:count] - ev_h0[:count]).max())
    kernel = int(np.sum(np.abs(ev_h) < 1e-8))
    return max_dev, kernel
