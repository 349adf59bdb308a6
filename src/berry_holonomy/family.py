"""The displaced-squeezed isospectral family and its degenerate vacuum frame.

H0 = N(N-1)...(N-m+1) has an m-fold degenerate vacuum spanned by the first
m number states.  Conjugating by U(lam, mu) = D(lam) S(mu), the
displacement by lam followed by the squeeze by mu, produces an isospectral
family whose vacuum frame V = U V0 (V0 the first m coordinate columns)
classifies the parameter point into the rank-m projectors via P = V V+.
The full U is `fock.apply_factors(p.factors, identity)`; only the tests
form it.  `vacuum_frame` and `classifying_projector` take the truncation
as the plain number of levels `dim`, and a ParameterPoint of arrays as a
batch; they stack their matrices behind its shape, from one factor-engine
call.

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
from typing import List, Sequence, Tuple

import numpy as np

from .fock import apply_factors


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


def stack_points(points: Sequence[ParameterPoint]) -> ParameterPoint:
    """The points as one batch, of shape (len(points),)."""
    return ParameterPoint(
        np.array([p.lam for p in points], dtype=complex),
        np.array([p.mu for p in points], dtype=complex),
    )


def vacuum_frame(p: Point, m: int, dim: int) -> np.ndarray:
    """First m columns of U(p) on `dim` levels; an orthonormal frame for the
    conjugated vacuum."""
    return apply_factors(p.factors, np.eye(dim)[:, :m])


def classifying_projector(p: Point, m: int, dim: int) -> np.ndarray:
    """P = V V+ for the vacuum frame V at p."""
    v = vacuum_frame(p, m, dim)
    return v @ np.swapaxes(v.conj(), -1, -2)
