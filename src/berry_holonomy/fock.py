"""Truncated Fock-space operators and their unitary exponentials.

Everything lives on the first D number levels as dense complex D x D
matrices.  The annihilator acts as a|n> = sqrt(n)|n-1>, the two-photon
generators are K+ = (a+)^2/2, K- = a^2/2, K3 = (a+ a + 1/2)/2, which close
under commutation as [K3, K+-] = +-K+-, [K+, K-] = -2 K3.  Their matrices
are never formed here; the tests build them (`tests/reference.py`) as the
direct reference for the engine below.

One factor engine, `apply_factors`, builds every unitary of the package:
ordered products of exp((z (a+)^j - conj(z) a^j) / j), where j = 1 is the
displacement and j = 2 the squeeze.  The diagonal R = exp(i arg(z) N / j)
satisfies R (a+)^j R+ = e^{i arg z} (a+)^j exactly on the truncated space,
so each factor is R exp(|z| G_j) R+ with G_j = ((a+)^j - a^j) / j.  One
eigen-solve of i G_j per (D, j) then serves every z, and a factor costs
O(D^2 k) on a D x k block, where a batch of points folds into k.  The
engine takes any factor list, so the oracle's one frame-derivative path
(`numeric._frame_legs`) serves both the two-parameter and the generalized
family.

Truncation corrupts only the top levels: commutation relations and the
disentangling identities below hold exactly on an interior block whose
depth depends on how far the displacement and squeeze mix levels downward
from the cut.  `bch_identity_report` measures both the interior and the
boundary deviation so the two effects are never conflated.  Its reference
side needs no series: exp(c (a+)^j) has closed-form entries, built in
O(D^2) by `_raising_exp` independently of the engine's eigen-solve.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .reports import IdentityReport


@dataclass(frozen=True)
class TruncatedSpace:
    """The first `dim` Fock levels 0..dim-1."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension too small")


@functools.lru_cache(maxsize=None)
def _generator_modes(dim: int, j: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w and eigenvectors V, V+ of i G_j on `dim` levels.

    (a+)^j maps |n> to sqrt((n+1)...(n+j)) |n+j> below the cut.  The arrays
    are shared by every caller, so they are read-only.
    """
    n = np.arange(max(dim - j, 0))
    weight = np.ones(n.size)
    for k in range(1, j + 1):
        weight = weight * (n + k)
    weight = np.sqrt(weight) / j
    g = np.zeros((dim, dim))
    g[n + j, n] = weight
    g[n, n + j] = -weight
    w, v = np.linalg.eigh(1j * g)
    vh = v.conj().T.copy()
    for arr in (w, v, vh):
        arr.setflags(write=False)
    return w, v, vh


def apply_factors(factors: Sequence[Tuple[int, complex]], x: np.ndarray) -> np.ndarray:
    """prod_k exp((z_k (a+)^j_k - conj(z_k) a^j_k) / j_k) @ x.

    `factors` lists (j, z) pairs left to right; the rows of x are the Fock
    levels, so x = identity gives the full unitary and x = its first m
    columns gives a vacuum frame.  The z broadcast to one batch shape S (a
    scalar z is the batch of shape ()); the result has shape S + x.shape.
    """
    x = np.asarray(x, dtype=complex)
    D = x.shape[0]
    batch = np.broadcast_shapes(*(np.shape(z) for _, z in factors))
    # y[:, p, c] is column c of x at point p
    y = np.broadcast_to(x.reshape(D, 1, -1), (D, math.prod(batch), x[0].size))
    levels = np.arange(D)[:, np.newaxis, np.newaxis]
    mul = lambda a, y: (a @ y.reshape(D, -1)).reshape(y.shape)
    for j, z in reversed(factors):
        z = np.broadcast_to(np.asarray(z, dtype=complex), batch).reshape(1, -1, 1)
        w, v, vh = _generator_modes(D, j)
        phase = np.exp(1j * (np.angle(z) / j) * levels)
        rot = np.exp(-1j * np.abs(z) * w[:, np.newaxis, np.newaxis])
        y = phase * mul(v, rot * mul(vh, phase.conj() * y))
    return np.moveaxis(y, 0, 1).reshape(batch + x.shape)


def _raising_exp(c: complex, j: int, D: int) -> np.ndarray:
    """exp(c (a+)^j) on D levels, exact: (a+)^j only raises, so the truncated
    series is the projection of the full one.

    Column k holds c^q/q! sqrt((k+jq)!/k!) at row k+jq, the running product
    of the series' term ratios c w / q with w = sqrt((k+jq)!/(k+j(q-1))!).
    """
    q = np.arange(1, (D - 1) // j + 1)[:, np.newaxis]
    k = np.arange(D)
    row = k + j * q  # row of term q in column k
    w = np.sqrt(np.prod(row[..., np.newaxis] - np.arange(j), axis=-1))
    terms = np.cumprod(np.where(row < D, c * w / q, 0), axis=0)
    qi, col = np.nonzero(row < D)
    out = np.eye(D, dtype=complex)
    out[row[qi, col], col] = terms[qi, col]
    return out


def _floor_buffer(lam: complex, mu: complex) -> int:
    return max(4, math.ceil(2 * abs(lam) ** 2 + 8 * abs(mu)))


def displacement_buffer(lam: complex, D: int) -> int:
    """Interior buffer for the displacement disentangling check.

    The truncated exponential is corrupted down to roughly 10|lam| levels
    below the cut at D = 64, scaling like sqrt(D); measured against
    reference runs at D in {64, 128, 256}.
    """
    b = math.ceil(5 + 10 * abs(lam) * math.sqrt(D / 64.0))
    return min(max(b, _floor_buffer(lam, 0)), D - 4)


def squeeze_buffer(mu: complex, D: int) -> int:
    """Interior buffer for the squeeze disentangling check.

    The squeeze mixes the top of the space downward with weight e^{-2|mu|}
    per level, so the corrupted band reaches level ~ D e^{-2|mu|} from the
    top; measured profile plus slack.
    """
    b = math.ceil(D * (1.0 - math.exp(-2 * abs(mu)))) + 6
    return min(max(b, _floor_buffer(0, mu)), D - 4)


def _split_deviation(diff: np.ndarray, b: int) -> Tuple[float, float]:
    # cut >= 4: the buffers are clipped to D - 4
    cut = diff.shape[0] - b
    dev = np.abs(diff)
    interior = float(dev[:cut, :cut].max())
    dev[:cut, :cut] = 0.0
    return interior, float(dev.max())


def bch_identity_report(lam: complex, mu: complex, space: TruncatedSpace) -> IdentityReport:
    """Check the two disentangling identities on the truncated space.

    Displacement: exp(lam a+ - conj(lam) a) against
    e^{-|lam|^2/2} e^{lam a+} e^{-conj(lam) a}.

    Squeeze: exp(mu K+ - conj(mu) K-) against
    e^{zeta K+} e^{log(1-|zeta|^2) K3} e^{-conj(zeta) K-} with
    zeta = mu tanh|mu| / |mu|.

    Each right-hand side is R(c) diag R(-conj c)^T with R(c) = exp(c (a+)^j)
    from `_raising_exp` (j = 1, c = lam; j = 2, c = zeta / 2) and diag the
    middle factor.  These are *exact* projections of the untruncated
    operators, so the whole deviation on the interior block is attributable
    to the truncated left-hand exponential.
    """
    D = space.dim
    x = abs(mu)
    zeta = mu * math.tanh(x) / x if x > 0 else 0.0
    # K3 is diagonal with entries (n + 1/2)/2
    squeeze_diag = np.power(1.0 - abs(zeta) ** 2, 0.5 * (np.arange(D) + 0.5))
    identities = (
        ("displacement", 1, lam, lam, math.exp(-0.5 * abs(lam) ** 2), displacement_buffer(lam, D)),
        ("squeeze", 2, mu, zeta / 2, squeeze_diag, squeeze_buffer(mu, D)),
    )
    extras = {}
    for name, j, z, c, diag, b in identities:
        lhs = apply_factors([(j, z)], np.eye(D))
        rhs = (_raising_exp(c, j, D) * diag) @ _raising_exp(-np.conj(c), j, D).T
        interior, boundary = _split_deviation(lhs - rhs, b)
        extras[name] = {"interior_dev": interior, "boundary_dev": boundary, "buffer": b}
    return IdentityReport(
        interior_dev=max(e["interior_dev"] for e in extras.values()),
        boundary_dev=max(e["boundary_dev"] for e in extras.values()),
        extras=extras,
    )
