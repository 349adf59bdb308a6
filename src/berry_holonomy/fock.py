"""Truncated Fock-space operators and their unitary exponentials.

Everything lives on the first D number levels as dense complex D x D
matrices; the truncation is that plain int, named D or `dim`.
The annihilator acts as a|n> = sqrt(n)|n-1>, the two-photon generators are
K+ = (a+)^2/2, K- = a^2/2, K3 = (a+ a + 1/2)/2, which close under
commutation as [K3, K+-] = +-K+-, [K+, K-] = -2 K3.  Their matrices are
never formed here; the tests build them (`tests/reference.py`) as the
direct reference for the engine below.

One factor helper, `factor`, builds every unitary of the package: the
factor exp((z (a+)^j - conj(z) a^j) / j), where j = 1 is the displacement
and j = 2 the squeeze, as a map on blocks of columns.  The diagonal
R = exp(i arg(z) N / j) satisfies R (a+)^j R+ = e^{i arg z} (a+)^j exactly
on the truncated space, so each factor is R exp(|z| G_j) R+ with
G_j = ((a+)^j - a^j) / j.  With P = diag(i^floor(n/j)), P+ (i G_j) P is
real symmetric, so one real eigen-solve per (D, j) serves every z, R P is
one diagonal phase, and a factor costs two real GEMMs on a D x k block,
where a batch of points folds into k.  `apply_factors` applies an ordered
product of factors to a matrix; the oracle (`numeric._frame_legs`) applies
them one at a time, so it can share suffix products between its stencil
points, for the two-parameter and the generalized family alike.

Truncation corrupts only the top levels: commutation relations and the
disentangling identities below hold exactly on an interior block whose
depth depends on how far the displacement and squeeze mix levels downward
from the cut.  `bch_identity_report` returns both the interior and the
boundary deviation of each identity so the two effects are never
conflated.  Its reference side needs no series: exp(c (a+)^j) has
closed-form entries, built in O(D^2) by `_raising_exp` independently of
the engine's eigen-solve.  The report takes arrays of points, as the rest
of the package does, and cuts each point at its own buffers.  Each identity
depends on its own parameter alone, so the report evaluates it once per
distinct value of that parameter and indexes the results back to the points.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Dict, Sequence, Tuple

import numpy as np


@functools.lru_cache(maxsize=None)
def _generator_modes(dim: int, j: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w, a real orthogonal Q and the diagonal p of P with
    i G_j = (P Q) diag(w) (P Q)+ on `dim` levels.

    (a+)^j maps |n> to sqrt((n+1)...(n+j)) |n+j> below the cut, so G_j only
    couples n to n + j, where floor(n/j) grows by one.  With
    P = diag(i^floor(n/j)), P+ (i G_j) P is therefore the real symmetric T
    with T[n+j, n] = T[n, n+j] = sqrt((n+1)...(n+j))/j, and its eigen-solve
    is real.  The arrays are shared by every caller, so they are read-only.
    The D x D table is allocated first, so a `dim` too large for it fails
    before any O(D) work.
    """
    t = np.zeros((dim, dim))
    n = np.arange(max(dim - j, 0))
    weight = np.ones(n.size)
    for k in range(1, j + 1):
        weight = weight * (n + k)
    weight = np.sqrt(weight) / j
    t[n + j, n] = weight
    t[n, n + j] = weight
    w, q = np.linalg.eigh(t)
    p = np.array([1, 1j, -1, -1j])[(np.arange(dim) // j) % 4]
    for arr in (w, q, p):
        arr.setflags(write=False)
    return w, q, p


def _cis(x: np.ndarray) -> np.ndarray:
    """exp(i x) for real x, bit for bit, from cos and sin (half the time of
    the complex exp)."""
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _real_matmul(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """q @ y over y's first axis, for real q and complex y: one real GEMM on
    the float view of y, half the flops of the complex product."""
    flat = np.ascontiguousarray(y).reshape(y.shape[0], -1)
    return (q @ flat.view(np.float64)).view(complex).reshape(y.shape)


def factor(j: int, z, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """y -> exp((z (a+)^j - conj(z) a^j) / j) y on `dim` levels.

    y holds the levels on its first axis and columns on its last; the axes
    between broadcast against z's shape, so y has z.ndim + 2 axes.  The
    factor is (R P) Q diag(exp(-i |z| w)) Q^T (R P)+ (see `_generator_modes`)
    with R = exp(i arg(z) N / j).  Both diagonals are formed here, once, so
    every y the map is applied to costs two real GEMMs and three products
    with a diagonal.
    """
    z = np.asarray(z, dtype=complex)[..., np.newaxis]
    w, q, p = _generator_modes(dim, j)
    axes = (dim,) + (1,) * z.ndim
    phase = p.reshape(axes) * _cis((np.angle(z) / j) * np.arange(dim).reshape(axes))
    rot = _cis(-np.abs(z) * w.reshape(axes))
    phase_h = phase.conj()

    def apply(y: np.ndarray) -> np.ndarray:
        y = _real_matmul(q.T, phase_h * y)
        y *= rot
        y = _real_matmul(q, y)
        y *= phase
        return y

    return apply


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
    y = x.reshape(D, 1, -1)
    for j, z in reversed(factors):
        y = factor(j, np.broadcast_to(z, batch).reshape(-1), D)(y)
    y = np.broadcast_to(y, (D, math.prod(batch), y.shape[-1]))
    return np.moveaxis(y, 0, 1).reshape(batch + x.shape)


def _raising_exp(c, j: int, D: int) -> np.ndarray:
    """exp(c (a+)^j) on D levels, exact: (a+)^j only raises, so the truncated
    series is the projection of the full one.  An array c gives the
    matrices stacked behind its shape.

    Column k holds c^q/q! sqrt((k+jq)!/k!) at row k+jq, the running product
    of the series' term ratios c w / q with w = sqrt((k+jq)!/(k+j(q-1))!).
    The ratios are formed part by part in real arithmetic as (c w) (1/q),
    which gives the bits of numpy's complex division by q + 0i (it, too,
    multiplies by 1/q) without the complex arithmetic over the whole table.
    """
    c = np.asarray(c, dtype=complex)[..., np.newaxis, np.newaxis]
    q = np.arange(1, (D - 1) // j + 1)[:, np.newaxis]
    k = np.arange(D)
    row = k + j * q  # row of term q in column k
    w = np.sqrt(np.prod(row[..., np.newaxis] - np.arange(j), axis=-1))
    ratio = np.empty(np.broadcast_shapes(c.shape, w.shape), dtype=complex)
    for part, c_part in ((ratio.real, c.real), (ratio.imag, c.imag)):
        np.multiply(c_part, w, out=part)
        part *= 1.0 / q
    terms = np.cumprod(np.where(row < D, ratio, 0), axis=-2)
    qi, col = np.nonzero(row < D)
    out = np.zeros(c.shape[:-2] + (D, D), dtype=complex)
    out[..., k, k] = 1.0
    out[..., row[qi, col], col] = terms[..., qi, col]
    return out


def displacement_buffer(lam: complex, D: int) -> int:
    """Interior buffer for the displacement disentangling check.

    The displacement moves amplitude about |lam| sqrt(D) levels near the
    cut.  Against the exponential on 4D levels (`scipy.linalg.expm`,
    |lam| <= 1, D from 16 to 256) the truncated one agrees to 1e-12 within
    ceil(6 + 13 |lam| sqrt(D / 64)) levels of the cut, so one more is taken.
    """
    b = math.ceil(7 + 13 * abs(lam) * math.sqrt(D / 64.0))
    return min(b, D - 4)


def squeeze_buffer(mu: complex, D: int) -> int:
    """Interior buffer for the squeeze disentangling check.

    The squeeze scales the number of quanta by up to e^{2|mu|}, but the
    truncation reaches far less deep than the classical band
    D (1 - e^{-2|mu|}).  Against the exponential on 4D levels
    (`scipy.linalg.expm`, |mu| <= 1, D from 16 to 256) the truncated one
    agrees to 1e-12 within
    ceil(9 + D (1 - e^{-1.05|mu|}) + 1.25 sqrt(D) (1 - e^{-32|mu|}))
    levels of the cut, at most 7 levels deeper than needed and 3 deeper on
    average.  Where the clip to D - 4 is shallower (D = 16 from |mu| = 0.18,
    D = 32 from 0.63, D = 48 from 0.97), the interior keeps some of the
    truncation.
    """
    x = abs(mu)
    b = math.ceil(
        9 + D * (1.0 - math.exp(-1.05 * x)) + 1.25 * math.sqrt(D) * (1.0 - math.exp(-32 * x))
    )
    return min(b, D - 4)


def _split_deviation(diff: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per stacked matrix of diff, the largest |entry| inside its leading
    (D - b) x (D - b) block and outside it; b >= 4 holds one buffer per
    matrix (the buffers are clipped to D - 4, so the inside is never empty)."""
    inside = np.arange(diff.shape[-1]) < (diff.shape[-1] - b)[:, np.newaxis]
    inside = inside[:, :, np.newaxis] & inside[:, np.newaxis, :]
    dev = np.abs(diff)
    worst = lambda d: d.max(axis=(-2, -1))
    return worst(np.where(inside, dev, 0.0)), worst(np.where(inside, 0.0, dev))


def _distinct(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of a complex array, flat, and for each entry of
    it the index of its value.  Values are told apart by their bits, so 0.0
    and -0.0, whose `np.angle` differ, stay apart."""
    z = z.ravel()
    _, first, slot = np.unique(
        z.view(np.int64).reshape(-1, 2), axis=0, return_index=True, return_inverse=True
    )
    return z[first], slot


def bch_identity_report(lam, mu, dim: int) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Check the two disentangling identities on the first `dim` levels.

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

    Returns {"displacement": (interior, boundary, buffer), "squeeze": ...}:
    per point the largest deviation inside and outside the leading
    (dim - buffer) block, and the buffer, each an array of the broadcast
    shape of lam and mu, so every point is cut at its own buffers.
    """
    lam, mu = np.broadcast_arrays(np.asarray(lam, dtype=complex), np.asarray(mu, dtype=complex))
    shape = lam.shape
    (lam, lam_slot), (mu, mu_slot) = _distinct(lam), _distinct(mu)
    x = np.abs(mu)
    zeta = np.divide(mu * np.tanh(x), x, out=np.zeros_like(mu), where=x > 0)
    # K3 is diagonal with entries (n + 1/2)/2
    squeeze_diag = np.power((1.0 - np.abs(zeta) ** 2)[:, np.newaxis], 0.5 * (np.arange(dim) + 0.5))
    displacement_diag = np.exp(-0.5 * np.abs(lam) ** 2)[:, np.newaxis]
    identities = (
        ("displacement", 1, lam, lam_slot, lam, displacement_diag, displacement_buffer),
        ("squeeze", 2, mu, mu_slot, zeta / 2, squeeze_diag, squeeze_buffer),
    )
    parts = {}
    for name, j, z, slot, c, diag, buffer in identities:
        b = np.array([buffer(v, dim) for v in z])
        lhs = apply_factors([(j, z)], np.eye(dim))
        # R(-conj c) = S conj(R(c)) S with S = diag((-1)^floor(n/j)): entry
        # (k + jq, k) carries (-conj c)^q = (-1)^q conj(c^q), and S S
        # gives it the sign (-1)^q, so one R serves both sides
        r = _raising_exp(c, j, dim)
        sign = (-1.0) ** (np.arange(dim) // j)
        rhs = ((r * (diag * sign)[:, np.newaxis, :]) @ np.swapaxes(r.conj(), -1, -2)) * sign
        parts[name] = tuple(a[slot].reshape(shape) for a in (*_split_deviation(lhs - rhs, b), b))
    return parts
