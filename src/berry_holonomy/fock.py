"""Truncated Fock-space operators and their unitary exponentials.

Everything lives on the first D number levels as dense complex D x D
matrices.  The annihilator acts as a|n> = sqrt(n)|n-1>, the two-photon
generators are K+ = (a+)^2/2, K- = a^2/2, K3 = (a+ a + 1/2)/2, which close
under commutation as [K3, K+-] = +-K+-, [K+, K-] = -2 K3.

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

Every operator here is a plain complex ndarray; `make_operators` returns
them in a dict keyed by name.

Truncation corrupts only the top levels: commutation relations and the
disentangling identities below hold exactly on an interior block whose
depth depends on how far the displacement and squeeze mix levels downward
from the cut.  `bch_identity_report` measures both the interior and the
boundary deviation so the two effects are never conflated.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .reports import IdentityReport


@dataclass(frozen=True)
class TruncatedSpace:
    """The first `dim` Fock levels 0..dim-1."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension too small")


def make_operators(space: TruncatedSpace) -> Dict[str, np.ndarray]:
    """Ladder and two-photon generators on the truncated space, keyed
    a, a_dag, N, K_plus, K_minus, K_3."""
    D = space.dim
    a = np.zeros((D, D), dtype=complex)
    for n in range(1, D):
        a[n - 1, n] = math.sqrt(n)
    ad = a.conj().T
    n_op = ad @ a
    kp = 0.5 * (ad @ ad)
    km = 0.5 * (a @ a)
    k3 = 0.5 * (n_op + 0.5 * np.eye(D))
    return {"a": a, "a_dag": ad, "N": n_op, "K_plus": kp, "K_minus": km, "K_3": k3}


def exp_antihermitian(g: np.ndarray) -> np.ndarray:
    """e^G for anti-hermitian G, via the hermitian eigen-solve of iG.

    The result is unitary to roundoff for any norm of G, unlike generic
    scaling-and-squaring which loses unitarity for large generators.
    """
    G = np.asarray(g, dtype=complex)
    defect = np.abs(G + G.conj().T).max()
    if defect > 1e-12 * max(1.0, np.abs(G).max()):
        raise ValueError("generator is not anti-hermitian (defect %.3e)" % defect)
    w, V = np.linalg.eigh(1j * G)
    return (V * np.exp(-1j * w)) @ V.conj().T


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


def displacement(lam: complex, space: TruncatedSpace) -> np.ndarray:
    """exp(lam a+ - conj(lam) a)."""
    return apply_factors([(1, lam)], np.eye(space.dim))


def squeeze(mu: complex, space: TruncatedSpace) -> np.ndarray:
    """exp(mu K+ - conj(mu) K-)."""
    return apply_factors([(2, mu)], np.eye(space.dim))


def _nilpotent_expm(m: np.ndarray) -> np.ndarray:
    # exact for nilpotent input: the series terminates once a power vanishes
    D = m.shape[0]
    out = np.eye(D, dtype=complex)
    term = np.eye(D, dtype=complex)
    for k in range(1, D + 1):
        term = term @ m / k
        if not term.any():
            break
        out = out + term
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


def _split_deviation(diff: np.ndarray, b: int):
    D = diff.shape[0]
    cut = D - b
    interior = float(np.abs(diff[:cut, :cut]).max()) if cut > 0 else float("nan")
    mask = np.ones_like(diff, dtype=bool)
    mask[:cut, :cut] = False
    boundary = float(np.abs(diff[mask]).max()) if mask.any() else 0.0
    return interior, boundary


def bch_identity_report(lam: complex, mu: complex, space: TruncatedSpace) -> IdentityReport:
    """Check the two disentangling identities on the truncated space.

    Displacement: exp(lam a+ - conj(lam) a) against
    e^{-|lam|^2/2} e^{lam a+} e^{-conj(lam) a}.

    Squeeze: exp(mu K+ - conj(mu) K-) against
    e^{zeta K+} e^{log(1-|zeta|^2) K3} e^{-conj(zeta) K-} with
    zeta = mu tanh|mu| / |mu|.

    The right-hand sides are built from nilpotent and diagonal exponentials,
    which are *exact* projections of the untruncated operators, so the whole
    deviation on the interior block is attributable to the truncated
    left-hand exponential.
    """
    D = space.dim
    ops = make_operators(space)
    a, ad = ops["a"], ops["a_dag"]

    lhs_d = displacement(lam, space)
    rhs_d = (
        math.exp(-0.5 * abs(lam) ** 2)
        * _nilpotent_expm(lam * ad)
        @ _nilpotent_expm(-np.conj(lam) * a)
    )
    b_d = displacement_buffer(lam, D)
    int_d, bnd_d = _split_deviation(lhs_d - rhs_d, b_d)

    lhs_s = squeeze(mu, space)
    x = abs(mu)
    zeta = mu * math.tanh(x) / x if x > 0 else 0.0
    levels = np.arange(D)
    # K3 is diagonal with entries (n + 1/2)/2
    diag_factor = np.power(1.0 - abs(zeta) ** 2, 0.5 * (levels + 0.5))
    rhs_s = (
        _nilpotent_expm(zeta * ops["K_plus"])
        * diag_factor[np.newaxis, :]
    ) @ _nilpotent_expm(-np.conj(zeta) * ops["K_minus"])
    b_s = squeeze_buffer(mu, D)
    int_s, bnd_s = _split_deviation(lhs_s - rhs_s, b_s)

    return IdentityReport(
        interior_dev=max(int_d, int_s),
        boundary_dev=max(bnd_d, bnd_s),
        extras={
            "displacement": {"interior_dev": int_d, "boundary_dev": bnd_d, "buffer": b_d},
            "squeeze": {"interior_dev": int_s, "boundary_dev": bnd_s, "buffer": b_s},
        },
    )
