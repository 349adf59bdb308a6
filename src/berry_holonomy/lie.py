"""Real Lie-algebra closure of a set of anti-hermitian matrices.

Matrices over C are treated as vectors over R (real and imaginary parts
concatenated), so the reported dimension is the real dimension of the
smallest real Lie algebra containing the generators.  For generators inside
u(m) the answer is bounded by m^2.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

# singular values below RANK_RTOL times the largest do not count as directions
RANK_RTOL = 1e-9
# commutator rounds every closure allows before ClosureNotStabilized
CLOSURE_ROUNDS = 6


class ClosureNotStabilized(RuntimeError):
    """Raised when commutator rounds keep producing new directions.

    `partial_dimension` carries the last rank seen, so callers can report
    "at least this much" honestly.
    """

    def __init__(self, partial_dimension: int, rounds: int):
        super().__init__(
            f"closure rank still growing after {rounds} rounds "
            f"(partial dimension {partial_dimension})"
        )
        self.partial_dimension = partial_dimension
        self.rounds = rounds


def real_vector(mat: np.ndarray) -> np.ndarray:
    return np.concatenate([mat.real.ravel(), mat.imag.ravel()])


def numerical_rank(mats: Sequence[np.ndarray]) -> int:
    """Rank of the stacked real vectors, each normalized to unit max-abs so
    small commutators are not drowned by the singular-value threshold."""
    if not mats:
        return 0
    rows = [real_vector(mat) / max(np.abs(mat).max(), 1e-300) for mat in mats]
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def real_lie_closure(gens: Sequence[np.ndarray]) -> int:
    """Dimension of the closure under commutators.

    Each round commutes all current pairs, appends the nonzero results, and
    recomputes the rank; stabilization means one full round added nothing.
    Raises ClosureNotStabilized when CLOSURE_ROUNDS rounds do not stabilize.
    The basis list is capped to keep the pairwise pass quadratic in a small
    number; the cap is far above m^2 for any m this library handles.
    """
    basis: List[np.ndarray] = [
        mat / np.abs(mat).max() for mat in gens if np.abs(mat).max() > 1e-14
    ]
    dim = numerical_rank(basis)
    if dim == 0:
        return 0
    for _ in range(CLOSURE_ROUNDS):
        fresh = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                c = basis[i] @ basis[j] - basis[j] @ basis[i]
                if np.abs(c).max() > 1e-14:
                    fresh.append(c / np.abs(c).max())
        new_dim = numerical_rank(basis + fresh)
        if new_dim == dim:
            return dim
        basis = basis + fresh
        dim = new_dim
        if len(basis) > 400:
            basis = _compress(basis, dim)
    raise ClosureNotStabilized(dim, CLOSURE_ROUNDS)


def _compress(basis: List[np.ndarray], dim: int) -> List[np.ndarray]:
    """Replace a bloated spanning list by `dim` orthogonal combinations."""
    shape = basis[0].shape
    rows = np.array([real_vector(b) for b in basis])
    _, _, vh = np.linalg.svd(rows, full_matrices=False)
    half = shape[0] * shape[1]
    out = []
    for k in range(dim):
        v = vh[k]
        mat = v[:half].reshape(shape) + 1j * v[half:].reshape(shape)
        out.append(mat / np.abs(mat).max())
    return out
