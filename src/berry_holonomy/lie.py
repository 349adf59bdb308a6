"""Real Lie-algebra closure of a set of anti-hermitian matrices.

Matrices over C are treated as vectors over R (real and imaginary parts
concatenated), so the reported dimension is the real dimension of the
smallest real Lie algebra containing the generators.  For generators inside
u(m) the answer is bounded by m^2.  Every step works on the whole (n, m, m)
stack at once: a closure round forms all its commutators with one batched
product, and the rank table is one reshape of the stack.
"""
from __future__ import annotations

from typing import Sequence

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


def _real_rows(stack: np.ndarray) -> np.ndarray:
    """(n, 2 m^2) table whose row k is the real and imaginary parts of
    stack[k], each raveled."""
    flat = stack.reshape(len(stack), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _unit_nonzero(stack: np.ndarray) -> np.ndarray:
    """The matrices of the stack whose max-abs entry exceeds 1e-14, each
    divided by that entry."""
    peak = np.abs(stack).max(axis=(1, 2))
    keep = peak > 1e-14
    return stack[keep] / peak[keep, None, None]


def numerical_rank(mats: Sequence[np.ndarray]) -> int:
    """Rank of the stacked real vectors, each normalized to unit max-abs so
    small commutators are not drowned by the singular-value threshold."""
    if len(mats) == 0:
        return 0
    stack = np.asarray(mats)
    peak = np.maximum(np.abs(stack).max(axis=(1, 2)), 1e-300)
    s = np.linalg.svd(_real_rows(stack / peak[:, None, None]), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def real_lie_closure(gens: Sequence[np.ndarray]) -> int:
    """Dimension of the closure under commutators.

    Each round commutes all current pairs (i < j, row-major), appends the
    nonzero results, and recomputes the rank; stabilization means one full
    round added nothing.  Raises ClosureNotStabilized when CLOSURE_ROUNDS
    rounds do not stabilize.  A basis longer than 400 is compressed to
    `dim` orthogonal combinations, which keeps the pairwise pass quadratic
    in a small number; the cap is far above m^2 for any m this library
    handles.
    """
    if len(gens) == 0:
        return 0
    basis = _unit_nonzero(np.asarray(gens))
    dim = numerical_rank(basis)
    if dim == 0:
        return 0
    for _ in range(CLOSURE_ROUNDS):
        i, j = np.triu_indices(len(basis), 1)
        grown = np.concatenate([basis, _unit_nonzero(basis[i] @ basis[j] - basis[j] @ basis[i])])
        new_dim = numerical_rank(grown)
        if new_dim == dim:
            return dim
        basis = grown
        dim = new_dim
        if len(basis) > 400:
            basis = _compress(basis, dim)
    raise ClosureNotStabilized(dim, CLOSURE_ROUNDS)


def _compress(basis: np.ndarray, dim: int) -> np.ndarray:
    """Replace a bloated spanning stack by `dim` orthogonal combinations."""
    shape = (dim,) + basis.shape[1:]
    _, _, vh = np.linalg.svd(_real_rows(basis), full_matrices=False)
    half = vh.shape[1] // 2
    return _unit_nonzero(vh[:dim, :half].reshape(shape) + 1j * vh[:dim, half:].reshape(shape))
