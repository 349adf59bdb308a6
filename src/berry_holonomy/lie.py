"""Real Lie-algebra closure of a set of anti-hermitian matrices.

Matrices over C are treated as vectors over R (real and imaginary parts
concatenated), so the reported dimension is the real dimension of the
smallest real Lie algebra containing the generators.  The closure keeps one
orthonormal real basis of the span so far, from one SVD (`_span`); a round
commutes all pairs of that basis with one batched product and spans the
basis together with the commutators that are more than roundoff.
Everything it spans is first replaced by its anti-hermitian part
(X - X+)/2, so the answer lies in u(m) and is at most m^2 by construction.
The basis is projected too: a direction with a small singular value
carries roundoff outside the span, up to eps over that singular value, and
counted again it would leave u(m).
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


def _antihermitian(stack: np.ndarray) -> np.ndarray:
    """(X - X+)/2 of every matrix of the stack."""
    return (stack - np.conj(np.swapaxes(stack, 1, 2))) / 2


def _span(stack: np.ndarray) -> np.ndarray:
    """Orthonormal real basis, as an (r, m, m) stack, of the span of the
    stack's matrices.  Each matrix is first scaled to unit max-abs so small
    ones are not drowned by the cut; directions whose singular value is below
    RANK_RTOL times the largest are dropped."""
    n, rows, cols = stack.shape
    half = rows * cols
    peak = np.maximum(np.abs(stack).max(axis=(1, 2)), 1e-300)
    flat = (stack / peak[:, None, None]).reshape(n, half)
    _, s, vh = np.linalg.svd(np.concatenate([flat.real, flat.imag], axis=1), full_matrices=False)
    r = int(np.sum(s > RANK_RTOL * s.max(initial=0.0)))
    return (vh[:r, :half] + 1j * vh[:r, half:]).reshape(r, rows, cols)


def real_lie_closure(gens: Sequence[np.ndarray]) -> int:
    """Dimension of the closure under commutators.

    Each round commutes all pairs (i < j, row-major) of the current
    orthonormal basis, drops the commutators whose max-abs entry is at most
    RANK_RTOL (roundoff: the basis has unit norm) and spans the
    anti-hermitian parts of the basis and the rest; stabilization means one
    full round added no direction.  Raises ClosureNotStabilized when
    CLOSURE_ROUNDS rounds do not stabilize.
    """
    if len(gens) == 0:
        return 0
    basis = _span(_antihermitian(np.asarray(gens)))
    for _ in range(CLOSURE_ROUNDS):
        i, j = np.triu_indices(len(basis), 1)
        comm = basis[i] @ basis[j] - basis[j] @ basis[i]
        comm = comm[np.abs(comm).max(axis=(1, 2)) > RANK_RTOL]
        grown = _span(_antihermitian(np.concatenate([basis, comm])))
        if len(grown) == len(basis):
            return len(basis)
        basis = grown
    raise ClosureNotStabilized(len(basis), CLOSURE_ROUNDS)
