"""The batched Lie closure against the pair-loop reference in `reference.py`.

Both must report the same dimension, or raise ClosureNotStabilized with the
same partial dimension, on the generator sets the commands close and on
drawn sets with repeated, rescaled and zero matrices.  On every drawn set
the closure stays inside u(m), and it finds u(4) from three plain u(4)
generators.
"""
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from berry_holonomy import (
    curvature_span_dimension,
    holonomy_algebra_dimension,
    lie,
    transported_curvature_dimension,
)
from berry_holonomy.cli import IRREDUCIBILITY_CENTERS, SPAN_SAMPLE_POINTS
from berry_holonomy.lie import ClosureNotStabilized, real_lie_closure

ROUTES = {
    "loop": (holonomy_algebra_dimension, "holonomy", IRREDUCIBILITY_CENTERS),
    "transported": (transported_curvature_dimension, "holonomy", IRREDUCIBILITY_CENTERS),
    "span": (curvature_span_dimension, "curvature", SPAN_SAMPLE_POINTS),
}


@functools.lru_cache(maxsize=None)
def closure_inputs(route: str, m: int):
    """The generators `route` hands to `real_lie_closure` at this m."""
    dimension, owner, points = ROUTES[route]
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f"berry_holonomy.{owner}.real_lie_closure", lambda gens: seen.append(gens) or 0)
        dimension(points, m)
    return tuple(seen[0])


def outcome(closure, gens):
    """The closure's dimension, or the partial dimension it raised with."""
    try:
        return closure(gens)
    except ClosureNotStabilized as exc:
        return ("not stabilized", exc.partial_dimension)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_closure_matches_pair_loop_on_command_generators(route, m):
    gens = list(closure_inputs(route, m))
    assert real_lie_closure(gens) == reference.real_lie_closure(gens)


@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("route", ["loop", "transported"])
def test_closure_round_budget_matches_pair_loop(monkeypatch, route, m, rounds):
    """With fewer rounds allowed, both stop at the same partial dimension."""
    monkeypatch.setattr(lie, "CLOSURE_ROUNDS", rounds)
    monkeypatch.setattr(reference, "CLOSURE_ROUNDS", rounds)
    gens = list(closure_inputs(route, m))
    got = outcome(real_lie_closure, gens)
    assert got == outcome(reference.real_lie_closure, gens)
    if rounds == 1:
        assert got[0] == "not stabilized"


def _unit(m: int, j: int, k: int) -> np.ndarray:
    e = np.zeros((m, m), dtype=complex)
    e[j, k] = 1.0
    return e


# three plain u(4) generators whose exact closure is u(4); hermitian roundoff
# counted as directions would carry the closure past 16 into gl(4, C)
U4_GENERATORS = [
    _unit(4, 0, 1) - _unit(4, 1, 0),
    _unit(4, 0, 2) - _unit(4, 2, 0) + _unit(4, 2, 3) - _unit(4, 3, 2),
    1j * _unit(4, 0, 0),
]


def test_closure_of_u4_generators_is_u4():
    assert real_lie_closure(U4_GENERATORS) == 16


def test_commutator_roundoff_is_not_a_direction():
    """This pair closes to 6 dimensions.  Commutators of an orthonormal
    basis carry roundoff where the exact value is zero; counted as
    directions they read "not stabilized, 15"."""
    gens = [
        1j * (_unit(4, 0, 3) + _unit(4, 3, 0)),
        _unit(4, 0, 1) - _unit(4, 1, 0) + 1j * (_unit(4, 1, 2) + _unit(4, 2, 1)),
    ]
    assert real_lie_closure(gens) == 6


def _elementary(m: int):
    """The m^2 anti-hermitian matrix units spanning u(m)."""
    out = []
    for j in range(m):
        for k in range(m):
            e = np.zeros((m, m), dtype=complex)
            if j == k:
                e[j, j] = 1j
            elif j < k:
                e[j, k], e[k, j] = 1.0, -1.0
            else:
                e[j, k] = e[k, j] = 1j
            out.append(e)
    return out


@st.composite
def antihermitian_sets(draw):
    m = draw(st.integers(2, 4))
    units = _elementary(m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["unit", "unit sum", "random", "repeat", "scaled", "zero"]))
        pick = lambda seq: seq[draw(st.integers(0, len(seq) - 1))]
        if kind == "unit":
            mats.append(pick(units).copy())
        elif kind == "unit sum":
            mats.append(pick(units) + draw(st.sampled_from([1.0, -0.5, 3.0])) * pick(units))
        elif kind == "random":
            x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            mats.append(x - x.conj().T)
        elif kind == "repeat" and mats:
            mats.append(pick(mats).copy())
        elif kind == "scaled" and mats:
            mats.append(draw(st.sampled_from([1e-15, 1e-9, -2.5, 1e7])) * pick(mats))
        else:
            mats.append(np.zeros((m, m), dtype=complex))
    return mats


@settings(max_examples=50)
@given(antihermitian_sets())
def test_closure_matches_pair_loop_on_drawn_sets(mats):
    assert outcome(real_lie_closure, mats) == outcome(reference.real_lie_closure, mats)


@settings(max_examples=50)
@given(antihermitian_sets())
@example(U4_GENERATORS)
def test_closure_stays_in_u_m(mats):
    """The closure, or the partial dimension it raises with, is at most
    dim u(m) = m^2."""
    got = outcome(real_lie_closure, mats)
    m = len(mats[0])
    assert (got[1] if isinstance(got, tuple) else got) <= m * m
