import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from berry_holonomy import (
    COMPONENT_KEYS,
    ClosureNotStabilized,
    ParameterPoint,
    connection_closed,
    contract_two_form,
    curvature_closed,
    curvature_span_dimension,
    f_squared,
    f_squared_from_wedge,
)
from berry_holonomy.curvature import COMPONENT_NAMES, PLANE_TANGENTS, _basis
from reference import curvature_from_components

amplitudes = st.complex_numbers(
    max_magnitude=1.2, allow_nan=False, allow_infinity=False
)
ms = st.integers(min_value=2, max_value=5)


def test_basis_structure():
    E, F, K, L = _basis(3)
    assert E[0, 1] == pytest.approx(1.0)
    assert E[1, 2] == pytest.approx(np.sqrt(2.0))
    assert np.abs(F - E.conj().T).max() == 0.0
    assert K[2, 2] == 1.0 and np.trace(K) == 1.0
    assert np.trace(L) == 2.0


def test_leg_tables_follow_from_legs():
    """The tables derived from ParameterPoint.legs, pinned to their values."""
    assert COMPONENT_KEYS == ("lm", "llb", "lmb", "mlb", "mmb", "lbmb")
    assert list(PLANE_TANGENTS.items()) == [
        ("lm", ((1, 0), (0, 1))),
        ("llb", ((1, 0), (1j, 0))),
        ("lmb", ((1, 0), (0, 1j))),
        ("mlb", ((0, 1), (1j, 0))),
        ("mmb", ((0, 1), (0, 1j))),
        ("lbmb", ((1j, 0), (0, 1j))),
    ]
    assert list(COMPONENT_NAMES) == list(COMPONENT_KEYS)


@given(amplitudes, amplitudes, ms)
def test_llb_component_is_minus_m_k(lam, mu, m):
    form = curvature_closed(ParameterPoint(lam, mu), m)
    assert np.abs(form.components["llb"] + m * _basis(m)[2]).max() == 0.0


@given(amplitudes, amplitudes, ms)
def test_hermiticity_pairings(lam, mu, m):
    c = curvature_closed(ParameterPoint(lam, mu), m).components
    h = lambda x: x.conj().T
    assert np.abs(h(c["llb"]) - c["llb"]).max() < 1e-13
    assert np.abs(h(c["mmb"]) - c["mmb"]).max() < 1e-13
    assert np.abs(c["lbmb"] + h(c["lm"])).max() < 1e-13
    assert np.abs(c["mlb"] - h(c["lmb"])).max() < 1e-13


@given(amplitudes, ms)
def test_wedge_square_matches_closed_form(mu, m):
    form = curvature_closed(ParameterPoint(0.37 - 0.21j, mu), m)
    assert np.abs(f_squared_from_wedge(form) - f_squared(mu, m)).max() < 1e-12


def test_wedge_square_small_mu_limit():
    assert np.abs(
        f_squared(0.0, 2) - np.diag([1.0, -5.0])
    ).max() < 1e-14
    got = f_squared(1.0, 2)
    cs = np.cosh(1.0) * np.sinh(1.0)
    assert np.abs(got - cs * np.diag([1.0, -5.0])).max() < 1e-14


def test_wedge_square_m3_coefficients():
    got = f_squared(0.5, 3)
    cs_x = np.cosh(0.5) * np.sinh(0.5) / 0.5
    _, _, K, L = _basis(3)
    assert np.abs(got - cs_x * (4.5 * L - 18.0 * K)).max() < 1e-13


def test_mu_limit_components_m2():
    c = curvature_closed(ParameterPoint(0.2, 0.0), 2).components
    E, _, K, _ = _basis(2)
    assert np.abs(np.diag(c["mmb"]).real - np.array([-0.5, -1.5])).max() < 1e-14
    assert np.abs(c["lmb"] + E @ K).max() < 1e-14


@given(amplitudes, amplitudes)
def test_contract_two_form_antisymmetric(u_l, u_m):
    form = curvature_closed(ParameterPoint(0.3 + 0.1j, 0.4 - 0.2j), 3)
    u = (u_l, u_m)
    v = (0.7 - 0.2j, -0.1 + 0.5j)
    f_uv = contract_two_form(form, u, v)
    f_vu = contract_two_form(form, v, u)
    assert np.abs(f_uv + f_vu).max() < 1e-12


def test_plane_contractions_antihermitian():
    form = curvature_closed(ParameterPoint(0.3 + 0.1j, 0.4 - 0.2j), 3)
    for u, v in PLANE_TANGENTS.values():
        f = contract_two_form(form, u, v)
        assert np.abs(f + f.conj().T).max() < 1e-13


def test_assembly_from_closed_field_matches():
    """dA + A^A over the closed connection reproduces the closed curvature."""
    p = ParameterPoint(0.31 + 0.17j, 0.23 - 0.41j)

    def a_field(q):
        cm = connection_closed(q, 3)
        return cm.a_lambda, cm.a_mu

    got = curvature_from_components(a_field, p, 1e-5)
    want = curvature_closed(p, 3)
    for key in COMPONENT_KEYS:
        assert np.abs(got.components[key] - want.components[key]).max() < 1e-8


def test_span_dimension_and_validation():
    pts = [
        ParameterPoint(0.32 + 0.21j, 0.43 + 0.14j),
        ParameterPoint(0.25 - 0.15j, 0.52 + 0.33j),
    ]
    assert curvature_span_dimension(pts, 2) == 4
    assert curvature_span_dimension(pts, 3) == 4
    with pytest.raises(ValueError):
        curvature_span_dimension([], 2)


def test_span_dimension_raises_when_closure_keeps_growing(monkeypatch):
    """A rank that grows every round is an error, not a partial dimension."""
    ranks = itertools.count(1)
    monkeypatch.setattr("berry_holonomy.lie.numerical_rank", lambda mats: next(ranks))
    with pytest.raises(ClosureNotStabilized):
        curvature_span_dimension([ParameterPoint(0.32 + 0.21j, 0.43 + 0.14j)], 3)
