import numpy as np
import pytest
from hypothesis import given, strategies as st

from berry_holonomy import (
    COMPONENT_KEYS,
    DifferentiationPlan,
    GeneralizedPoint,
    ParameterPoint,
    TruncatedSpace,
    connection_closed,
    connection_numeric,
    convergence_report,
    curvature_closed,
    curvature_numeric,
    global_form_check,
    wirtinger_derivative,
)

POINT = ParameterPoint(0.31 + 0.17j, 0.23 - 0.41j)


def test_plan_validation():
    with pytest.raises(ValueError):
        DifferentiationPlan(h=1e-9)
    with pytest.raises(ValueError):
        DifferentiationPlan(h=0.1)


@given(
    st.complex_numbers(min_magnitude=0.3, max_magnitude=1.0, allow_nan=False, allow_infinity=False)
)
def test_wirtinger_on_polynomial(z0):
    """d_z and d_zbar of z^3 zbar are 3 z^2 zbar and z^3."""
    f = lambda z: z ** 3 * np.conj(z)
    plan = DifferentiationPlan(h=1e-4)
    d_z, d_zb = wirtinger_derivative(f, z0, plan)
    assert abs(d_z - 3 * z0 ** 2 * np.conj(z0)) < 1e-6
    assert abs(d_zb - z0 ** 3) < 1e-6


def test_richardson_improves():
    f = lambda z: z ** 3 * np.conj(z)
    z0 = 0.7 + 0.4j
    plain = DifferentiationPlan(h=1e-3)
    extrap = DifferentiationPlan(h=1e-3, richardson=True)
    err_plain = abs(wirtinger_derivative(f, z0, plain)[0] - 3 * z0 ** 2 * np.conj(z0))
    err_extrap = abs(wirtinger_derivative(f, z0, extrap)[0] - 3 * z0 ** 2 * np.conj(z0))
    assert err_extrap * 10 < err_plain


def test_oracle_matches_closed_connection(space96):
    oc = connection_numeric(POINT, 3, space96)
    cl = connection_closed(POINT, 3)
    assert np.abs(oc.a_lambda - cl.a_lambda).max() < 1e-6
    assert np.abs(oc.a_mu - cl.a_mu).max() < 1e-6
    assert oc.estimated_error < 1e-7


def test_oracle_matches_closed_curvature(space96):
    got = curvature_numeric(POINT, 2, space96)
    want = curvature_closed(POINT, 2)
    for key in COMPONENT_KEYS:
        assert np.abs(got.components[key] - want.components[key]).max() < 1e-5


def test_generalized_oracle_antihermitian(space64):
    gp = GeneralizedPoint((0.3 + 0.2j, 0.35 - 0.1j, 0.0))
    oc = connection_numeric(gp, 3, space64)
    assert len(oc.a) == 3
    for j in range(3):
        assert np.abs(oc.a_bar[j] + oc.a[j].conj().T).max() < 1e-7


def test_global_form_check(space96):
    rep = global_form_check(ParameterPoint(0.27 - 0.12j, 0.33 + 0.21j), 2, space96)
    assert rep.interior_dev < 1e-6
    assert rep.extras["llb_frame_dev"] < 1e-6
    assert rep.extras["mmb_frame_dev"] < 1e-6


def test_convergence_report():
    devs = convergence_report(ParameterPoint(0.3, 0.2), 2, (32, 64, 128))
    assert len(devs) == 2 and devs[-1] < 1e-8


def test_convergence_validation():
    p = ParameterPoint(0.3, 0.2)
    with pytest.raises(ValueError):
        convergence_report(p, 2, (64,))
    with pytest.raises(ValueError):
        convergence_report(p, 2, (64, 32))
    with pytest.raises(ValueError):
        convergence_report(p, 4, (8, 64))


def test_oracle_m_validation(space64):
    with pytest.raises(ValueError):
        connection_numeric(POINT, 0, space64)
    with pytest.raises(ValueError):
        connection_numeric(POINT, 64, space64)
