import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import logm

from berry_holonomy import (
    ParameterPoint,
    connection_closed,
    contract_one_form,
    contract_two_form,
    curvature_closed,
    derivative_identity_report,
    lambda_circle,
    parallel_transport,
    square_loop,
    transport,
)
from berry_holonomy.connection import (
    SERIES_SWITCH,
    cosh_sinh_over,
    csm1_over_x2,
    sinhc,
    tanhc,
)

amplitudes = st.complex_numbers(
    max_magnitude=1.2, allow_nan=False, allow_infinity=False
)


def test_scalar_profiles_at_one():
    """alpha, gamma, beta read off A_mu at mu = 1; zeta = mu tanh|mu|/|mu|."""
    a_mu = connection_closed(ParameterPoint(0.0, 1.0), 3).a_mu
    assert 2.0 * a_mu[0, 0] == pytest.approx(0.69054892277090786, abs=1e-14)
    assert a_mu[0, 2] / math.sqrt(2.0) == pytest.approx(0.20335755098087735, abs=1e-14)
    assert a_mu[2, 0] / math.sqrt(2.0) == pytest.approx(0.70335755098087735, abs=1e-14)
    assert tanhc(1.0) == pytest.approx(0.76159415595576489, abs=1e-14)


def test_series_switch_is_seamless():
    """Series branch against the direct formula at the same argument.

    Just below the switch the public functions take the series; the
    direct evaluations agree to machine precision except the subtracted
    profile (cosh sinh / x - 1) / x^2, whose direct form loses about
    eight digits to cancellation there.  That loss is the reason the
    series branch exists, and it is harmless downstream because every
    use carries an x^2 (or |mu|^2) factor.
    """
    x = SERIES_SWITCH * 0.99
    assert abs(sinhc(x) - math.sinh(x) / x) < 1e-14
    assert abs(cosh_sinh_over(x) - math.cosh(x) * math.sinh(x) / x) < 1e-14
    assert abs(tanhc(x) - math.tanh(x) / x) < 1e-14
    direct = (math.cosh(x) * math.sinh(x) / x - 1.0) / (x * x)
    assert abs(csm1_over_x2(x) - direct) < 1e-7


def test_scalar_profiles_at_zero():
    assert sinhc(0.0) == 1.0
    assert cosh_sinh_over(0.0) == 1.0
    assert tanhc(0.0) == 1.0
    assert csm1_over_x2(0.0) == pytest.approx(2.0 / 3.0)


def test_connection_sparsity_pattern():
    p = ParameterPoint(0.5 + 0.2j, 0.7 - 0.3j)
    cm = connection_closed(p, 4)
    a_lam, a_mu = cm.a_lambda, cm.a_mu
    # lam leg: tridiagonal; mu leg: diagonal plus two-off-diagonals
    for i in range(4):
        for j in range(4):
            if abs(i - j) > 1:
                assert a_lam[i, j] == 0
            if abs(i - j) not in (0, 2):
                assert a_mu[i, j] == 0
    assert a_lam[0, 0] == pytest.approx(np.conj(p.lam) / 2)
    assert a_lam[1, 0] == pytest.approx(math.cosh(abs(p.mu)))


def test_connection_known_entry():
    cm = connection_closed(ParameterPoint(0.0, 1.0), 3)
    assert cm.a_mu[2, 0] == pytest.approx(0.99469778779468237, abs=1e-14)


def test_connection_m_validation():
    with pytest.raises(ValueError):
        connection_closed(ParameterPoint(0.0, 0.0), 0)


@given(amplitudes, amplitudes, amplitudes, amplitudes)
def test_contracted_one_form_antihermitian(lam, mu, dlam, dmu):
    a = contract_one_form(connection_closed(ParameterPoint(lam, mu), 3), dlam, dmu)
    assert np.abs(a + a.conj().T).max() < 1e-12


def test_batch_equals_pointwise():
    """A ParameterPoint of arrays gives the stacked single-point matrices.

    |mu| straddles the series switch and includes mu = 0 exactly; every
    warning is an error, so a 0/0 in the unused branch would fail here.
    """
    mags = np.array([0.0, 0.3, 0.99, 1.0, 1.01, 3.0, 5e3, 8e3]) * SERIES_SWITCH
    mags = np.concatenate([mags, [0.4, 1.3]])
    mu = mags * np.exp(1j * np.linspace(0.1, 5.9, mags.size))
    lam = np.linspace(-0.7, 0.9, mags.size) + 0.3j
    assert mu[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (1, 2, 3, 5):
            batch = ParameterPoint(lam, mu)
            cm = connection_closed(batch, m)
            form = curvature_closed(batch, m)
            assert cm.a_lambda.shape == cm.a_mu.shape == (mags.size, m, m)
            for k in range(mags.size):
                p = ParameterPoint(complex(lam[k]), complex(mu[k]))
                one = connection_closed(p, m)
                assert np.abs(cm.a_lambda[k] - one.a_lambda).max() <= 1e-14
                assert np.abs(cm.a_mu[k] - one.a_mu).max() <= 1e-14
                for key, comp in curvature_closed(p, m).components.items():
                    assert np.abs(form.components[key][k] - comp).max() <= 1e-14


def test_square_at_mu_zero_transports_without_warnings():
    """A square centred at mu = 0 crosses the series switch on every side."""
    eps = 1.6e-4
    corner = ParameterPoint(0.2, -0.5 * eps * (1 + 1j))
    centre = ParameterPoint(0.2, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = transport(square_loop(corner, "mmb", eps, samples_per_side=16), 3)
    f_uv = contract_two_form(curvature_closed(centre, 3), (0, 1), (0, 1j))
    assert np.abs(w @ w.conj().T - np.eye(3)).max() < 1e-13
    assert np.abs(logm(w) + f_uv * eps * eps).max() < 1e-10


def test_berry_phase_circle():
    loop = lambda_circle(0.5, mu=0.2j, samples=1024)
    _, _, phases = parallel_transport(loop, 3)
    assert np.abs(phases - 2 * np.pi * 0.25).max() < 1e-9


@given(
    st.complex_numbers(min_magnitude=0.2, max_magnitude=1.5, allow_nan=False, allow_infinity=False)
)
def test_derivative_identities(z):
    rep = derivative_identity_report(z)
    assert rep.interior_dev < 1e-8


def test_derivative_identity_report_extras():
    rep = derivative_identity_report(0.7 - 0.4j)
    for key in ("identity_1_dev", "identity_2_dev", "identity_3_dev"):
        assert rep.extras[key] < 1e-8
    rhs = rep.extras["identity_2_rhs"]
    z = 0.7 - 0.4j
    expect = -np.conj(z) * math.tanh(abs(z)) / abs(z)
    assert abs(complex(rhs[0], rhs[1]) - expect) < 1e-12


def test_derivative_identity_near_origin_rejected():
    with pytest.raises(ValueError):
        derivative_identity_report(1e-6)
    with pytest.raises(ValueError):
        derivative_identity_report(0.5, h=1e-2)
