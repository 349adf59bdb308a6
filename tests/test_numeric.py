import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from berry_holonomy import (
    COMPONENT_KEYS,
    GeneralizedPoint,
    ParameterPoint,
    connection_closed,
    connection_numeric,
    curvature_closed,
    vacuum_frame,
    wirtinger_derivative,
)
from berry_holonomy.numeric import STEP, _frame_legs
from reference import global_form_check

POINT = ParameterPoint(0.31 + 0.17j, 0.23 - 0.41j)


@given(
    st.complex_numbers(min_magnitude=0.3, max_magnitude=1.0, allow_nan=False, allow_infinity=False)
)
def test_wirtinger_on_polynomial(z0):
    """d_z and d_zbar of z^3 zbar are 3 z^2 zbar and z^3."""
    f = lambda z: z ** 3 * np.conj(z)
    d_z, d_zb = wirtinger_derivative(f, z0, 1e-4)
    assert abs(d_z - 3 * z0 ** 2 * np.conj(z0)) < 1e-6
    assert abs(d_zb - z0 ** 3) < 1e-6


def test_oracle_matches_closed_connection(dim96):
    oc = connection_numeric(POINT, 3, dim96)
    cl = connection_closed(POINT, 3)
    assert len(oc.a) == 2
    assert np.abs(oc.a[0] - cl.a_lambda).max() < 1e-6
    assert np.abs(oc.a[1] - cl.a_mu).max() < 1e-6
    assert oc.estimated_error < 1e-7


def test_oracle_batch_equals_pointwise(dim64):
    """A batch gives the stacked single-point oracles and a per-point
    estimated error; a scalar mu broadcasts against the array of lam."""
    lam = np.array([0.31 + 0.17j, -0.4j, 0.0])
    mu = 0.23 - 0.41j
    batch = ParameterPoint(lam, mu)
    oc = connection_numeric(batch, 3, dim64)
    assert oc.a[0].shape == oc.a[1].shape == (3, 3, 3)
    assert oc.estimated_error.shape == (3,)
    for k in range(3):
        one = connection_numeric(ParameterPoint(complex(lam[k]), mu), 3, dim64)
        assert np.shape(one.estimated_error) == ()
        assert np.abs(oc.a[0][k] - one.a[0]).max() < 1e-10
        assert np.abs(oc.a[1][k] - one.a[1]).max() < 1e-10
        assert abs(oc.estimated_error[k] - one.estimated_error) < 1e-10
        for key, comp in one.curvature.components.items():
            assert np.abs(oc.curvature.components[key][k] - comp).max() < 1e-10


def test_oracle_matches_closed_curvature(dim96):
    got = connection_numeric(POINT, 2, dim96).curvature
    want = curvature_closed(POINT, 2)
    assert list(got.components) == list(COMPONENT_KEYS)
    for key in COMPONENT_KEYS:
        assert np.abs(got.components[key] - want.components[key]).max() < 1e-5


def test_generalized_oracle_antihermitian(dim64):
    """The estimate is the worst conjugate-leg defect |A_zbar + A_z+| over
    all three factors; the curvature has one component per pair of the six
    legs."""
    gp = GeneralizedPoint((0.3 + 0.2j, 0.35 - 0.1j, 0.0))
    oc = connection_numeric(gp, 3, dim64)
    assert len(oc.a) == 3
    assert 0.0 < oc.estimated_error < 1e-7
    assert len(oc.curvature.components) == 15
    assert list(oc.curvature.components)[:3] == ["l1l2", "l1l3", "l1l1b"]


def test_generalized_curvature_reduction(dim64):
    """At lam_3 = 0 the generalized frame is the two-parameter one, so the
    components on the legs of factors 1 and 2 are the two-parameter ones."""
    lam, mu = 0.3 + 0.2j, 0.35 - 0.1j
    gen = connection_numeric(GeneralizedPoint((lam, mu, 0.0)), 3, dim64).curvature
    two = connection_numeric(ParameterPoint(lam, mu), 3, dim64).curvature
    rename = dict(zip(ParameterPoint.legs, ("l1", "l2", "l1b", "l2b")))
    for a, b in itertools.combinations(ParameterPoint.legs, 2):
        got = gen.components[rename[a] + rename[b]]
        assert np.abs(got - two.components[a + b]).max() < 1e-10


@pytest.mark.parametrize("dim", [64, 96])
def test_frame_legs_match_pointwise_differences(dim):
    """The shared-suffix legs of a 3-factor frame against the stencil of
    `vacuum_frame` taken point by point.  The first factor has no prefix,
    the middle one a prefix and a suffix, the last no suffix.  Only the
    rounding of the differences of frames, about eps / STEP, separates the
    two: 1.2e-11 measured, hence the gate."""
    gp = GeneralizedPoint((0.3 + 0.2j, -0.25 + 0.15j, 0.2 - 0.1j))
    v, legs = _frame_legs(gp.factors, 3, dim, STEP)
    assert np.abs(v - vacuum_frame(gp, 3, dim)).max() < 1e-14
    for k, (d_z, d_zb) in enumerate(legs):

        def frame(dz):
            lambdas = list(gp.lambdas)
            lambdas[k] += dz
            return vacuum_frame(GeneralizedPoint(lambdas), 3, dim)

        fx = (frame(STEP) - frame(-STEP)) / (2 * STEP)
        fy = (frame(1j * STEP) - frame(-1j * STEP)) / (2 * STEP)
        assert np.abs(d_z - 0.5 * (fx - 1j * fy)).max() < 5e-11, k
        assert np.abs(d_zb - 0.5 * (fx + 1j * fy)).max() < 5e-11, k


def test_global_form_check(dim96):
    devs = global_form_check(ParameterPoint(0.27 - 0.12j, 0.33 + 0.21j), 2, dim96)
    assert set(devs) == {"llb", "mmb"}
    for frame_dev, _ in devs.values():
        assert frame_dev < 1e-6


def test_oracle_m_validation(dim64):
    with pytest.raises(ValueError):
        connection_numeric(POINT, 0, dim64)
    with pytest.raises(ValueError):
        connection_numeric(POINT, 64, dim64)
