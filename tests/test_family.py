import numpy as np
import pytest
from hypothesis import given, strategies as st

from berry_holonomy import (
    GeneralizedPoint,
    ParameterPoint,
    TruncatedSpace,
    classifying_projector,
    vacuum_frame,
)
from berry_holonomy.fock import apply_factors
from conftest import unitarity_defect
from reference import hamiltonian_h0, isospectral_check

amplitudes = st.complex_numbers(
    max_magnitude=0.7, allow_nan=False, allow_infinity=False
)


def test_h0_diagonal(space64):
    h = hamiltonian_h0(3, space64)
    diag = np.diag(h).real
    assert np.abs(diag[:3]).max() == 0.0
    assert diag[3] == pytest.approx(3 * 2 * 1)
    assert diag[5] == pytest.approx(5 * 4 * 3)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_h0_argument_errors(space64):
    with pytest.raises(ValueError):
        hamiltonian_h0(0, space64)
    with pytest.raises(ValueError):
        hamiltonian_h0(64, space64)


@given(amplitudes, amplitudes)
def test_two_parameter_product_is_unitary(lam, mu):
    u = apply_factors(ParameterPoint(lam, mu).factors, np.eye(32))
    assert unitarity_defect(u) < 1e-12


@given(amplitudes, amplitudes)
def test_vacuum_frame_orthonormal(lam, mu):
    space = TruncatedSpace(32)
    v = vacuum_frame(ParameterPoint(lam, mu), 3, space)
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12


def test_projector_properties(space64):
    p = classifying_projector(ParameterPoint(0.4 + 0.1j, 0.3 - 0.2j), 3, space64)
    assert np.abs(p - p.conj().T).max() < 1e-12
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.trace(p).real == pytest.approx(3.0, abs=1e-10)


def test_isospectral_lower_half(space64):
    max_dev, kernel_dim = isospectral_check(ParameterPoint(0.4 + 0.1j, 0.3 - 0.2j), 3, space64)
    assert max_dev < 1e-8
    assert kernel_dim >= 3


def test_generalized_two_parameter_reduction():
    """The j <= 2 product is exactly displacement then squeeze."""
    gp = GeneralizedPoint((0.3 + 0.2j, 0.35 - 0.1j))
    ug = apply_factors(gp.factors, np.eye(64))
    u2 = apply_factors(ParameterPoint(0.3 + 0.2j, 0.35 - 0.1j).factors, np.eye(64))
    assert np.abs(ug - u2).max() < 1e-13


def test_generalized_point_coerces():
    gp = GeneralizedPoint((0.5, 1))
    assert all(isinstance(z, complex) for z in gp.lambdas)


@given(st.integers(min_value=1, max_value=3))
def test_generalized_unitary(n):
    gp = GeneralizedPoint(tuple(0.2 + 0.1j for _ in range(n)))
    assert unitarity_defect(apply_factors(gp.factors, np.eye(32))) < 1e-11
