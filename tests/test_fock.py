import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from berry_holonomy import TruncatedSpace, bch_identity_report
from berry_holonomy.fock import (
    _raising_exp,
    apply_factors,
    displacement_buffer,
    squeeze_buffer,
)
from conftest import unitarity_defect
from reference import exp_antihermitian, make_operators

amplitudes = st.complex_numbers(
    max_magnitude=0.8, allow_nan=False, allow_infinity=False
)


def test_space_too_small():
    with pytest.raises(ValueError):
        TruncatedSpace(1)


def test_ladder_matrix_elements(space64):
    ops = make_operators(space64)
    a = ops["a"]
    for n in range(1, 64):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))
    assert np.count_nonzero(a) == 63
    assert np.abs(ops["a_dag"] - a.conj().T).max() == 0.0


def test_commutators_interior(space64):
    """su(1,1) relations and [N, a] = -a hold exactly away from the edge."""
    ops = make_operators(space64)
    a, ad = ops["a"], ops["a_dag"]
    kp, km, k3, num = ops["K_plus"], ops["K_minus"], ops["K_3"], ops["N"]
    comm = lambda x, y: x @ y - y @ x
    b = 60
    assert np.abs((comm(a, ad) - np.eye(64))[:b, :b]).max() < 1e-12
    assert np.abs((comm(num, a) + a)[:b, :b]).max() < 1e-12
    interior = slice(0, 60)
    assert np.abs((comm(k3, kp) - kp)[interior, interior]).max() < 1e-12
    assert np.abs((comm(k3, km) + km)[interior, interior]).max() < 1e-12
    assert np.abs((comm(km, kp) - 2 * k3)[interior, interior]).max() < 1e-12


def test_k3_diagonal(space64):
    ops = make_operators(space64)
    diag = np.diag(ops["K_3"]).real
    assert diag[0] == pytest.approx(0.25)
    assert diag[5] == pytest.approx(0.5 * (5 + 0.5))


@given(amplitudes)
def test_exp_antihermitian_is_unitary(z):
    space = TruncatedSpace(24)
    ops = make_operators(space)
    g = z * ops["a_dag"] - np.conj(z) * ops["a"]
    u = exp_antihermitian(g)
    assert unitarity_defect(u) < 1e-12


def test_exp_antihermitian_rejects_hermitian_part(space64):
    g = np.eye(64, dtype=complex)
    with pytest.raises(ValueError):
        exp_antihermitian(g)


def test_exp_of_zero_is_identity(space64):
    u = exp_antihermitian(np.zeros((64, 64), dtype=complex))
    assert np.abs(u - np.eye(64)).max() < 1e-14


def test_displacement_vacuum_is_coherent():
    """D(lam)|0> has entries e^{-|lam|^2/2} lam^n / sqrt(n!)."""
    lam = 0.6 - 0.3j
    col = apply_factors([(1, lam)], np.eye(64))[:, 0]
    ref = np.zeros(64, dtype=complex)
    term = math.exp(-abs(lam) ** 2 / 2.0)
    for n in range(40):
        ref[n] = term
        term = term * lam / math.sqrt(n + 1.0)
    assert np.abs(col[:40] - ref[:40]).max() < 1e-12


def test_squeeze_vacuum_even_sector():
    """S(mu)|0> = sech^{1/2}|mu| sum (zeta/2)^n sqrt((2n)!)/n! |2n>.

    Compared on the lower half of the column only; the top rows carry the
    truncation corruption that the factorization report quantifies.
    """
    mu = 0.45 + 0.2j
    x = abs(mu)
    zeta = mu / x * math.tanh(x)
    col = apply_factors([(2, mu)], np.eye(64))[:, 0]
    ref = np.zeros(32, dtype=complex)
    for n in range(16):
        ref[2 * n] = (
            (1.0 / math.cosh(x)) ** 0.5
            * (zeta / 2.0) ** n
            * math.sqrt(math.factorial(2 * n))
            / math.factorial(n)
        )
    assert np.abs(col[:32] - ref).max() < 1e-12
    assert np.abs(col[1:32:2]).max() < 1e-15


@given(amplitudes)
def test_displacement_unitary(z):
    assert unitarity_defect(apply_factors([(1, z)], np.eye(32))) < 1e-12


@given(amplitudes)
def test_squeeze_unitary(z):
    assert unitarity_defect(apply_factors([(2, z)], np.eye(32))) < 1e-12


def test_zero_arguments_give_identity():
    eye = np.eye(64)
    assert np.abs(apply_factors([(1, 0.0)], eye) - eye).max() < 1e-14
    assert np.abs(apply_factors([(2, 0.0)], eye) - eye).max() < 1e-14


def test_factor_engine_against_reference(space128):
    """Every factor exp((z (a+)^j - conj(z) a^j)/j) against a direct eigen-solve.

    Both routes round to about eps |z| ||G_j||, and ||G_3|| is about 800 at
    D = 128, so the 1e-13 bound widens once |z| ||G_j|| passes 100.
    """
    ops = make_operators(space128)
    a, ad = ops["a"], ops["a_dag"]
    for z in (0.3 + 0.2j, -0.7 + 0.1j, 1.0j, 0.5):
        for j in (1, 2, 3):
            g = (z * np.linalg.matrix_power(ad, j) - np.conj(z) * np.linalg.matrix_power(a, j)) / j
            ref = exp_antihermitian(g)
            got = apply_factors([(j, z)], np.eye(128))
            scale = np.linalg.norm(g, 2)
            assert np.abs(got - ref).max() < 1e-13 * max(1.0, scale / 100.0), (z, j)


@pytest.mark.parametrize("mu", [0.4 + 0.25j, np.array([0.4 + 0.25j, -0.3, 0.0])])
def test_apply_factors_batch_equals_pointwise(mu):
    """z arrays broadcast to one batch shape S and give S + x.shape; a
    scalar mu broadcasts against the array of lam, and scalar z give the
    batch of shape ()."""
    lam = np.array([[0.3 - 0.2j], [-0.6j]])
    v0 = np.eye(64)[:, :3]
    got = apply_factors([(1, lam), (2, mu)], v0)
    lam_b, mu_b = np.broadcast_arrays(lam, mu)
    assert got.shape == lam_b.shape + (64, 3)
    for idx in np.ndindex(lam_b.shape):
        one = apply_factors([(1, complex(lam_b[idx])), (2, complex(mu_b[idx]))], v0)
        assert one.shape == (64, 3)
        assert np.abs(got[idx] - one).max() < 1e-14


EIGHTH_TURN = cmath.exp(0.25j * math.pi)


@pytest.mark.parametrize("D", [16, 64])
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize(
    "c", [0, 0.3 + 0.2j, -0.7j, EIGHTH_TURN, 0.5 * math.tanh(1) * EIGHTH_TURN]
)
def test_raising_exp_entries(D, j, c):
    """exp(c (a+)^j) entry by entry against c^q/q! sqrt((k+jq)!/k!) from
    exact integer factorials; the last c is zeta/2 at mu = e^{i pi/4}.
    Above D = 64 the float reference's own error nears the gate."""
    got = _raising_exp(c, j, D)
    ref = np.zeros((D, D), dtype=complex)
    for k in range(D):
        for q in range((D - 1 - k) // j + 1):
            fact = math.factorial(k + j * q) // math.factorial(k)
            ref[k + j * q, k] = c**q / math.factorial(q) * math.sqrt(fact)
    nonzero = ref != 0
    assert np.all(got[~nonzero] == 0)
    rel = np.abs(got[nonzero] - ref[nonzero]) / np.abs(ref[nonzero])
    assert rel.max() <= 1e-14


def test_buffers_bracketed():
    for z in (0.1, 0.5 + 0.5j, 1.0):
        assert 4 <= displacement_buffer(z, 64) <= 60
        assert 4 <= squeeze_buffer(z, 64) <= 60


def test_factorization_report_structure(space64):
    rep = bch_identity_report(0.3 + 0.2j, 0.25 - 0.1j, space64)
    assert rep.interior_dev < 1e-8
    assert rep.boundary_dev > rep.interior_dev
    assert set(rep.extras) == {"displacement", "squeeze"}
    for part in rep.extras.values():
        assert part["interior_dev"] < 1e-8


def test_factorization_interior_small_at_both_sizes():
    # the interior window widens with D (the buffer is relative), so the
    # deviations are not comparable across sizes; both must simply be tiny
    rep32 = bch_identity_report(0.4, 0.3, TruncatedSpace(32))
    rep64 = bch_identity_report(0.4, 0.3, TruncatedSpace(64))
    assert rep32.interior_dev < 1e-8
    assert rep64.interior_dev < 1e-8
