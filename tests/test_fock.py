import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from berry_holonomy import bch_identity_report, fock
from berry_holonomy.cli import grid_points
from berry_holonomy.fock import (
    _generator_modes,
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


def test_ladder_matrix_elements(dim64):
    ops = make_operators(dim64)
    a = ops["a"]
    for n in range(1, 64):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))
    assert np.count_nonzero(a) == 63
    assert np.abs(ops["a_dag"] - a.conj().T).max() == 0.0


def test_commutators_interior(dim64):
    """su(1,1) relations and [N, a] = -a hold exactly away from the edge."""
    ops = make_operators(dim64)
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


def test_k3_diagonal(dim64):
    ops = make_operators(dim64)
    diag = np.diag(ops["K_3"]).real
    assert diag[0] == pytest.approx(0.25)
    assert diag[5] == pytest.approx(0.5 * (5 + 0.5))


@given(amplitudes)
def test_exp_antihermitian_is_unitary(z):
    ops = make_operators(24)
    g = z * ops["a_dag"] - np.conj(z) * ops["a"]
    u = exp_antihermitian(g)
    assert unitarity_defect(u) < 1e-12


def test_exp_antihermitian_rejects_hermitian_part(dim64):
    g = np.eye(64, dtype=complex)
    with pytest.raises(ValueError):
        exp_antihermitian(g)


def test_exp_of_zero_is_identity(dim64):
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


def test_factor_engine_against_reference(dim128):
    """Every factor exp((z (a+)^j - conj(z) a^j)/j) against a direct eigen-solve.

    Both routes round to about eps |z| ||G_j||, and ||G_3|| is about 800 at
    D = 128, so the 1e-13 bound widens once |z| ||G_j|| passes 100.
    """
    ops = make_operators(dim128)
    a, ad = ops["a"], ops["a_dag"]
    for z in (0.3 + 0.2j, -0.7 + 0.1j, 1.0j, 0.5):
        for j in (1, 2, 3):
            g = (z * np.linalg.matrix_power(ad, j) - np.conj(z) * np.linalg.matrix_power(a, j)) / j
            ref = exp_antihermitian(g)
            got = apply_factors([(j, z)], np.eye(128))
            scale = np.linalg.norm(g, 2)
            assert np.abs(got - ref).max() < 1e-13 * max(1.0, scale / 100.0), (z, j)


@pytest.mark.parametrize("D", [31, 64])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_generator_modes_real_eigenbasis(D, j):
    """i G_j = (P Q) diag(w) (P Q)+ with Q real and P = diag(i^floor(n/j));
    P Q is unitary and the spectrum is symmetric in +-.  All three hold to
    about 4e-15 (relative to ||G_j|| for the first and last) at D <= 128."""
    ops = make_operators(D)
    g = (np.linalg.matrix_power(ops["a_dag"], j) - np.linalg.matrix_power(ops["a"], j)) / j
    w, q, p = _generator_modes(D, j)
    assert np.isrealobj(q) and np.isrealobj(w)
    assert np.array_equal(p, 1j ** (np.arange(D) // j))
    v = p[:, np.newaxis] * q
    scale = np.linalg.norm(g, 2)
    assert np.abs((v * w) @ v.conj().T - 1j * g).max() < 1e-13 * scale
    assert unitarity_defect(v) < 1e-13
    assert np.abs(w + w[::-1]).max() < 1e-13 * scale


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


@pytest.mark.parametrize("D", [5, 6, 8, 16, 33, 64, 128, 512, 4096])
def test_buffers_cover_the_amplitude_floor(D):
    """Each buffer is at least max(4, ceil(2|lam|^2)) for the displacement
    and max(4, ceil(8|mu|)) for the squeeze, or is clipped to D - 4: the
    depth formulas alone cover that floor, so neither takes it."""
    for r in np.concatenate([np.linspace(0.0, 10.0, 401), np.linspace(10.0, 200.0, 191)]):
        d, s = displacement_buffer(r, D), squeeze_buffer(r, D)
        assert d == D - 4 or d >= max(4, math.ceil(2 * r * r))
        assert s == D - 4 or s >= max(4, math.ceil(8 * r))


def _worst(rep, i: int) -> float:
    """The largest interior (i = 0) or boundary (i = 1) deviation of a
    report over both identities and all its points."""
    return max(float(part[i].max()) for part in rep.values())


def test_factorization_report_structure(dim64):
    rep = bch_identity_report(0.3 + 0.2j, 0.25 - 0.1j, dim64)
    assert _worst(rep, 0) < 1e-8
    assert _worst(rep, 1) > _worst(rep, 0)
    assert set(rep) == {"displacement", "squeeze"}
    for interior, _, _ in rep.values():
        assert interior < 1e-8


def test_factorization_interior_small_at_both_sizes():
    # the interior window widens with D (the buffer is relative), so the
    # deviations are not comparable across sizes; both must simply be tiny
    rep32 = bch_identity_report(0.4, 0.3, 32)
    rep64 = bch_identity_report(0.4, 0.3, 64)
    assert _worst(rep32, 0) < 1e-8
    assert _worst(rep64, 0) < 1e-8


def test_factorization_batch_equals_pointwise(dim64, monkeypatch):
    """One report over points that repeat values gives, per point, exactly
    the deviations and buffers of that point's own report.  Each identity
    is evaluated once per distinct value of its own parameter: 5 lam and 5
    mu for the default grid's 25 factorization points.  Values are told
    apart by their bits, so 0.0 and -0.0 are evaluated apart."""
    pts = [p for p in grid_points("default") if abs(p.lam) <= 0.5 and abs(p.mu) <= 0.5]
    batches = [
        (np.array([p.lam for p in pts]), np.array([p.mu for p in pts]), [5, 5]),
        (np.array([0.0, -0.0, 0.0, -0.0]), np.array([0.25, -0.0, 0.0, 0.25]), [2, 3]),
    ]
    evaluated = []
    raising_exp = fock._raising_exp
    monkeypatch.setattr(
        fock, "_raising_exp", lambda c, j, D: evaluated.append(np.size(c)) or raising_exp(c, j, D)
    )
    for lam, mu, distinct in batches:
        evaluated.clear()
        rep = bch_identity_report(lam, mu, dim64)
        assert evaluated == distinct
        assert set(rep) == {"displacement", "squeeze"}
        assert all(a.shape == lam.shape for part in rep.values() for a in part)
        for k in range(len(lam)):
            one = bch_identity_report(lam[k], mu[k], dim64)
            for name, (interior, boundary, buffer) in one.items():
                assert interior.shape == boundary.shape == buffer.shape == ()
                assert buffer.dtype.kind == "i"
                assert [a[k] for a in rep[name]] == [interior, boundary, buffer]


@pytest.mark.parametrize("mu, D", [(-0.014 + 0.038j, 64), (0.026 - 0.006j, 96)])
def test_squeeze_buffer_holds_the_truncation(mu, D):
    """Inside its buffer the truncated squeeze agrees with the squeeze on
    4D levels (`scipy.linalg.expm`) to 1e-12, so the report's squeeze
    interior holds roundoff only.  `squeeze_buffer` gives 19 levels at the
    first point, where the truncation needs 14; a buffer shallower than 14
    would let the report read the truncation error."""

    def squeeze(n: int) -> np.ndarray:
        kp = make_operators(n)["K_plus"]
        return scipy.linalg.expm(mu * kp - np.conj(mu) * kp.conj().T)

    inner = D - squeeze_buffer(mu, D)
    truncation = np.abs(squeeze(D) - squeeze(4 * D)[:D, :D])[:inner, :inner].max()
    assert truncation <= 1e-12
    assert bch_identity_report(0.196 - 0.063j, mu, D)["squeeze"][0] <= 1e-12


@pytest.mark.parametrize("mu, D", [(0.5, 64), (1.0, 128)])
def test_squeeze_buffer_is_as_deep_as_the_truncation(mu, D):
    """At large |mu| the squeeze buffer holds the truncation to 1e-12
    against the squeeze on 4D levels (`scipy.linalg.expm`) and is at most 4
    levels deeper than the least buffer that does: 44 and 103 levels here.
    The classical band D (1 - e^{-2|mu|}) plus 12 took 53 and 123."""

    def squeeze(n: int) -> np.ndarray:
        kp = make_operators(n)["K_plus"]
        return scipy.linalg.expm(mu * kp - np.conj(mu) * kp.conj().T)

    dev = np.abs(squeeze(D) - squeeze(4 * D)[:D, :D])
    # worst deviation on the leading k x k block, k = 1..D
    block = np.array([dev[:k, :k].max() for k in range(1, D + 1)])
    needed = D - np.count_nonzero(block <= 1e-12)
    b = squeeze_buffer(mu, D)
    assert block[D - b - 1] <= 1e-12
    assert b - needed <= 4


@pytest.mark.parametrize("lam, D", [(0.5, 64), (0.5 * cmath.exp(0.25j * math.pi), 96)])
def test_displacement_buffer_holds_the_truncation(lam, D):
    """Inside its buffer the truncated displacement agrees with the
    displacement on 4D levels (`scipy.linalg.expm`) to 1e-12, so the
    report's displacement interior holds roundoff only.  The earlier buffer,
    ceil(5 + 10 |lam| sqrt(D / 64)), gives 10 at the first point, where the
    truncation needs 13, and the report read its 3.3e-9."""

    def displacement(n: int) -> np.ndarray:
        a = make_operators(n)["a"]
        return scipy.linalg.expm(lam * a.conj().T - np.conj(lam) * a)

    inner = D - displacement_buffer(lam, D)
    truncation = np.abs(displacement(D) - displacement(4 * D)[:D, :D])[:inner, :inner].max()
    assert truncation <= 1e-12
    assert bch_identity_report(lam, 0.1, D)["displacement"][0] <= 1e-12
