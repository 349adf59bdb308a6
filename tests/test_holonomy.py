import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berry_holonomy import (
    ClosureNotStabilized,
    ParameterPoint,
    holonomy_algebra_dimension,
    lambda_circle,
    parallel_transport,
    polygon_loop,
    small_loop_check,
    square_loop,
    transport,
    transported_curvature_dimension,
)
from berry_holonomy.lie import numerical_rank, real_lie_closure

CENTERS = (
    ParameterPoint(0.32 + 0.21j, 0.43 + 0.14j),
    ParameterPoint(0.25 - 0.15j, 0.52 + 0.33j),
)


def test_polygon_breakpoints_and_velocity():
    verts = [
        ParameterPoint(0.0, 0.0),
        ParameterPoint(0.5, 0.0),
        ParameterPoint(0.5, 0.5),
    ]
    loop = polygon_loop(verts, samples_per_side=32)
    assert loop.breakpoints == (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
    assert loop.point_at(0.0).lam == 0.0
    assert loop.point_at(1.0).lam == 0.0
    # first side runs lam from 0 to 0.5 over a third of the parameter
    dlam, dmu = loop.velocity_at(0.1)
    assert dlam == pytest.approx(1.5)
    assert dmu == 0.0


def test_polygon_needs_two_vertices():
    with pytest.raises(ValueError):
        polygon_loop([ParameterPoint(0.0, 0.0)])


def test_circle_radius_validation():
    with pytest.raises(ValueError):
        lambda_circle(0.0)


def test_square_loop_plane_validation():
    with pytest.raises(ValueError):
        square_loop(ParameterPoint(0.0, 0.0), "xy", 1e-3)


def test_holonomy_m1_quarter_circle():
    """r = 1/2 circle at mu = 0: the scalar holonomy is exp(-i pi / 2)."""
    loop = lambda_circle(0.5, samples=512)
    w, length, _ = parallel_transport(loop, 1)
    assert abs(w[0, 0] - (-1j)) < 1e-9
    assert length == pytest.approx(np.pi, abs=1e-6)


@given(st.sampled_from([1, 2, 3]), st.floats(min_value=0.2, max_value=0.9))
@settings(max_examples=10)
def test_transport_unitary(m, r):
    loop = lambda_circle(r, mu=0.15j, samples=128)
    w = transport(loop, m)
    assert np.abs(w @ w.conj().T - np.eye(m)).max() < 1e-12


def test_polygon_phases_trace_identity():
    """det W = exp(-oint tr A), so the abelian phases sum to -arg det W
    (mod 2 pi).  mu varies along the sides, so the corners matter."""
    verts = [
        ParameterPoint(0.3 + 0.1j, 0.2),
        ParameterPoint(-0.2 + 0.3j, 0.4 - 0.1j),
        ParameterPoint(-0.1 - 0.3j, -0.3 + 0.2j),
        ParameterPoint(0.25 - 0.2j, 0.1 - 0.35j),
    ]
    loop = polygon_loop(verts, samples_per_side=256)
    w, _, phases = parallel_transport(loop, 3)
    total = phases.sum() + np.angle(np.linalg.det(w))
    assert abs((total + np.pi) % (2 * np.pi) - np.pi) < 1e-9


# vertices of the property tests below; mu varies along every side
V0 = ParameterPoint(0.1 + 0.05j, 0.2 - 0.1j)
LOOP_A = [V0, ParameterPoint(0.45 - 0.1j, 0.35 + 0.2j), ParameterPoint(0.2 + 0.4j, -0.15 + 0.3j)]
LOOP_B = [V0, ParameterPoint(-0.3 + 0.2j, 0.4 - 0.25j), ParameterPoint(-0.1 - 0.35j, 0.1 + 0.45j)]


def _polygon_w(verts):
    return transport(polygon_loop(verts, samples_per_side=256), 3)


def test_loop_reversal_gives_adjoint():
    """Traversing a loop backwards from the same base vertex inverts W."""
    v0, v1, v2 = LOOP_A
    forward = _polygon_w([v0, v1, v2])
    backward = _polygon_w([v0, v2, v1])
    assert np.abs(backward - forward.conj().T).max() < 1e-12


def test_loop_composition():
    """Loop a, then loop b from the same base vertex: W(a + b) = W(b) W(a)."""
    w_ab = _polygon_w(LOOP_A + LOOP_B)
    assert np.abs(w_ab - _polygon_w(LOOP_B) @ _polygon_w(LOOP_A)).max() < 1e-12


@pytest.mark.parametrize("center", [0.7 - 0.3j, -1.1 + 0.4j])
def test_circle_phases_off_origin(center):
    """The abelian phases of a lam-circle are 2 pi r^2 wherever it is centred."""
    loop = lambda_circle(0.5, mu=0.2j, samples=256, center=center)
    _, _, phases = parallel_transport(loop, 3)
    assert np.abs(phases - 2 * np.pi * 0.25).max() < 1e-12


def test_holonomy_converges_at_large_mu():
    w_coarse = transport(lambda_circle(0.5, mu=6.0, samples=1024), 3)
    w_fine = transport(lambda_circle(0.5, mu=6.0, samples=4096), 3)
    assert np.abs(w_coarse - w_fine).max() < 1e-8


def test_open_loop_rejected():
    seg = polygon_loop([ParameterPoint(0, 0), ParameterPoint(0.3, 0)], closed=False)
    with pytest.raises(ValueError):
        parallel_transport(seg, 2)


def test_small_loop_ratio():
    rep = small_loop_check(CENTERS[0], "lmb", 2e-3, 2)
    assert 6.0 <= rep.extras["ratio"] <= 10.0
    assert rep.interior_dev < 1e-7
    assert rep.extras["plane"] == "lmb"


def test_small_loop_eps_validation():
    with pytest.raises(ValueError):
        small_loop_check(CENTERS[0], "lm", 0.5, 2)
    with pytest.raises(ValueError):
        small_loop_check(CENTERS[0], "lm", 1e-5, 2)


def test_holonomy_algebra_dimensions():
    assert holonomy_algebra_dimension(CENTERS, 2) == 4
    assert holonomy_algebra_dimension(CENTERS, 3) == 9


def test_transported_curvature_dimensions():
    assert transported_curvature_dimension(CENTERS, 2) == 4
    assert transported_curvature_dimension(CENTERS, 3) == 9
    with pytest.raises(ValueError):
        transported_curvature_dimension((), 2)


def test_holonomy_algebra_needs_two_centers():
    with pytest.raises(ValueError):
        holonomy_algebra_dimension(CENTERS[:1], 2)


def test_closure_not_stabilized_carries_partial():
    exc = ClosureNotStabilized(7, 3)
    assert exc.partial_dimension == 7
    assert "7" in str(exc)


def test_rank_and_closure_basics():
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    e10 = e01.T.copy()
    assert numerical_rank([e01]) == 1
    assert numerical_rank([e01, 2 * e01]) == 1
    # sl(2) from the two nilpotents: commutator adds the Cartan direction
    dim, stabilized = real_lie_closure([1j * (e01 + e10), e01 - e10])
    assert stabilized
    assert dim == 3
