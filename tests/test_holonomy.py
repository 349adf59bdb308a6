import math

import numpy as np
import pytest
import scipy.linalg
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
from berry_holonomy import holonomy
from berry_holonomy.cli import SPAN_SAMPLE_POINTS, main
from berry_holonomy.connection import connection_closed, contract_one_form
from berry_holonomy.curvature import curvature_span_dimension
from berry_holonomy.family import stack_points
from berry_holonomy.holonomy import (
    ALGEBRA_EPS,
    ALGEBRA_STEPS_PER_SIDE,
    ELEMENTWISE_MAX_M,
    PLANE_TANGENTS,
    _TAYLOR,
    _expm,
    _squares,
    _stack_matmul,
    logm,
    loop_one_form,
)
from berry_holonomy.lie import real_lie_closure
from reference import _PADE_LOW, _THETA13, matmul_transport

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


def test_base_point_covariance():
    """Moving the base point one vertex along conjugates W by the transport
    T along the first edge: W(v1 v2 v3 v0) = T W(v0 v1 v2 v3) T+."""
    verts = LOOP_A + [ParameterPoint(-0.25 + 0.1j, 0.3 + 0.15j)]
    w0 = _polygon_w(verts)
    w1 = _polygon_w(verts[1:] + verts[:1])
    t = transport(polygon_loop(verts[:2], samples_per_side=256, closed=False), 3)
    assert np.abs(w1 - w0).max() > 0.1
    assert np.abs(w1 - t @ w0 @ t.conj().T).max() < 1e-12


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


@pytest.mark.parametrize("m", [1, 3])
def test_parallel_transport_batch_of_triangles(m):
    """Two triangles that share the origin, as one polygon of array
    vertices: each entry of the batch is that triangle's own (w, length,
    phases), with lengths of shape (2,) and phases of shape (2, m)."""
    origin = ParameterPoint(0.0, 0.0)
    second = ParameterPoint(np.array([0.3 + 0.1j, -0.2 + 0.25j]), np.array([0.2, 0.1 - 0.3j]))
    third = ParameterPoint(0.1j, -0.3j)
    w, length, phases = parallel_transport(polygon_loop([origin, second, third], 16), m)
    assert w.shape == (2, m, m) and length.shape == (2,) and phases.shape == (2, m)
    for k in range(2):
        corner = ParameterPoint(complex(second.lam[k]), complex(second.mu[k]))
        w_k, length_k, phases_k = parallel_transport(polygon_loop([origin, corner, third], 16), m)
        assert np.abs(w[k] - w_k).max() < 1e-14
        assert length[k] == pytest.approx(length_k, rel=1e-14)
        assert np.abs(phases[k] - phases_k).max() < 1e-14


def test_small_loop_ratio():
    residual, half_residual, ratio = small_loop_check(CENTERS[0], "lmb", 2e-3, 2)
    assert 6.0 <= ratio <= 10.0
    assert residual < 1e-7
    assert ratio == residual / half_residual


def test_small_loop_eps_validation():
    with pytest.raises(ValueError):
        small_loop_check(CENTERS[0], "lm", 0.5, 2)
    with pytest.raises(ValueError):
        small_loop_check(CENTERS[0], "lm", 1e-5, 2)


def test_holonomy_algebra_dimensions():
    assert holonomy_algebra_dimension(CENTERS, 2) == 4
    assert holonomy_algebra_dimension(CENTERS, 3) == 9
    assert holonomy_algebra_dimension(CENTERS, 4) == 16


def test_irreducibility_dimensions_m5():
    """At m = 5 the loop route fills u(5) and the curvature span stays 4."""
    assert holonomy_algebra_dimension(CENTERS, 5) == 25
    assert curvature_span_dimension(SPAN_SAMPLE_POINTS, 5) == 4


def test_transported_curvature_dimensions():
    assert transported_curvature_dimension(CENTERS, 2) == 4
    assert transported_curvature_dimension(CENTERS, 3) == 9
    # from m = 4 on the two centers generate inside u(4)
    for m in (4, 5, 6):
        assert transported_curvature_dimension(CENTERS, m) == 16
    with pytest.raises(ValueError):
        transported_curvature_dimension((), 2)


def test_transported_curvature_stays_in_u4_at_m8():
    """At each center the curvature acts on the top two levels of that
    center's frame, so two centers generate inside u(4): 16, and never
    more than dim u(8) = 64."""
    dim = transported_curvature_dimension(CENTERS, 8)
    assert dim <= 64
    assert dim == 16


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
    assert real_lie_closure([e01]) == 1
    assert real_lie_closure([e01, 2 * e01]) == 1
    # sl(2) from the two nilpotents: commutator adds the Cartan direction
    assert real_lie_closure([1j * (e01 + e10), e01 - e10]) == 3


# -- the numpy matrix functions, against scipy as an independent reference --


def _antihermitian_stack(rng, m, norms):
    """Random anti-hermitian m x m matrices with the given spectral norms."""
    x = rng.normal(size=(len(norms), m, m)) + 1j * rng.normal(size=(len(norms), m, m))
    x = x - x.conj().transpose(0, 2, 1)
    return x * (np.asarray(norms) / np.linalg.norm(x, 2, axis=(1, 2)))[:, None, None]


def _random_unitary(rng, m, max_angle):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return (q * np.exp(1j * rng.uniform(-max_angle, max_angle, m))) @ q.conj().T


def _expm_steps(a):
    """`_expm` of an (n, m, m) stack, which it takes as (m, m, n)."""
    return np.moveaxis(_expm(np.moveaxis(a, 0, -1)), -1, 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_expm_matches_scipy(m):
    """Spectral norms from 1e-8 to just under pi (the Magnus steps' range),
    and a batch with norms up to 40, which needs scaling and squaring."""
    rng = np.random.default_rng(m)
    stacks = [
        _antihermitian_stack(rng, m, np.logspace(-8, math.log10(math.pi * (1 - 1e-9)), 40)),
        _antihermitian_stack(rng, m, np.linspace(6.0, 40.0, 12)),
        np.zeros((3, m, m), dtype=complex),
    ]
    assert np.abs(stacks[1]).sum(axis=-2).max() > 2 * _TAYLOR[-1][1]
    for a in stacks:
        got = _expm_steps(a)
        assert got.shape == a.shape
        for x, e in zip(a, got):
            assert np.abs(e - scipy.linalg.expm(x)).max() < 1e-14


def _with_largest_1norm(stack, norm):
    """The stack rescaled so its largest 1-norm is `norm`, the others keeping
    their ratios to it."""
    return stack * (norm / np.abs(stack).sum(axis=-2).max())


def _assert_expm_close(a):
    got = _expm_steps(a)
    assert got.shape == a.shape
    for x, e in zip(a, got):
        want = scipy.linalg.expm(x)
        assert np.abs(e - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("degree, theta", _TAYLOR)
def test_expm_taylor_degrees_match_scipy(m, degree, theta):
    """Stacks whose largest 1-norm sits just below each theta, so every
    Taylor degree, and the top of its range, is checked against scipy."""
    rng = np.random.default_rng(100 * degree + m)
    a = _antihermitian_stack(rng, m, rng.uniform(0.1, 1.0, 16))
    _assert_expm_close(_with_largest_1norm(a, theta * (1 - 1e-12)))


_PADE_THETAS = [theta for theta, _ in _PADE_LOW] + [_THETA13]


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("degree, theta", zip([3, 5, 7, 9, 13], _PADE_THETAS))
def test_expm_degree_brackets_match_scipy(m, degree, theta):
    """Stacks whose largest 1-norm sits just below the theta of each degree
    of the Pade exponential in `reference`: 1-norms across the Taylor table,
    and 2.1 and 5.4, which take two and three squarings."""
    rng = np.random.default_rng(100 * degree + m)
    a = _antihermitian_stack(rng, m, rng.uniform(0.1, 1.0, 16))
    _assert_expm_close(_with_largest_1norm(a, theta * (1 - 1e-12)))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_expm_scaling_and_mixed_stacks_match_scipy(m):
    """A stack at 1-norm 40 takes scaling and squaring; a stack straddling
    theta_6 is evaluated at degree 9 for all of its matrices, the small
    ones too."""
    rng = np.random.default_rng(200 + m)
    scaled = _with_largest_1norm(_antihermitian_stack(rng, m, rng.uniform(0.5, 1.0, 8)), 40.0)
    _assert_expm_close(scaled)
    thetas = dict(_TAYLOR)
    mixed = _antihermitian_stack(rng, m, np.ones(12))
    mixed = mixed / np.abs(mixed).sum(axis=-2).max(axis=-1)[:, None, None]
    mixed = mixed * np.geomspace(1e-6 * thetas[6], 1.5 * thetas[6], 12)[:, None, None]
    assert np.abs(mixed).sum(axis=-2).max() < thetas[9]
    _assert_expm_close(mixed)


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("steps", [1, 2, 7, 64, 1023])
def test_stack_matmul_matches_matmul(m, steps):
    """The product helper against numpy's matmul on both sides of
    ELEMENTWISE_MAX_M, with the steps contiguous and with each step's
    matrix contiguous (the two layouts `transport` keeps)."""
    rng = np.random.default_rng(10 * m + steps)
    a, b = rng.normal(size=(2, steps, m, m)) + 1j * rng.normal(size=(2, steps, m, m))
    want = a @ b
    for layout in (np.ascontiguousarray, lambda x: x):
        got = _stack_matmul(layout(np.moveaxis(a, 0, -1)), layout(np.moveaxis(b, 0, -1)))
        assert got.shape == (m, m, steps)
        assert np.abs(np.moveaxis(got, -1, 0) - want).max() < 1e-14 * m


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_logm_matches_scipy_on_unitaries(m):
    """Eigenvalue angles up to 3.0, where the Cayley transform reaches
    tan(1.5) ~ 14; the log is the principal one, and exp(log W) returns W."""
    rng = np.random.default_rng(10 + m)
    for _ in range(10):
        w = _random_unitary(rng, m, 3.0)
        log_w = logm(w)
        assert np.abs(log_w - scipy.linalg.logm(w)).max() < 1e-12
        assert np.abs(scipy.linalg.expm(log_w) - w).max() < 1e-12


def test_logm_matches_scipy_on_loop_holonomies():
    """The twelve small-loop holonomies `holonomy_algebra_dimension` takes
    the log of at m = 3."""
    for c in CENTERS:
        for plane in PLANE_TANGENTS:
            w = transport(square_loop(c, plane, ALGEBRA_EPS, ALGEBRA_STEPS_PER_SIDE), 3)
            log_w = logm(w)
            assert np.abs(log_w - scipy.linalg.logm(w)).max() < 1e-14
            assert np.abs(scipy.linalg.expm(log_w) - w).max() < 1e-14


def _rotated(eigenvalues):
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)) + 0j)
    return q @ np.diag(eigenvalues) @ q.conj().T


@pytest.mark.parametrize(
    "w",
    [
        np.diag([-1.0, 1.0]).astype(complex),
        -np.eye(3, dtype=complex),
        _rotated([np.exp(2.0j), -1.0, np.exp(-0.5j)]),
        np.stack(
            [
                np.eye(3, dtype=complex),
                _rotated([np.exp(2.0j), -1.0, np.exp(-0.5j)]),
                _rotated([np.exp(3.0j), np.exp(-3.0j), 1.0]),
            ]
        ).reshape(3, 1, 3, 3),
    ],
    ids=["diag", "minus-identity", "rotated", "one-of-a-stack"],
)
def test_logm_rejects_eigenvalue_at_minus_one(w):
    """No principal log exists; the singular-value check on W + I stops
    `logm` with an error before the Cayley solve, instead of returning
    another branch.  In a stack, one such matrix stops the whole call."""
    with pytest.raises(FloatingPointError, match="matrix logarithm: W has an eigenvalue at -1"):
        logm(w)


NEAR_MINUS_ONE = np.array([math.pi - 1e-6, -(math.pi - 1e-6), 0.5])


def test_logm_principal_branch_near_minus_one():
    """Angles +-(pi - 1e-6) keep their signs: the log is the principal one.
    On a diagonal W the Cayley transform and the arctan are exact to
    roundoff in each angle."""
    w = np.diag(np.exp(1j * NEAR_MINUS_ONE))
    assert np.abs(logm(w) - np.diag(1j * NEAR_MINUS_ONE)).max() < 1e-14


def test_logm_principal_branch_near_minus_one_rotated():
    """The same angles in a rotated basis.  The eigenvalues e^{+-i(pi - d)}
    lie 2d apart, but their logs lie nearly 2 pi apart, so roundoff of size
    eps in W moves the log by about eps/d: that loss is the conditioning of
    the log itself, not of the method."""
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)) + 0j)
    w = q @ np.diag(np.exp(1j * NEAR_MINUS_ONE)) @ q.conj().T
    log_w = q.conj().T @ logm(w) @ q
    assert np.abs(log_w - np.diag(1j * NEAR_MINUS_ONE)).max() < 1e-9


def test_transport_matches_sequential_scipy_product():
    """The pairwise product of the batched Taylor steps against the step loop
    w <- expm(Omega_k) w with scipy's expm, on a polygon whose mu varies."""
    loop = polygon_loop(LOOP_A, samples_per_side=101)
    h, a = loop_one_form(loop, 3)
    a1, a2 = np.moveaxis(a, -1, 1)
    hh = h[:, None, None]
    omega = -0.5 * hh * (a1 + a2) + (math.sqrt(3.0) / 12.0) * hh * hh * (a2 @ a1 - a1 @ a2)
    w = np.eye(3, dtype=complex)
    for x in omega:
        w = scipy.linalg.expm(x) @ w
    u, _, vh = np.linalg.svd(w)
    assert len(omega) == 303
    assert np.abs(transport(loop, 3) - u @ vh).max() < 1e-13


def _seeded_polygon():
    rng = np.random.default_rng(29)
    z = rng.uniform(0, 0.8, (5, 2)) * np.exp(2j * np.pi * rng.uniform(size=(5, 2)))
    return polygon_loop([ParameterPoint(lam, mu) for lam, mu in z], samples_per_side=41)


# odd step counts (1023, 5, 7, 205) leave a last step over at some level of
# the pairwise product
REFERENCE_LOOPS = {
    "circle-mu0": lambda_circle(0.5, 0.0, samples=1023),
    "circle-mu0.5i": lambda_circle(0.5, 0.5j, samples=1023),
    "circle-mu2": lambda_circle(0.5, 2.0, samples=1023),
    "circle-5-steps": lambda_circle(0.05, 0.5j, samples=5),
    "circle-7-steps": lambda_circle(0.05, 2.0, samples=7),
    "polygon": _seeded_polygon(),
    "square": square_loop(CENTERS[0], "lmb", ALGEBRA_EPS, ALGEBRA_STEPS_PER_SIDE),
}


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("name", list(REFERENCE_LOOPS))
def test_transport_matches_reference(name, m):
    """The solve-free transport against the Pade transport of (steps, m, m)
    stacks through numpy's matmul, on both sides of ELEMENTWISE_MAX_M."""
    loop = REFERENCE_LOOPS[name]
    one_form = loop_one_form(loop, m)
    want = matmul_transport(loop, m, one_form=one_form)
    assert np.abs(transport(loop, m, one_form=one_form) - want).max() < 1e-13


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _batch_cases():
    """(batch, loops): a polygon of array vertices and its polygons one by
    one.  Open segments of 7 steps (odd, so a last step is left over at some
    level of the pairwise product) from the origin, a scalar vertex every
    segment shares; squares at mixed centers and planes; and squares at one
    center with sides from 1e-4 to 1e-1, so the smaller squares' steps take
    a higher Taylor degree in the batch than alone."""
    origin = ParameterPoint(0.0, 0.0)
    ends = CENTERS + (ParameterPoint(-0.4 + 0.1j, 0.2 - 0.3j),)
    centers = CENTERS * 3
    sides = np.array([1e-4, 1e-3, 1e-2, 1e-1])
    return {
        "segments-7-steps": (
            polygon_loop([origin, stack_points(ends)], samples_per_side=7, closed=False),
            [polygon_loop([origin, c], samples_per_side=7, closed=False) for c in ends],
        ),
        "squares": (
            _squares(stack_points(centers), list(PLANE_TANGENTS.values()), ALGEBRA_EPS, 16),
            [square_loop(c, plane, ALGEBRA_EPS, 16) for c, plane in zip(centers, PLANE_TANGENTS)],
        ),
        "squares-mixed-sides": (
            square_loop(CENTERS[1], "mlb", sides, 16),
            [square_loop(CENTERS[1], "mlb", eps, 16) for eps in sides],
        ),
    }


@pytest.mark.parametrize("m", [2, 4, 5, 8])
@pytest.mark.parametrize("name", list(_batch_cases()))
def test_batched_transport_matches_single_loops(name, m):
    """A polygon of array vertices is a batch of polygons: its points and
    velocities are those of its polygons one by one, bit for bit, and each
    W equals the transport of its loop alone, on both sides of
    ELEMENTWISE_MAX_M."""
    batch, loops = _batch_cases()[name]
    _, nodes = batch.gauss_steps()
    point, velocity = batch.point_at(nodes), batch.velocity_at(nodes)
    ws = transport(batch, m)
    assert ws.shape == (len(loops), m, m)
    for k, (loop, w) in enumerate(zip(loops, ws)):
        one = loop.point_at(nodes)
        assert _same_bits(point.lam[k], one.lam) and _same_bits(point.mu[k], one.mu)
        assert all(_same_bits(v[k], u) for v, u in zip(velocity, loop.velocity_at(nodes)))
        assert np.abs(w - transport(loop, m)).max() < 1e-14


def _algebra_loop_holonomies(m, steps_per_side):
    """W of the twelve squares of `holonomy_algebra_dimension`, (2, 6, m, m)."""
    c = stack_points(CENTERS)
    squares = _squares(
        ParameterPoint(c.lam[:, None], c.mu[:, None]),
        list(PLANE_TANGENTS.values()),
        ALGEBRA_EPS,
        steps_per_side,
    )
    return transport(squares, m)


@pytest.mark.parametrize("m", [3, 4])
def test_stacked_logm_equals_per_matrix_logm(m):
    """One `logm` call on the algebra squares' stack gives each matrix's log
    bit for bit as a call on that matrix alone."""
    ws = _algebra_loop_holonomies(m, ALGEBRA_STEPS_PER_SIDE)
    assert _same_bits(logm(ws), np.array([[logm(w) for w in row] for row in ws]))


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("name", ["polygon", "squares"])
def test_loop_one_form_is_the_contraction_moved_to_transport_layout(name, m):
    """`loop_one_form` is `contract_one_form` at every Gauss node, moved to
    (2, m, m, *batch, steps) bit for bit: contiguous up to
    ELEMENTWISE_MAX_M, the steps last; above it every step's matrix is
    contiguous."""
    loop = _seeded_polygon() if name == "polygon" else _batch_cases()["squares"][0]
    h, nodes = loop.gauss_steps()
    x = contract_one_form(connection_closed(loop.point_at(nodes), m), *loop.velocity_at(nodes))
    got_h, a = loop_one_form(loop, m)
    assert _same_bits(got_h, h)
    assert _same_bits(a, np.moveaxis(x, (-3, -2, -1), (0, 1, 2)))
    if m <= ELEMENTWISE_MAX_M:
        assert a.flags.c_contiguous
    else:
        assert a.strides[1:3] == (m * a.itemsize, a.itemsize)


def test_algebra_loop_logs_at_equal_accuracy(monkeypatch):
    """ALGEBRA_STEPS_PER_SIDE is sized at the roundoff floor of the loop
    logs: |log W| is about eps^2 = 1e-4, so machine eps leaves about 1e-12
    of it.  At m = 3 the twelve logs at 2 to 32 steps a side differ from
    those at 4x the steps by 1.5e-12 to 3.9e-12 of the largest log, and by
    3.2e-11 at one step a side, where the Magnus error shows; the gate sits
    between.  The dimensions at m = 3..6 do not move with the step count."""
    coarse = logm(_algebra_loop_holonomies(3, ALGEBRA_STEPS_PER_SIDE))
    fine = logm(_algebra_loop_holonomies(3, 4 * ALGEBRA_STEPS_PER_SIDE))
    assert np.abs(coarse - fine).max() < 1e-11 * np.abs(fine).max()
    dims = [holonomy_algebra_dimension(CENTERS, m) for m in (3, 4, 5, 6)]
    assert dims == [9, 16, 25, 36]
    monkeypatch.setattr(holonomy, "ALGEBRA_STEPS_PER_SIDE", 4 * ALGEBRA_STEPS_PER_SIDE)
    assert [holonomy_algebra_dimension(CENTERS, m) for m in (3, 4, 5, 6)] == dims


def _one_step(omega):
    """The (h, one-form) of one step of length 1 whose Omega is `omega`,
    in the (2, m, m, steps) layout `transport` reads."""
    return np.ones(1), np.broadcast_to(-omega[..., None], (2,) + omega.shape + (1,))


@pytest.mark.parametrize("factor, raises", [(1 - 1e-9, False), (1 + 1e-9, True)])
def test_transport_radius_guard(factor, raises):
    """One step whose i Omega has spectral radius pi * factor: the guard
    passes it just inside the Magnus radius and rejects it just outside."""
    m = 3
    omega = -1j * np.diag([math.pi * factor, 0.3, -1.0])
    one_form = _one_step(omega)
    loop = lambda_circle(0.5, samples=1)
    if raises:
        with pytest.raises(FloatingPointError, match="Magnus convergence radius at 1 samples"):
            transport(loop, m, one_form=one_form)
    else:
        w = transport(loop, m, one_form=one_form)
        assert np.abs(w - np.diag(np.exp(np.diag(omega)))).max() < 1e-14


def _conjugated_step(q, factor):
    return q @ (-1j * np.diag([math.pi * factor, 0.3, -1.0])) @ q.conj().T


@pytest.mark.parametrize("factor, raises", [(1 - 1e-9, False), (1 + 1e-9, True)])
def test_transport_radius_guard_conjugated(factor, raises):
    """The guard's twin in a random basis: Q (-i diag(pi f, 0.3, -1)) Q+,
    whose Frobenius norm exceeds pi, so the eigenvalue test decides."""
    m = 3
    q = _random_unitary(np.random.default_rng(17), m, math.pi)
    omega = _conjugated_step(q, factor)
    one_form = _one_step(omega)
    loop = lambda_circle(0.5, samples=1)
    if raises:
        with pytest.raises(FloatingPointError, match="Magnus convergence radius at 1 samples"):
            transport(loop, m, one_form=one_form)
    else:
        w = transport(loop, m, one_form=one_form)
        assert np.abs(w - scipy.linalg.expm(omega)).max() < 1e-14


def test_transport_guard_falls_back_to_eigenvalues(monkeypatch):
    """A step with |Omega|_F >= pi but spectral radius 0.9 pi passes, and
    only through the `eigvalsh` test."""
    m = 3
    omega = -0.9j * math.pi * np.diag([1.0, -1.0, 1.0])
    assert np.linalg.norm(omega) >= math.pi
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(x.shape) or eigvalsh(x))
    one_form = _one_step(omega)
    w = transport(lambda_circle(0.5, samples=1), m, one_form=one_form)
    assert calls == [(1, m, m)]
    assert np.abs(w - np.diag(np.exp(np.diag(omega)))).max() < 1e-14


def test_holonomy_command_skips_eigenvalue_guard(monkeypatch, tmp_path):
    """Every step of a 4096-sample circle has |Omega|_F < pi, so the guard
    never needs the eigenvalues."""

    def refuse(x):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    out = tmp_path / "w.json"
    argv = ["holonomy", "--m", "3", "--samples", "4096", "--mu", "2", "--out", str(out)]
    assert main(argv) == 0
    assert out.exists()


def test_holonomy_command_makes_no_solve(monkeypatch, tmp_path):
    """The step exponentials are Taylor polynomials, so the command never
    solves a linear system."""

    def refuse(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    out = tmp_path / "w.json"
    argv = ["holonomy", "--m", "3", "--samples", "4096", "--mu", "2", "--out", str(out)]
    assert main(argv) == 0
    assert out.exists()
