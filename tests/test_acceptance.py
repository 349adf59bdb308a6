"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (visible with -s or in failure output).  The criteria
pin down: closed connection and curvature against the finite-difference
oracle over the standard grid, the wedge-square identity, the dimension of
the holonomy algebra, the operator-factorization identities, commutator
exactness, circle phases, small-loop residual scaling, the generalized
family reduction, and byte-stable verification output.
"""
import json
import time

import numpy as np

from berry_holonomy import (
    COMPONENT_KEYS,
    GeneralizedPoint,
    ParameterPoint,
    bch_identity_report,
    connection_closed,
    connection_numeric,
    curvature_closed,
    curvature_span_dimension,
    f_squared,
    f_squared_from_wedge,
    holonomy_algebra_dimension,
    lambda_circle,
    parallel_transport,
    small_loop_check,
    transported_curvature_dimension,
)
from berry_holonomy.cli import grid_points, main
from berry_holonomy.curvature import PLANE_TANGENTS, _basis
from berry_holonomy.reports import dump_json
from reference import make_operators

GRID = grid_points("default")

CENTERS = (
    ParameterPoint(0.32 + 0.21j, 0.43 + 0.14j),
    ParameterPoint(0.25 - 0.15j, 0.52 + 0.33j),
)

WEDGE_POINTS = (
    ParameterPoint(0.31 + 0.17j, 0.23 - 0.41j),
    ParameterPoint(0.5 + 0.0j, 0.75 + 0.0j),
    ParameterPoint(0.2 - 0.3j, 0.9 + 0.1j),
    ParameterPoint(0.75 * np.exp(0.25j * np.pi), 0.25 + 0.0j),
    ParameterPoint(1.0 + 0.0j, 0.5 + 0.5j),
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


DIM = 128
H = 1e-4


def test_criterion_01_connection_against_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for m in (2, 3, 4):
        for p in GRID:
            closed = connection_closed(p, m)
            oracle = connection_numeric(p, m, DIM, H)
            worst = max(
                worst,
                float(np.abs(closed.a_lambda - oracle.a[0]).max()),
                float(np.abs(closed.a_mu - oracle.a[1]).max()),
            )
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    _line(
        1,
        ok,
        f"connection closed vs oracle: worst {worst:.3e} < 1e-06, "
        f"{len(GRID)} points, m in (2,3,4), D=128, h=1e-4, {elapsed:.1f} s < 60 s",
    )
    assert worst < 1e-6
    assert elapsed < 60.0


def test_criterion_02_curvature_against_oracle():
    worst = {k: 0.0 for k in COMPONENT_KEYS}
    for m in (2, 3, 4):
        neg_mk = -m * _basis(m)[2]
        for p in GRID:
            closed = curvature_closed(p, m)
            assert np.abs(closed.components["llb"] - neg_mk).max() == 0.0
            oracle = connection_numeric(p, m, DIM, H).curvature
            for k in COMPONENT_KEYS:
                worst[k] = max(
                    worst[k],
                    float(np.abs(closed.components[k] - oracle.components[k]).max()),
                )
    top = max(worst.values())
    ok = top < 1e-5
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _line(2, ok, f"curvature components vs oracle, all < 1e-05: {detail}")
    assert top < 1e-5


def test_criterion_03_wedge_square_three_way():
    gate = 0.0
    formula = 0.0
    for m in (2, 3):
        for p in WEDGE_POINTS:
            w_closed = f_squared_from_wedge(curvature_closed(p, m))
            w_oracle = f_squared_from_wedge(connection_numeric(p, m, DIM, H).curvature)
            gate = max(gate, float(np.abs(w_closed - w_oracle).max()))
            formula = max(formula, float(np.abs(w_closed - f_squared(p.mu, m)).max()))
    ok = gate < 1e-5
    _line(
        3,
        ok,
        f"wedge square: closed-vs-oracle {gate:.3e} < 1e-05 "
        f"(closed-vs-formula {formula:.3e}), 5 points, m in (2,3)",
    )
    assert gate < 1e-5


def test_criterion_04_dimension_methods():
    loop2 = holonomy_algebra_dimension(CENTERS, 2)
    moved2 = transported_curvature_dimension(CENTERS, 2)
    span2 = curvature_span_dimension(CENTERS, 2)
    loop3 = holonomy_algebra_dimension(CENTERS, 3)
    moved3 = transported_curvature_dimension(CENTERS, 3)
    span3 = curvature_span_dimension(CENTERS, 3)
    ok2 = loop2 == moved2 == span2 == 4
    ok3 = loop3 == moved3 == 9 and span3 == 4
    _line(
        4,
        ok2 and ok3,
        f"m=2: loop {loop2}, transported {moved2}, span {span2} (want all 4); "
        f"m=3: loop {loop3}, transported {moved3} (want both 9 = dim u(3)), "
        f"span {span3} (want 4)",
    )
    assert ok2
    # Two independent routes to the holonomy algebra at the base point:
    # logarithms of small-loop holonomies, and (Ambrose-Singer) curvature
    # transported back along the same segments.  At m = 3 both fill u(3).
    # The untransported curvature span stays at u(2) on the top two vacuum
    # levels for every m, so it lies strictly below once m > 2.
    assert ok3, (
        f"m=3: loop algebra {loop3}, transported curvature {moved3}, "
        f"curvature span {span3}"
    )


def test_criterion_05_factorization_identities():
    pts = [p for p in GRID if abs(p.lam) <= 0.5 and abs(p.mu) <= 0.5]
    worst = max(
        float(interior)
        for p in pts
        for interior, _, _ in bch_identity_report(p.lam, p.mu, 64).values()
    )
    ok = worst < 1e-8
    _line(
        5,
        ok,
        f"factorization interior: worst {worst:.3e} < 1e-08 over "
        f"{len(pts)} points with |lam|,|mu| <= 0.5, D=64",
    )
    assert worst < 1e-8


def test_criterion_06_commutators_exact():
    ops = make_operators(64)
    a, ad = ops["a"], ops["a_dag"]
    kp, km, k3, num = ops["K_plus"], ops["K_minus"], ops["K_3"], ops["N"]
    comm = lambda x, y: x @ y - y @ x
    cut = slice(0, 60)
    devs = {
        "[a,a+]-1": np.abs((comm(a, ad) - np.eye(64))[cut, cut]).max(),
        "[N,a]+a": np.abs((comm(num, a) + a)[cut, cut]).max(),
        "[K3,K+]-K+": np.abs((comm(k3, kp) - kp)[cut, cut]).max(),
        "[K3,K-]+K-": np.abs((comm(k3, km) + km)[cut, cut]).max(),
        "[K-,K+]-2K3": np.abs((comm(km, kp) - 2 * k3)[cut, cut]).max(),
    }
    worst = max(devs.values())
    ok = worst < 1e-12
    _line(6, ok, f"commutators interior: worst {worst:.3e} < 1e-12 at D=64")
    assert worst < 1e-12


def test_criterion_07_circle_phases():
    worst = 0.0
    for m in (1, 2, 3, 4):
        for r in (0.5, 1.0):
            loop = lambda_circle(r, mu=0.0, samples=4096)
            _, _, phases = parallel_transport(loop, m)
            worst = max(worst, float(np.abs(phases - 2 * np.pi * r * r).max()))
    ok = worst < 1e-6
    _line(
        7,
        ok,
        f"circle phases 2*pi*r^2: worst {worst:.3e} < 1e-06, "
        f"r in (0.5, 1.0), m in 1..4, 4096 samples",
    )
    assert worst < 1e-6


def test_criterion_08_residual_halving():
    ratios = []
    for center in CENTERS:
        for plane in PLANE_TANGENTS:
            ratios.append(small_loop_check(center, plane, 2e-3, 2)[2])
    lo, hi = min(ratios), max(ratios)
    ok = lo >= 6.0 and hi <= 10.0
    _line(
        8,
        ok,
        f"residual halving ratio in [6, 10]: measured [{lo:.2f}, {hi:.2f}] "
        f"over six planes at two centers, m=2",
    )
    assert lo >= 6.0
    assert hi <= 10.0


def test_criterion_09_generalized_reduction():
    lam = 0.3 + 0.2j
    mu0 = 0.175 - 0.05j
    lam2 = 2.0 * mu0
    gen = connection_numeric(GeneralizedPoint((lam, lam2, 0.0)), 3, 64)
    two = connection_numeric(ParameterPoint(lam, lam2), 3, 64)
    reduction = max(
        float(np.abs(gen.a[0] - two.a[0]).max()),
        float(np.abs(gen.a[1] - two.a[1]).max()),
    )
    anti = float(gen.estimated_error)
    ok = reduction < 1e-7 and anti < 1e-7
    _line(
        9,
        ok,
        f"generalized family at lam2 = 2*mu0: reduction {reduction:.3e} < 1e-07, "
        f"anti-hermitian assembly {anti:.3e} < 1e-07, m=3, D=64",
    )
    assert reduction < 1e-7
    assert anti < 1e-7


def test_criterion_10_verification_payload_stable(tmp_path):
    f1 = tmp_path / "first.json"
    f2 = tmp_path / "second.json"
    code1 = main(["verify", "--m", "2", "--out", str(f1)])
    code2 = main(["verify", "--m", "2", "--out", str(f2)])
    p1 = json.loads(f1.read_text())["payload"]
    p2 = json.loads(f2.read_text())["payload"]
    identical = dump_json(p1) == dump_json(p2)
    ok = code1 == 0 and code2 == 0 and identical
    _line(
        10,
        ok,
        f"verification run twice: exit codes ({code1}, {code2}), "
        f"payloads byte-identical: {identical}",
    )
    assert code1 == 0 and code2 == 0
    assert identical
