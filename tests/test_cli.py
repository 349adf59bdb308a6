import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from berry_holonomy import cli, holonomy
from berry_holonomy.cli import (
    ConfigError,
    build_config,
    build_parser,
    grid_points,
    main,
    parse_complex,
)
from berry_holonomy.connection import ConnectionMatrices
from berry_holonomy.lie import ClosureNotStabilized
from berry_holonomy.reports import dump_json


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_parse_complex():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("0.5+0.25i") == 0.5 + 0.25j
    assert parse_complex("-0.3i") == -0.3j
    assert parse_complex(" 1 - 2i ") == 1 - 2j
    with pytest.raises(ConfigError):
        parse_complex("apples")
    with pytest.raises(ConfigError):
        parse_complex("")


def test_named_grids():
    assert len(grid_points("default")) == 81
    assert len(grid_points("small")) == 4
    with pytest.raises(ConfigError):
        grid_points("/no/such/grid.json")


def test_grid_file(tmp_path):
    gf = tmp_path / "g.json"
    gf.write_text('[["0.3+0.2i", "0.1"], ["0.5", "0.25-0.25i"]]')
    pts = grid_points(str(gf))
    assert len(pts) == 2
    assert pts[0].lam == 0.3 + 0.2j
    assert pts[1].mu == 0.25 - 0.25j
    batch = cli.grid_batch(str(gf))
    assert batch.lam.tolist() == [0.3 + 0.2j, 0.5] and batch.mu.tolist() == [0.1, 0.25 - 0.25j]


def test_connection_known_point(tmp_path):
    code, doc = run(["connection", "--m", "3", "--lambda", "0", "--mu", "1"], tmp_path)
    assert code == 0
    entry = doc["payload"]["points"][0]
    assert entry["A_mu"][2][0][0] == pytest.approx(0.99469778779468237, abs=1e-12)
    assert entry["A_mu"][2][0][1] == 0.0
    assert sorted(doc.keys()) == ["meta", "payload"]


def test_connection_csv_headers(tmp_path):
    out = tmp_path / "c.csv"
    code = main([
        "connection", "--m", "2", "--lambda", "0.5", "--mu", "0.3",
        "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header[:4] == ["lambda.re", "lambda.im", "mu.re", "mu.im"]
    assert "A_lambda[0][0].re" in header
    assert "A_mu[1][1].im" in header


def test_curvature_payload_names(tmp_path):
    code, doc = run(["curvature", "--m", "2", "--lambda", "0.2", "--mu", "0.4i"], tmp_path)
    assert code == 0
    entry = doc["payload"]["points"][0]
    for name in (
        "C_lambda_mu",
        "C_lambda_lambdabar",
        "C_lambda_mubar",
        "C_mu_lambdabar",
        "C_mu_mubar",
        "C_lambdabar_mubar",
    ):
        assert name in entry
    c_llb = np.array(entry["C_lambda_lambdabar"])
    assert c_llb[1][1][0] == pytest.approx(-2.0)


@pytest.mark.parametrize(
    "argv, trunc_bound",
    [
        pytest.param(["--m", "2"], (1e-6, 1e-6), id="m2-small"),
        # the default step keeps the m = 4 wedge pair (1.2e-6) under its gate
        pytest.param(["--m", "4", "--grid", "default"], (1e-5, 1e-4), id="m4-default"),
    ],
)
def test_verify_passes_and_is_deterministic(argv, trunc_bound, tmp_path):
    code1, doc1 = run(["verify"] + argv, tmp_path, "v1.json")
    code2, doc2 = run(["verify"] + argv, tmp_path, "v2.json")
    assert code1 == 0 and code2 == 0
    assert doc1["payload"]["passed"] is True
    assert dump_json(doc1["payload"]) == dump_json(doc2["payload"])
    sections = doc1["payload"]["sections"]
    assert set(sections) == {
        "connection",
        "curvature",
        "wedge_square",
        "bch",
        "derivative_identities",
    }
    for sec in sections.values():
        assert sec["passed"] is True
    assert 0.0 < sections["connection"]["max_estimated_error"] < 1e-6
    assert 0.0 < sections["connection"]["max_truncation_error"] < trunc_bound[0]
    assert 0.0 < sections["curvature"]["max_truncation_error"] < trunc_bound[1]


def test_verify_default_grid_accuracy_and_section_times(tmp_path):
    """The oracle's agreement with the closed forms at m = 2 on the default
    grid (2.28e-9 and 1.42e-8 measured) may lose at most 0.025 digits, half
    the bound of the benchmark's digit metrics.  The seconds of each
    section are reported under meta, never in the payload."""
    code, doc = run(["verify", "--m", "2", "--grid", "default"], tmp_path)
    assert code == 0
    sections = doc["payload"]["sections"]
    assert sections["connection"]["max_dev"] <= 2.4e-9
    assert sections["curvature"]["max_dev"] <= 1.5e-8
    seconds = doc["meta"]["section_seconds"]
    assert set(seconds) == {"oracle", "bch", "identities"}
    # the factorization mask on the grid's arrays keeps the points of the
    # per-point abs() filter, the edge points |lam| = 0.5 e^{i pi/4} among them
    assert sections["bch"]["points"] == 25
    assert all(t >= 0.0 for t in seconds.values())
    assert "meta" not in doc["payload"]


def _verify_batches_join(
    monkeypatch, tmp_path, batch: str, spied: str, splits: int, m: str = "2"
):
    """`verify --m M --grid default` with the `spied` function called once
    for the whole grid, then `splits` times with the `batch` size set to 7;
    both runs give the same payload, byte for byte."""
    calls = []
    fn = getattr(cli, spied)
    monkeypatch.setattr(cli, spied, lambda *a: calls.append(1) or fn(*a))
    argv = ["verify", "--m", m, "--grid", "default"]
    _, whole = run(argv, tmp_path, "whole.json")
    assert len(calls) == 1
    monkeypatch.setattr(cli, batch, 7)
    _, split = run(argv, tmp_path, "split.json")
    assert len(calls) == 1 + splits
    assert dump_json(split["payload"]) == dump_json(whole["payload"])


@pytest.mark.parametrize("m", ["2", "4"])
def test_verify_oracle_batches_join_to_one_call(m, monkeypatch, tmp_path):
    """The default grid's 81 points in oracle slices of 7 (the last one
    short) give the payload of the single call, byte for byte, the closed
    forms and wedge squares of each slice included.  The oracle runs once
    per slice: one call for the whole grid, 12 for the split."""
    _verify_batches_join(monkeypatch, tmp_path, "ORACLE_BATCH", "connection_numeric", 12, m)


def test_verify_factorization_batches_join_to_one_report(monkeypatch, tmp_path):
    """The default grid's 25 factorization points in batches of 7 give the
    payload of the single report, byte for byte: a point's deviations do not
    depend on the other values of its batch.  One report for the whole
    grid, 4 for the split."""
    _verify_batches_join(monkeypatch, tmp_path, "BCH_BATCH", "bch_identity_report", 4)


def _verify_peak_bytes(tmp_path, points: int) -> int:
    """The tracemalloc peak of `verify --m 8 --dim 48` on a seeded grid of
    `points` points in the unit bidisk."""
    rng = np.random.default_rng(points)
    disk = lambda: (np.sqrt(rng.random(points)) * np.exp(2j * np.pi * rng.random(points))).tolist()
    text = lambda z: f"{z.real!r}{z.imag:+}i"
    grid = tmp_path / f"grid{points}.json"
    grid.write_text(json.dumps([[text(a), text(b)] for a, b in zip(disk(), disk())]))
    argv = ["verify", "--m", "8", "--dim", "48", "--grid", str(grid)]
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(tmp_path / "v.json")]) in (0, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_does_not_grow_with_the_grid(tmp_path):
    """`verify` walks the grid in oracle slices of `ORACLE_BATCH` and keeps
    only each slice's worst deviations, so 1024 points peak within 1.1 times
    the peak of 128, one slice (about 12.3 MB each, measured; joining every
    slice's oracle output and evaluating the closed forms over the whole
    grid read 12.5 and 29.3 MB)."""
    assert cli.ORACLE_BATCH == 128
    small, large = (_verify_peak_bytes(tmp_path, n) for n in (128, 1024))
    assert large <= 1.1 * small


def test_verify_breach_exit_code(tmp_path):
    # an absurd tolerance forces a breach without touching the math
    code, doc = run(["verify", "--m", "2", "--tolerance", "1e-30"], tmp_path)
    assert code == 1
    assert doc["payload"]["passed"] is False


def test_verify_far_grid_falls_back_to_fixed_factorization_point(tmp_path):
    """A grid with no point inside |lam|, |mu| <= 0.5 still runs the
    factorization check, at its one fixed point."""
    grid = tmp_path / "far.json"
    grid.write_text('[["0.9", "0.8"]]')
    code, doc = run(["verify", "--m", "2", "--grid", str(grid)], tmp_path)
    assert code == 0
    bch = doc["payload"]["sections"]["bch"]
    assert bch["points"] == 1 and bch["passed"] is True


def test_verify_truncation_term_exceeds_stencil_estimate(tmp_path):
    """At D = 48 the cut, not the stencil, limits the oracle: the frame's
    V+ N V deviates from its closed form by 9.8e-4 (measured), 2.1 times
    the connection's deviation (4.7e-4), and dwarfs the conjugate-leg
    estimate (4.6e-10); the connection gate fails on the default grid.  The
    curvature's V+ N^2 V deviation (9.6e-2) exceeds its deviation from the
    closed form (4.7e-3), whose gate fails too."""
    code, doc = run(["verify", "--m", "2", "--dim", "48", "--grid", "default"], tmp_path)
    conn = doc["payload"]["sections"]["connection"]
    assert code == 1 and conn["passed"] is False
    assert conn["max_truncation_error"] > 1e4 * conn["max_estimated_error"]
    assert conn["max_dev"] <= conn["max_truncation_error"] <= 2.5 * conn["max_dev"]
    curv = doc["payload"]["sections"]["curvature"]
    assert curv["passed"] is False
    assert curv["max_truncation_error"] > curv["max_dev"]


def test_bad_config_exit_codes(tmp_path, capsys):
    assert main(["connection", "--m", "0"]) == 2
    assert main(["connection", "--lambda", "nope"]) == 2
    assert main(["connection", "--lambda", "nan"]) == 2
    assert main(["connection", "--mu", "inf"]) == 2
    # verify has no --format flag: argparse rejects it with exit 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--format", "csv"])
    assert exc.value.code == 2
    assert main(["verify", "--tolerance", "nan"]) == 2
    # no deviation can pass a tolerance of zero or below
    assert main(["verify", "--tolerance", "0"]) == 2
    assert main(["verify", "--tolerance", "-1"]) == 2
    # the oracle needs m < D
    for argv in (["--m", "4", "--dim", "4"], ["--m", "2", "--dim", "2"]):
        assert main(["verify"] + argv) == 2
        assert "m must be smaller than the space dimension" in capsys.readouterr().err
    # fewer than two levels is rejected with the settings, for any m
    assert main(["verify", "--dim", "1"]) == 2
    assert "dim must be at least 2" in capsys.readouterr().err
    step_file = tmp_path / "step.cfg"
    step_file.write_text("step = 1\n")
    for argv in (
        ["verify", "--step", "1"],
        ["verify", "--step", "1e-9"],
        ["verify", "--config", str(step_file)],
    ):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert "step size out of the supported range" in capsys.readouterr().err
        assert not out.exists()
    # both bounds are inclusive; checked when the settings are read, before any oracle
    parser = build_parser()
    for step in ("1e-8", "1e-2"):
        assert build_config(parser.parse_args(["verify", "--step", step])).step == float(step)
    assert main(["verify", "--step", "0.0100001"]) == 2
    assert "step size out of the supported range" in capsys.readouterr().err
    assert main(["connection", "--m", "2", "--grid", "/missing.json"]) == 2
    assert main(["holonomy", "--loop", "/missing.json"]) == 2
    capsys.readouterr()
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    for argv in (
        ["verify", "--grid", str(empty)],
        ["connection", "--grid", str(empty)],
        ["connection", "--grid", str(empty), "--format", "csv"],
    ):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert f"grid {str(empty)!r} holds no points" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dim", "100000000"],
        ["holonomy", "--samples", "10000000000000000"],
        ["connection", "--grid", "small", "--m", "3000000"],
    ],
)
def test_allocation_failure_exit_code(argv, tmp_path, capsys):
    # each asks for more than 2^47 bytes, which a 64-bit Linux refuses up front
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exit_code(tmp_path, capsys):
    # one overflowing point among finite ones fails the whole sweep
    grid = tmp_path / "g.json"
    grid.write_text('[["0.3", "0.1"], ["0", "0.5i"], ["0.2-0.1i", "400"], ["-0.4", "1"]]')
    for argv in (
        # cosh overflows in the closed curvature; that is exit 3, not 1 or 2
        ["curvature", "--mu", "1e308"],
        # finite inputs whose closed forms overflow
        ["connection", "--mu", "400"],
        ["connection", "--mu", "400", "--format", "csv"],
        ["curvature", "--mu", "400"],
        ["curvature", "--mu", "400", "--format", "csv"],
        ["chern", "--mu", "400"],
        ["connection", "--grid", str(grid)],
        ["connection", "--grid", str(grid), "--format", "csv"],
        ["curvature", "--grid", str(grid)],
        ["curvature", "--grid", str(grid), "--format", "csv"],
        # transport steps outside the Magnus convergence radius
        ["holonomy", "--mu", "40", "--samples", "64"],
        ["holonomy", "--m", "3", "--mu", "8"],
    ):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3, argv
        # one line naming the failure, no RuntimeWarning before it
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, (argv, err)
        assert not out.exists()
    assert main(["connection", "--mu", "400"]) == 3
    assert capsys.readouterr().err == "numerical failure: overflow encountered in multiply\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_result_exit_code(fmt, monkeypatch, tmp_path, capsys):
    """A NaN that no numpy operation flagged still exits 3 and writes nothing."""

    def nan_connection(p, m):
        nan = np.full(np.shape(p.lam) + (m, m), np.nan, dtype=complex)
        return ConnectionMatrices(nan, nan)

    monkeypatch.setattr("berry_holonomy.cli.connection_closed", nan_connection)
    out = tmp_path / "out"
    assert main(["connection", "--grid", "small", "--format", fmt, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: non-finite result\n"
    assert not out.exists()


def test_closure_failure_exit_code(monkeypatch, capsys):
    def unstable(*args, **kwargs):
        raise ClosureNotStabilized(7, 6)

    monkeypatch.setattr("berry_holonomy.cli.holonomy_algebra_dimension", unstable)
    assert main(["irreducibility", "--m", "2"]) == 3
    assert "partial dimension 7" in capsys.readouterr().err


def test_log_failure_exit_code(monkeypatch, capsys):
    """A loop holonomy with an eigenvalue at -1 has no principal log: the
    irreducibility check exits 3 with a message naming the logarithm."""

    def minus_identity(loop, m, **kw):
        """-I for every loop of the batch."""
        batch = np.shape(loop.at(0.0)[0].lam)
        return np.broadcast_to(-np.eye(m, dtype=complex), batch + (m, m))

    monkeypatch.setattr("berry_holonomy.holonomy.transport", minus_identity)
    assert main(["irreducibility", "--m", "2"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: matrix logarithm")


def run_python(*args, **env_vars):
    """A fresh interpreter on the package's source tree, warnings as errors;
    each keyword sets an environment variable, or unsets it when None."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONWARNINGS"] = "error"
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


def test_cli_import_loads_no_scipy():
    """The package needs numpy only; importing the CLI loads no scipy module."""
    proc = run_python(
        "-c",
        "import sys, berry_holonomy.cli; "
        "print([k for k in sys.modules if k.split('.')[0] == 'scipy'])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_irreducibility():
    """`python -m berry_holonomy.cli` runs a command through the module's
    __main__ guard and prints exactly the irreducibility payload keys."""
    proc = run_python("-m", "berry_holonomy.cli", "irreducibility", "--m", "2")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    assert set(payload) == {
        "algebra_dim",
        "curvature_span_dim",
        "irreducible",
        "m",
        "u_m_dim",
        "version",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "2", "--grid", "small"],
        ["holonomy", "--m", "3", "--mu", "2", "--samples", "512"],
        ["irreducibility", "--m", "3"],
    ],
)
def test_blas_threads_never_change_payload(argv):
    """One OpenBLAS thread or OpenBLAS's default count: the payload, all of
    the document after `meta`, is the same bytes."""
    payloads = []
    for threads in ("1", None):
        proc = run_python("-m", "berry_holonomy.cli", *argv, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith('{"meta":')
        payloads.append(proc.stdout[proc.stdout.index(',"payload":') :])
    assert payloads[0] == payloads[1]


def test_holonomy_beyond_physical_memory_exit_code(monkeypatch, tmp_path, capsys):
    """A loop whose transport needs more than the physical memory exits 2
    with the bytes named, before any step array is built; the memory figure
    is patched, so nothing large is allocated."""
    need = 4096 * (holonomy._STEP_BYTES_PER_M2 * 4 + holonomy._STEP_BYTES_FIXED)
    monkeypatch.setattr(holonomy, "_physical_memory", lambda: need - 1)
    out = tmp_path / "out"
    assert main(["holonomy", "--m", "2", "--samples", "4096", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: Unable to allocate {need} bytes for 4096 loop steps")
    assert not out.exists()
    monkeypatch.setattr(holonomy, "_physical_memory", lambda: need)
    assert main(["holonomy", "--m", "2", "--samples", "4096", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["connection", "curvature"])
def test_csv_matches_json(command, tmp_path):
    """Each CSV cell is the text of the matching JSON float, -0.0 included."""
    grid = tmp_path / "g.json"
    grid.write_text(
        '[["-0.0", "0"], ["0.3-0.0i", "0.5+0.2i"], ["0.5", "-0.0"], ["0", "0.00005i"], ["1", "-1.3"]]'
    )
    argv = [command, "--m", "4", "--grid", str(grid)]
    _, doc = run(argv, tmp_path)
    csv_out = tmp_path / "out.csv"
    assert main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    header = lines[0].split(",")
    points = doc["payload"]["points"]
    assert len(lines) - 1 == len(points) == 5
    negative_zeros = 0
    for line, entry in zip(lines[1:], points):
        cells = dict(zip(header, line.split(",")))
        expected = {}
        for name, value in entry.items():
            if name in ("lambda", "mu"):
                expected[f"{name}.re"], expected[f"{name}.im"] = map(repr, value)
                continue
            for i, row in enumerate(value):
                for j, (re, im) in enumerate(row):
                    expected[f"{name}[{i}][{j}].re"] = repr(re)
                    expected[f"{name}[{i}][{j}].im"] = repr(im)
        assert cells == expected
        negative_zeros += list(cells.values()).count("-0.0")
    assert negative_zeros > 0


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("m = 3\ngrid = small  # four points\nformat = json\n")
    code, doc = run(
        ["connection", "--config", str(cfg), "--lambda", "0", "--mu", "1"], tmp_path
    )
    assert code == 0
    assert doc["payload"]["m"] == 3
    code, doc = run(
        ["connection", "--config", str(cfg), "--m", "2", "--lambda", "0", "--mu", "1"],
        tmp_path,
        "o2.json",
    )
    assert doc["payload"]["m"] == 2


def test_grid_with_point_flags_is_rejected(tmp_path, capsys):
    """--grid and a point flag name different points: exit 2, nothing written."""
    for argv, given in (
        (["connection", "--grid", "default", "--lambda", "0.3"], "--lambda"),
        (["curvature", "--grid", "small", "--mu", "0.2i", "--format", "csv"], "--mu"),
        (["connection", "--grid", "small", "--lambda", "0", "--mu", "1"], "--lambda and --mu"),
    ):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: --grid and {given} both given")
        assert not out.exists()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("banana = 3\n")
    assert main(["connection", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_settings_are_per_command(tmp_path, capsys):
    """A setting the command does not read is neither a flag nor a config key."""
    cfg = tmp_path / "run.conf"
    cfg.write_text("m = 2\nstep = 1e-4\n")
    assert main(["connection", "--config", str(cfg)]) == 2
    assert "unknown config key 'step'" in capsys.readouterr().err
    for argv in (
        ["connection", "--samples", "64"],
        ["holonomy", "--grid", "small"],
        ["irreducibility", "--dim", "64"],
        ["chern", "--tolerance", "1e-3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_holonomy_default_circle(tmp_path):
    code, doc = run(["holonomy", "--m", "2", "--samples", "512"], tmp_path)
    assert code == 0
    payload = doc["payload"]
    assert payload["samples"] == 512
    assert payload["path_length"] == pytest.approx(np.pi, abs=1e-6)
    for phase in payload["diagonal_phases"]:
        assert phase == pytest.approx(2 * np.pi * 0.25, abs=1e-9)
    w = np.array([[complex(re, im) for re, im in row] for row in payload["w"]])
    assert np.abs(w @ w.conj().T - np.eye(2)).max() < 1e-12


def test_holonomy_loop_file(tmp_path):
    lf = tmp_path / "loop.json"
    lf.write_text('[["0.3", "0"], ["0", "0.3"], ["-0.3", "0"], ["0", "-0.3"]]')
    code, doc = run(["holonomy", "--m", "2", "--loop", str(lf), "--samples", "1024"], tmp_path)
    assert code == 0
    w = doc["payload"]["w"]
    assert len(w) == 2 and len(w[0]) == 2


def test_holonomy_loop_file_must_be_a_list(tmp_path, capsys):
    """The loop file is a JSON list of vertices; an object that wraps one,
    such as {"vertices": [...]}, is a configuration error."""
    lf = tmp_path / "loop.json"
    lf.write_text('{"vertices": [["0.3", "0"], ["0", "0.3"], ["-0.3", "0"]]}')
    out = tmp_path / "out"
    assert main(["holonomy", "--m", "2", "--loop", str(lf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "loop file must hold a JSON list of [lam, mu] vertices" in err
    assert not out.exists()


def test_holonomy_loop_file_with_mu_is_rejected(tmp_path, capsys):
    """--mu sets the mu of the default circle; with a --loop file, whose
    vertices carry their own mu, it is a configuration error, not ignored."""
    lf = tmp_path / "loop.json"
    lf.write_text('[["0.3", "0"], ["0", "0.3"], ["-0.3", "0"]]')
    out = tmp_path / "out"
    argv = ["holonomy", "--m", "2", "--loop", str(lf), "--mu", "0.7", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --loop and --mu both given")
    assert not out.exists()


@pytest.mark.parametrize("samples, steps", [(4, 96), (4096, 4092)])
def test_holonomy_loop_file_reports_steps_taken(tmp_path, samples, steps):
    """A --loop polygon takes max(16, samples // sides) steps a side, and the
    payload's samples is the steps taken: on six sides 16 x 6 = 96 for
    --samples 4, and 682 x 6 = 4092 for --samples 4096."""
    lf = tmp_path / "loop.json"
    lf.write_text(
        '[["0.3", "0"], ["0.2", "0.2"], ["0", "0.3"], ["-0.3", "0"], ["0", "-0.3"], ["0.2", "-0.2"]]'
    )
    argv = ["holonomy", "--m", "2", "--loop", str(lf), "--samples", str(samples)]
    code, doc = run(argv, tmp_path)
    assert code == 0
    assert doc["payload"]["samples"] == steps


@pytest.mark.parametrize(
    "m",
    [
        2,
        # 3 and 4: the m of the benchmark's irreducibility workload
        3,
        4,
        # above ELEMENTWISE_MAX_M: the transports go through numpy's matmul,
        # and the loop route still fills u(6)
        6,
        # from m = 9 on, the loop route's rank cut is close to RANK_RTOL; the
        # closure stays inside u(9) and reads dim u(9), not dim gl(9, C) = 162
        9,
    ],
)
def test_irreducibility(tmp_path, m):
    code, doc = run(["irreducibility", "--m", str(m)], tmp_path)
    assert code == 0
    payload = doc["payload"]
    assert payload["algebra_dim"] == m * m
    assert payload["curvature_span_dim"] == 4
    assert payload["irreducible"] is True


def test_chern_values(tmp_path):
    code, doc = run(["chern", "--m", "2", "--mu", "1"], tmp_path)
    assert code == 0
    payload = doc["payload"]
    cs = np.cosh(1.0) * np.sinh(1.0)
    assert payload["tr_f_squared"][0] == pytest.approx(-4.0 * cs, abs=1e-12)
    assert payload["tr_f_squared_normalized"][0] == pytest.approx(
        4.0 * cs / (4 * np.pi ** 2), abs=1e-12
    )


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_main_calls_share_the_parser_and_nothing_else(monkeypatch, tmp_path):
    """One process builds the parser once; each `main` call still parses
    into a namespace of its own, so no flag of an earlier command, of the
    same subcommand or another, shows in a later one."""
    argvs = [
        ["connection", "--m", "3", "--lambda", "0.4", "--mu", "0.2i"],
        ["curvature", "--grid", "small", "--format", "csv"],
        ["connection", "--mu", "0.1"],
        ["chern"],
    ]
    seen = []
    run_parsed = cli.run
    monkeypatch.setattr(cli, "run", lambda args: seen.append(vars(args).copy()) or run_parsed(args))
    for k, argv in enumerate(argvs):
        assert main(argv + ["--out", str(tmp_path / f"{k}.out")]) == 0
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()
    for argv, args in zip(argvs, seen):
        assert args == vars(fresh.parse_args(argv + ["--out", args["out"]]))
