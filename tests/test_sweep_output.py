"""Sweep output: the one-table renderer against the per-point reference text."""
import json
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berry_holonomy import ParameterPoint, __version__, cli, connection_closed, curvature_closed
from berry_holonomy import reports
from berry_holonomy.cli import grid_points, main
from berry_holonomy.curvature import COMPONENT_KEYS, COMPONENT_NAMES
from berry_holonomy.reports import dump_json, matrix_payload, render_points

# signed zeros, the smallest subnormal, a mid subnormal, values near 1e300
# and the largest double, next to ordinary and arbitrary finite floats
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1e300, -1e300, 1.7976931348623157e308]
SPECIAL += [0.1, -1.0]
MATRIX_NAMES = ["A_lambda", "A_mu", "C_lambda_mu", "C_mu_mubar", "B"]
finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def _csv_header(named) -> str:
    """name[i][j].re, name[i][j].im for each matrix cell row-major, name.re,
    name.im for a stack of scalars."""
    headers = [
        f"{name}{cell}.{part}"
        for name, values in named
        for cell in (
            [f"[{i}][{j}]" for i in range(values.shape[1]) for j in range(values.shape[2])]
            if values.ndim == 3
            else [""]
        )
        for part in ("re", "im")
    ]
    return ",".join(headers)


def _reference(named, fmt: str) -> str:
    """The text the per-point path wrote: the header and repr joins per row,
    or dump_json of one dict per point built from the matrix_payload of each
    column."""
    if fmt == "csv":
        n = len(named[0][1])
        table = np.concatenate(
            [np.stack([v.real, v.imag], -1).reshape(n, -1) for _, v in named], axis=1
        )
        rows = [",".join(map(repr, row)) for row in table.tolist()]
        return "\n".join([_csv_header(named)] + rows) + "\n"
    names = [name for name, _ in named]
    columns = [matrix_payload(v) for _, v in named]
    return dump_json([dict(zip(names, entry)) for entry in zip(*columns)])


@st.composite
def float_tables(draw):
    """A (points, columns) float table and its named complex stacks: lambda,
    mu, then k matrices of m x m, laid out as a sweep table is."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(MATRIX_NAMES), min_size=1, max_size=3, unique=True))
    width = 2 * (2 + len(names) * m * m)
    all_constant = draw(st.booleans())
    columns = []
    for c in range(width):
        kind = "constant" if all_constant else draw(st.sampled_from(["free", "constant", "repeat"]))
        if kind == "repeat" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "constant":
            columns.append([draw(finite)] * n)
        else:
            columns.append(draw(st.lists(finite, min_size=n, max_size=n)))
    table = np.ascontiguousarray(np.array(columns, dtype=float).T)
    z = table.view(complex)
    named = [("lambda", z[:, 0]), ("mu", z[:, 1])]
    for i, name in enumerate(names):
        named.append((name, z[:, 2 + i * m * m : 2 + (i + 1) * m * m].reshape(n, m, m)))
    return named


@settings(max_examples=100)
@given(float_tables(), st.sampled_from(["json", "csv"]))
def test_render_points_matches_reference(named, fmt):
    assert "".join(render_points(named, fmt)) == _reference(named, fmt)


@settings(max_examples=50)
@given(float_tables(), st.sampled_from(["json", "csv"]), st.sampled_from([1, 40, 150, 400]))
def test_render_points_in_small_blocks(named, fmt, block_chars):
    """With a few rows or one row a block, the blocks join to the reference
    text, and between the header or bracket and the closing newline or
    bracket each block holds whole rows."""
    with mock.patch.object(reports, "BLOCK_CHARS", block_chars):
        blocks = render_points(named, fmt)
    assert "".join(blocks) == _reference(named, fmt)
    lead, rows, tail = blocks[0], blocks[1:-1], blocks[-1]
    if fmt == "json":
        assert (lead, tail) == ("[", "]")
        assert rows[0].startswith("{") and all(b.startswith(",{") for b in rows[1:])
        assert all(b.endswith("}") for b in rows)
    else:
        assert (lead, tail) == (_csv_header(named) + "\n", "\n")
        assert all(b.startswith("\n") for b in rows[1:])
        assert not any(b.endswith("\n") for b in rows)
    # a point object holds one "{"; CSV rows are separated by newlines
    counts = [b.count("{") if fmt == "json" else b.lstrip("\n").count("\n") + 1 for b in rows]
    assert sum(counts) == len(named[0][1])
    assert len(set(counts[:-1])) <= 1 and counts[-1] <= counts[0]
    if block_chars == 1:
        assert set(counts) == {1}


def test_render_points_keeps_signed_zeros_apart():
    """A column that is 0.0 except for one -0.0 varies: its bits differ."""
    lam = np.array([0.0, -0.0, 0.0]).astype(complex)
    named = [("lambda", lam), ("mu", np.zeros(3, complex))]
    rows = "0.0,0.0,0.0,0.0\n-0.0,0.0,0.0,0.0\n0.0,0.0,0.0,0.0\n"
    assert "".join(render_points(named, "csv")) == "lambda.re,lambda.im,mu.re,mu.im\n" + rows


def _closed_named(command: str, points, m: int):
    batch = ParameterPoint(
        np.array([p.lam for p in points], dtype=complex),
        np.array([p.mu for p in points], dtype=complex),
    )
    if command == "connection":
        cm = connection_closed(batch, m)
        fields = [("A_lambda", cm.a_lambda), ("A_mu", cm.a_mu)]
    else:
        form = curvature_closed(batch, m)
        fields = [(COMPONENT_NAMES[k], form.components[k]) for k in COMPONENT_KEYS]
    return [("lambda", batch.lam), ("mu", batch.mu)] + fields


def _flatten(value) -> list:
    return [x for item in value for x in _flatten(item)] if isinstance(value, list) else [value]


def _expected_text(command: str, points, m: int, fmt: str) -> str:
    """The JSON payload or the CSV file, built from matrix_payload entries."""
    named = _closed_named(command, points, m)
    names = [name for name, _ in named]
    entries = [dict(zip(names, e)) for e in zip(*(matrix_payload(v) for _, v in named))]
    if fmt == "json":
        return dump_json({"version": __version__, "m": m, "points": entries})
    rows = [",".join(repr(x) for name in names for x in _flatten(e[name])) for e in entries]
    return "\n".join([_csv_header(named)] + rows) + "\n"


def _signed_zero_grid(path) -> str:
    """A seeded grid whose lambda.re and mu.im columns hold only 0.0 and -0.0."""
    rng = np.random.default_rng(17)
    pairs = []
    for _ in range(24):
        lam_re, mu_im = rng.choice([0.0, -0.0], size=2).tolist()
        lam_im, mu_re = rng.uniform(-0.9, 0.9, size=2).round(3).tolist()
        pairs.append([f"{lam_re!r}{lam_im:+}i", f"{mu_re!r}{mu_im:+}i"])
    path.write_text(json.dumps(pairs))
    return str(path)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["connection", "curvature"])
@pytest.mark.parametrize(
    "m, grid", [(1, "default"), (2, "default"), (4, "default"), (6, "default"), (3, "signed-zeros")]
)
def test_sweep_output_is_byte_identical(command, m, grid, fmt, tmp_path):
    if grid == "signed-zeros":
        grid = _signed_zero_grid(tmp_path / "grid.json")
    out = tmp_path / f"out.{fmt}"
    assert main([command, "--m", str(m), "--grid", grid, "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    expected = _expected_text(command, grid_points(grid), m, fmt)
    if fmt == "json":
        key = '"payload":'
        assert text.endswith("}\n")
        text = text[text.index(key) + len(key) : -2]
    assert text == expected
    if grid.endswith("grid.json") and fmt == "csv":
        column = [row.split(",")[0] for row in text.splitlines()[1:]]
        assert set(column) == {"0.0", "-0.0"}


def _seeded_grid(path, n: int, seed: int = 5) -> str:
    """n points with |lam|, |mu| <= 1, rounded to six decimals as a user's
    grid file would hold them."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-0.7, 0.7, size=(n, 2)) + 1j * rng.uniform(-0.7, 0.7, size=(n, 2))
    text = lambda w: f"{w.real!r}{w.imag:+}i"
    path.write_text(json.dumps([[text(lam), text(mu)] for lam, mu in z.round(6).tolist()]))
    return str(path)


def _block_counts(monkeypatch) -> list:
    """The number of blocks each `render_points` call of the CLI returns."""
    counts, render = [], cli.render_points

    def spy(*args):
        blocks = render(*args)
        counts.append(len(blocks))
        return blocks

    monkeypatch.setattr(cli, "render_points", spy)
    return counts


def _payload_text(text: str) -> str:
    key = '"payload":'
    return text[text.index(key) + len(key) : -2]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["connection", "curvature"])
@pytest.mark.parametrize("m", [4, 8])
def test_multi_block_sweep_is_byte_identical(command, m, fmt, monkeypatch, tmp_path):
    """With 16 KB blocks a seeded 160-point grid spans at least three
    blocks of rows, and `main` writes the text of the per-point reference."""
    grid = _seeded_grid(tmp_path / "grid.json", 160)
    monkeypatch.setattr(reports, "BLOCK_CHARS", 1 << 14)
    counts = _block_counts(monkeypatch)
    out = tmp_path / f"out.{fmt}"
    assert main([command, "--m", str(m), "--grid", grid, "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    assert (_payload_text(text) if fmt == "json" else text) == _expected_text(
        command, grid_points(grid), m, fmt
    )
    # the lead and the tail, then at least three blocks of rows
    assert counts[0] >= 5


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_multi_block_stdout_matches_out_file(fmt, monkeypatch, tmp_path, capsysbinary):
    """A sweep written to stdout has the bytes of the same sweep written to
    --out, over many blocks of rows (the JSON up to its meta)."""
    grid = _seeded_grid(tmp_path / "grid.json", 400)
    argv = ["curvature", "--m", "8", "--grid", grid, "--format", fmt]
    counts = _block_counts(monkeypatch)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    printed, written = capsysbinary.readouterr().out, out.read_bytes()
    if fmt == "json":
        printed, written = (_payload_text(t.decode()) for t in (printed, written))
    assert printed == written
    assert min(counts) >= 5


def test_runtime_seconds_covers_rendering(monkeypatch, tmp_path):
    """Every block is rendered before the handler returns, so a slow
    rendering shows in `meta.runtime_seconds`."""
    render = cli.render_points

    def slow(*args):
        time.sleep(0.25)
        return render(*args)

    monkeypatch.setattr(cli, "render_points", slow)
    out = tmp_path / "out.json"
    assert main(["curvature", "--m", "4", "--grid", "default", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["runtime_seconds"] >= 0.25


def test_csv_sweep_peak_memory(tmp_path):
    """`curvature --m 8 --format csv` over 2000 points (7.9 MB of text)
    peaks under 40 MB of traced allocations: the text is rendered, held
    and written a block at a time, and the full float table is dropped once
    its varying columns are taken.  Rendering the whole text as one string
    peaked at 58 MB; blocks peak at 27 MB."""
    grid = _seeded_grid(tmp_path / "grid.json", 2000)
    argv = ["curvature", "--m", "8", "--grid", grid, "--format", "csv"]
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
