"""Sweep output: the one-table renderer against the per-point reference text."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berry_holonomy import ParameterPoint, __version__, connection_closed, curvature_closed
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
    assert render_points(named, fmt) == _reference(named, fmt)


def test_render_points_keeps_signed_zeros_apart():
    """A column that is 0.0 except for one -0.0 varies: its bits differ."""
    lam = np.array([0.0, -0.0, 0.0]).astype(complex)
    named = [("lambda", lam), ("mu", np.zeros(3, complex))]
    rows = "0.0,0.0,0.0,0.0\n-0.0,0.0,0.0,0.0\n0.0,0.0,0.0,0.0\n"
    assert render_points(named, "csv") == "lambda.re,lambda.im,mu.re,mu.im\n" + rows


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
