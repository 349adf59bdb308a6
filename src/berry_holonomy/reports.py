"""Deterministic JSON helpers and sweep text.

Every report that crosses the CLI boundary serializes complex numbers as
two-element [re, im] arrays and matrices as row-major nested lists, so the
output is plain JSON with no custom decoder needed on the other side.
"""
from __future__ import annotations

import json
from typing import Any, List, Tuple

import numpy as np


def matrix_payload(z) -> list:
    """[re, im] pairs for a complex array of any shape, as nested row-major
    lists: a scalar gives one pair, an m x m matrix m rows of m pairs."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], -1).tolist()


class RawJSON:
    """JSON text that `dump_json` writes into the document as it stands.
    Whoever builds it answers for it being canonical and finite."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


# what the encoder writes in place of a RawJSON before its text is spliced
# in; no payload string holds a NUL (argv cannot carry one, and a grid path
# holding one names no file)
_RAW_MARK = "\x00raw\x00"


def dump_json(obj: Any) -> str:
    """Canonical dump: sorted keys, fixed separators. Identical input
    objects produce byte-identical text.  A NaN or infinity anywhere in
    `obj` raises ValueError; the text of a `RawJSON` is not checked."""
    raw: list = []

    def mark(o):
        if not isinstance(o, RawJSON):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        raw.append(o.text)
        return _RAW_MARK

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=mark)
    if not raw:
        return text
    parts = text.split(json.dumps(_RAW_MARK))
    return "".join(p + t for p, t in zip(parts, raw)) + parts[-1]


def _nested(cells: List[str], shape: Tuple[int, ...]) -> str:
    """Row-major cells as JSON nested lists of the given shape."""
    if len(shape) == 1:
        return "[" + ",".join(cells) + "]"
    k = len(cells) // shape[0]
    rows = [_nested(cells[i : i + k], shape[1:]) for i in range(0, len(cells), k)]
    return "[" + ",".join(rows) + "]"


def render_points(named: List[Tuple[str, np.ndarray]], fmt: str) -> str:
    """The points of a sweep as text.  `named` holds (name, complex stack)
    pairs, points on the first axis.  `fmt` "csv" gives the CSV file: a
    header line, then one line per point, each stack row-major, each value
    as re, im, in the order of `named`; the header names a value
    `name[i][j].re` (`name.re` for a stack of scalars).  "json" gives the
    list of point objects, byte for byte as `dump_json` writes
    `matrix_payload` entries.

    Both come from one real `(points, columns)` table, checked for NaN and
    infinities once, and one `%r` row template in which a column that holds
    the same bits at every point is literal text.  `repr` of a float is the
    text the JSON encoder writes."""
    if fmt == "json":
        named = sorted(named, key=lambda entry: entry[0])
    n = len(named[0][1])
    table = np.concatenate(
        [np.stack([v.real, v.imag], -1).reshape(n, -1) for _, v in named], axis=1
    )
    if not np.isfinite(table).all():
        raise FloatingPointError("non-finite result")
    bits = table.view(np.int64)
    varies = (bits != bits[0]).any(axis=0)
    cells = ["%r" if v else repr(x) for v, x in zip(varies.tolist(), table[0].tolist())]
    values = tuple(table[:, varies].ravel().tolist())
    if fmt == "csv":
        header = [
            name + "".join(f"[{i}]" for i in index) + part
            for name, stack in named
            for index in np.ndindex(stack.shape[1:])
            for part in (".re", ".im")
        ]
        rows = "\n".join([",".join(cells)] * n) % values
        return ",".join(header) + "\n" + rows + "\n"
    fields, at = [], 0
    for name, stack in named:
        shape = stack.shape[1:] + (2,)
        width = int(np.prod(shape))
        fields.append(f"{json.dumps(name)}:{_nested(cells[at : at + width], shape)}")
        at += width
    return ("[" + ",".join(["{" + ",".join(fields) + "}"] * n) + "]") % values
