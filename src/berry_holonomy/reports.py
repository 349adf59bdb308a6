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
    """JSON text that `dump_json` writes into the document as it stands,
    held as a list of blocks that are written in order and never joined.
    Whoever builds it answers for the text being canonical and finite."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: List[str]):
        self.blocks = blocks


# what the encoder writes in place of a RawJSON before its blocks are spliced
# in; no payload string holds a NUL (argv cannot carry one, and a grid path
# holding one names no file)
_RAW_MARK = "\x00raw\x00"


def dump_json(obj: Any, pieces: bool = False):
    """Canonical dump: sorted keys, fixed separators. Identical input
    objects produce byte-identical text.  A NaN or infinity anywhere in
    `obj` raises ValueError; the text of a `RawJSON` is not checked.
    With `pieces` the text comes as a list of strings to be written in
    order, each `RawJSON` block one of them, uncopied; else as one str."""
    raw: list = []

    def mark(o):
        if not isinstance(o, RawJSON):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        raw.append(o.blocks)
        return _RAW_MARK

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=mark)
    parts = text.split(json.dumps(_RAW_MARK)) if raw else [text]
    out = parts[:1]
    for blocks, part in zip(raw, parts[1:]):
        out += blocks
        out.append(part)
    return out if pieces else "".join(out)


def _nested(cells: List[str], shape: Tuple[int, ...]) -> str:
    """Row-major cells as JSON nested lists of the given shape."""
    if len(shape) == 1:
        return "[" + ",".join(cells) + "]"
    k = len(cells) // shape[0]
    rows = [_nested(cells[i : i + k], shape[1:]) for i in range(0, len(cells), k)]
    return "[" + ",".join(rows) + "]"


# Characters of sweep text per block.  Rendering holds the cell strings of
# one block at a time (some 13k of them, about 1 MB, at 256 KB of text)
# rather than of the whole sweep, and each block is written as it stands, so
# no step copies the whole text; the per-block numpy calls and the column
# comparison are spread over hundreds of rows.
BLOCK_CHARS = 1 << 18

# stands for a varying cell in the row text until the row is split at its
# cells; no float text or name holds a NUL
_CELL = "\x00"


def _cell_text(block: np.ndarray) -> np.ndarray:
    """`repr` of every value of a (rows, columns) float block, as an object
    array of its shape.  A column whose bits equal an earlier column's is
    not formatted: it shares that column's strings."""
    columns = np.ascontiguousarray(block.T)
    seen, first, slot = {}, [], []
    for j, column in enumerate(columns):
        k = seen.setdefault(column.tobytes(), len(first))
        if k == len(first):
            first.append(j)
        slot.append(k)
    text = np.array(list(map(repr, columns[first].ravel().tolist())), dtype=object)
    return text.reshape(len(first), len(block))[slot].T


def render_points(named: List[Tuple[str, np.ndarray]], fmt: str) -> List[str]:
    """The points of a sweep as text, a list of blocks to be written in
    order.  `named` holds (name, complex stack) pairs, points on the first
    axis.  `fmt` "csv" gives the CSV file: a header line, then one line per
    point, each stack row-major, each value as re, im, in the order of
    `named`; the header names a value `name[i][j].re` (`name.re` for a
    stack of scalars).  "json" gives the list of point objects, byte for
    byte as `dump_json` writes `matrix_payload` entries.

    Both come from one real `(points, columns)` table, checked for NaN and
    infinities once, and one row text in which a column that holds the
    same bits at every point is literal; the row is split at its varying
    cells into segments.  Between the first block, the header or the
    opening bracket, and the last, the closing newline or bracket, each
    block holds whole rows, about `BLOCK_CHARS` of text, joined from the
    segments and the cell strings; each block past the first starts with
    the row separator.  A row never spans two blocks, so the joined text
    does not depend on the block size.  In each block every varying column
    is `repr`-ed once per distinct bit pattern (`_cell_text`): the closed
    forms repeat columns, such as the sign-carrying structural zeros of
    the curvature and the m-fold diagonal of `A_lambda`.  Over a random
    grid, 148 of the curvature's 196 columns are constant at m = 4 (628 of
    772 at m = 8), as are 33 of the connection's 68, and the varying ones
    hold 18 distinct of 48 (18 of 144 at m = 8; 29 of the connection's 35).
    Bits, not floats, are compared, so 0.0 and -0.0 stay apart.  `repr` of
    a float is the text the JSON encoder writes."""
    if fmt == "json":
        named = sorted(named, key=lambda entry: entry[0])
    n = len(named[0][1])
    # a C-contiguous complex stack viewed as floats is re, im interleaved
    table = np.concatenate(
        [np.ascontiguousarray(v, dtype=complex).view(float).reshape(n, -1) for _, v in named],
        axis=1,
    )
    if not np.isfinite(table).all():
        raise FloatingPointError("non-finite result")
    bits = table.view(np.int64)
    varies = (bits != bits[0]).any(axis=0)
    cells = [_CELL if v else repr(x) for v, x in zip(varies.tolist(), table[0].tolist())]
    varying = table[:, varies]
    del table, bits  # the rows need only the varying columns
    if fmt == "csv":
        header = [
            name + "".join(f"[{i}]" for i in index) + part
            for name, stack in named
            for index in np.ndindex(stack.shape[1:])
            for part in (".re", ".im")
        ]
        row = ",".join(cells)
        sep, lead, tail = "\n", ",".join(header) + "\n", "\n"
    else:
        fields, at = [], 0
        for name, stack in named:
            shape = stack.shape[1:] + (2,)
            width = int(np.prod(shape))
            fields.append(f"{json.dumps(name)}:{_nested(cells[at : at + width], shape)}")
            at += width
        row = "{" + ",".join(fields) + "}"
        sep, lead, tail = ",", "[", "]"
    # every row but the sweep's first starts with the separator
    segments = row.split(_CELL)
    segments[0] = sep + segments[0]
    segments = np.array(segments, dtype=object)
    row_chars = sum(map(len, segments)) + sum(len(repr(x)) for x in varying[0].tolist())
    rows = max(1, BLOCK_CHARS // row_chars)
    blocks = [lead]
    for start in range(0, n, rows):
        block = varying[start : start + rows]
        pieces = np.empty((len(block), len(segments) + block.shape[1]), dtype=object)
        pieces[:, 0::2] = segments
        pieces[:, 1::2] = _cell_text(block)
        if start == 0:
            pieces[0, 0] = segments[0][len(sep) :]
        blocks.append("".join(pieces.ravel().tolist()))
    blocks.append(tail)
    return blocks
