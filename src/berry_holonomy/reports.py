"""The identity-check report and deterministic JSON helpers.

Every report that crosses the CLI boundary serializes complex numbers as
two-element [re, im] arrays and matrices as row-major nested lists, so the
output is plain JSON with no custom decoder needed on the other side.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def matrix_payload(z) -> list:
    """[re, im] pairs for a complex array of any shape, as nested row-major
    lists: a scalar gives one pair, an m x m matrix m rows of m pairs."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], -1).tolist()


def dump_json(obj: Any) -> str:
    """Canonical dump: sorted keys, fixed separators. Identical input
    objects produce byte-identical text.  A NaN or infinity anywhere in
    `obj` raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass
class IdentityReport:
    """Outcome of an identity check split into a trusted interior block and
    the truncation-polluted boundary."""

    interior_dev: float
    boundary_dev: float
    extras: dict = field(default_factory=dict)
