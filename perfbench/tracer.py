"""Spans for the benchmark's traced run, recorded from outside the program.

`Tracer.install` replaces each layer function named in TARGETS by a timing
wrapper, in every `berry_holonomy` module that holds a reference to it, so
calls are caught where their callers look them up (`from .x import f` copies
as well as a module's own globals).  `numpy.linalg.eigh` is replaced on
`numpy.linalg`, which is where `fock` looks it up.  A target missing from the
code is skipped, and its metrics read 0.

A span is (id, parent id, request id, name, start, end, count).  The parent
is the innermost open span on the same thread; the request id is the index
of the CLI command being run, which pool threads share.  `count` is the
work a call was asked for (transport steps, pool width), else 0.  Spans stay
in memory until the process writes them out.

`layer_metrics` turns one traced run's spans into the per-layer metrics.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

PACKAGE = "berry_holonomy"


def _transport_steps(args, kwargs) -> int:
    steps = kwargs.get("steps") or (args[2] if len(args) > 2 else None)
    return steps or args[0].samples


# (span name, module the function is looked up in, attribute, count hook)
TARGETS = (
    ("fock.eigh", "numpy.linalg", "eigh", None),
    ("fock.make_operators", "berry_holonomy.fock", "make_operators", None),
    ("fock.exp_antihermitian", "berry_holonomy.fock", "exp_antihermitian", None),
    ("fock.displacement", "berry_holonomy.fock", "displacement", None),
    ("fock.squeeze", "berry_holonomy.fock", "squeeze", None),
    ("fock.bch_identity_report", "berry_holonomy.fock", "bch_identity_report", None),
    ("numeric.connection_numeric", "berry_holonomy.numeric", "connection_numeric", None),
    ("numeric.curvature_numeric", "berry_holonomy.numeric", "curvature_numeric", None),
    ("curvature.curvature_from_components", "berry_holonomy.curvature", "curvature_from_components", None),
    ("curvature.curvature_closed", "berry_holonomy.curvature", "curvature_closed", None),
    ("curvature.curvature_span_dimension", "berry_holonomy.curvature", "curvature_span_dimension", None),
    ("connection.connection_closed", "berry_holonomy.connection", "connection_closed", None),
    ("connection.contract_one_form", "berry_holonomy.connection", "contract_one_form", None),
    ("connection.berry_phase_diagonal", "berry_holonomy.connection", "berry_phase_diagonal", None),
    ("holonomy.transport", "berry_holonomy.holonomy", "transport", _transport_steps),
    ("holonomy.holonomy_algebra_dimension", "berry_holonomy.holonomy", "holonomy_algebra_dimension", None),
    ("holonomy.logm", "berry_holonomy.holonomy", "logm", None),
    ("lie.real_lie_closure", "berry_holonomy.lie", "real_lie_closure", None),
    ("lie.numerical_rank", "berry_holonomy.lie", "numerical_rank", None),
    ("reports.matrix_payload", "berry_holonomy.reports", "matrix_payload", None),
    ("reports.dump_json", "berry_holonomy.reports", "dump_json", None),
)

# Methods of the oracle's factor cache, wrapped on the class.
METHODS = (
    ("numeric.unitary_matrix", "berry_holonomy.numeric", "UnitaryCache", "unitary_matrix"),
    ("numeric.cache.lookup", "berry_holonomy.numeric", "UnitaryCache", "displacement_matrix"),
    ("numeric.cache.lookup", "berry_holonomy.numeric", "UnitaryCache", "squeeze_matrix"),
)


def _count(hook: Optional[Callable], args, kwargs) -> int:
    if hook is None:
        return 0
    try:
        return int(hook(args, kwargs))
    except (AttributeError, IndexError, TypeError, ValueError):
        return 0


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.request: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            n = _count(count, args, kwargs)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.request, name, start, end, n))

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for name, home, attr, count in TARGETS:
            owner = sys.modules.get(home)
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            traced = self.wrap(name, orig, count)
            setattr(owner, attr, traced)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
        for name, home, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(home), cls_name, None)
            orig = getattr(cls, attr, None)
            if orig is not None:
                setattr(cls, attr, self.wrap(name, orig))
        self._install_pool()

    def _install_pool(self) -> None:
        """Spans for the CLI's grid pool: one per map call, counted with the
        pool width it was given, and one per task a worker ran."""
        cli = sys.modules.get(PACKAGE + ".cli")
        orig = getattr(cli, "_map_ordered", None)
        if orig is None:
            return

        def traced_map(fn, items, threads):
            return orig(self.wrap("cli.pool.task", fn), items, threads)

        cli._map_ordered = self.wrap("cli.pool.map", traced_map, lambda args, kwargs: args[2])


# -- analysis ----------------------------------------------------------------

ORACLE_LAYERS = ("numeric.", "fock.", "curvature.")


def layer_metrics(spans: Iterable[Sequence], csv_requests: Dict[int, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    For every span name, `.calls` counts spans, `.s` sums the durations of
    spans not nested in a span of the same name, and `.self_s` sums
    durations minus the time of direct child spans.  A name that never ran
    has no entry.  `csv_requests` maps the request id of each CSV sweep
    command to its number of grid points.
    """
    spans = [tuple(s) for s in spans]
    by_id = {s[0]: s for s in spans}
    dur = lambda s: s[5] - s[4]
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1]:
            child_time[s[1]] += dur(s)

    def nested_in_same(s) -> bool:
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[3] == s[3]:
                return True
            parent = by_id.get(parent[1])
        return False

    calls: Dict[str, int] = defaultdict(int)
    incl: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for s in spans:
        name = s[3]
        calls[name] += 1
        self_s[name] += dur(s) - child_time[s[0]]
        counts[name] += s[6] or 0
        if not nested_in_same(s):
            incl[name] += dur(s)

    out: Dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = self_s[name]

    lookups = calls["numeric.cache.lookup"]
    builds = sum(
        1
        for s in spans
        if s[3] in ("fock.displacement", "fock.squeeze")
        and by_id.get(s[1], (None,) * 4)[3] == "numeric.cache.lookup"
    )
    out["numeric.cache.hit_ratio"] = 1.0 - builds / lookups if lookups else 0.0

    steps = counts["holonomy.transport"]
    out["holonomy.steps"] = steps
    out["holonomy.s_per_1k_steps"] = 1000.0 * incl["holonomy.transport"] / steps if steps else 0.0

    maps = [s for s in spans if s[3] == "cli.pool.map"]
    tasks = [s for s in spans if s[3] == "cli.pool.task"]
    busy = sum(dur(s) for s in tasks)
    capacity = sum(s[6] * dur(s) for s in maps)
    oracle_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s[1])
        if parent is not None and parent[3] == "cli.pool.task" and s[3].startswith(ORACLE_LAYERS):
            oracle_time[parent[0]] += dur(s)
    out["cli.pool.threads"] = max((s[6] for s in maps), default=0)
    out["cli.pool.busy_s"] = busy
    out["cli.pool.efficiency"] = busy / capacity if capacity else 0.0
    out["cli.pool.oracle_share"] = sum(oracle_time.values()) / busy if busy else 0.0

    points = sum(csv_requests.values())
    evals = sum(
        1
        for s in spans
        if s[2] in csv_requests and s[3] in ("connection.connection_closed", "curvature.curvature_closed")
    )
    out["cli.closed_evals_per_point"] = evals / points if points else 0.0
    out["trace.spans"] = len(spans)
    return out
