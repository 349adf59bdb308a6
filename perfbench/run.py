"""Benchmark of the `berry-holonomy` command line, end to end and per layer.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Every repetition is a fresh `python3 perfbench/worker.py` process that imports
`berry_holonomy.cli` from `src/` and calls `cli.main` for each of the
workload's command lines, as a user's shell would.  Repetitions run back to
back (a closed loop with one client) until the next one would end after
`--seconds`; at least one always runs.  Thread settings are left as the
user's environment has them.  Every command's output is checked, and a wrong
or missing output counts as a failed operation.

With `--trace 0` the last line of standard output holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of traced
repetitions, which alternate with untraced ones so the tracing overhead is
measured too.  The line before it holds sample counts, per-command times,
machine information and any failures.  `--smoke` shrinks every workload to a
few seconds for the benchmark's own tests.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5
IMPORT_PROBES = 3
PROCESS_TIMEOUT_S = 150
# A run must end within 180 s; no repetition past the first two may start
# unless it is expected to end before this many seconds into the run.
RUN_LIMIT_S = 150
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "GOTO_NUM_THREADS",
    "BERRY_HOLONOMY_THREADS",
)

# name -> unit; the direction and bound of each live in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "rss_mb": "MB",
    "conn_digits": "digits",
    "curv_digits": "digits",
    "holonomy_digits": "digits",
}
PER_LAYER = {
    "fock.eigh.calls": "count",
    "fock.eigh.calls.spread": "count",
    "fock.eigh.s": "s",
    "fock.make_operators.calls": "count",
    "fock.make_operators.s": "s",
    "fock.exp_antihermitian.self_s": "s",
    "fock.bch_identity_report.s": "s",
    "numeric.connection_numeric.calls": "count",
    "numeric.connection_numeric.self_s": "s",
    "numeric.curvature_numeric.calls": "count",
    "numeric.curvature_numeric.self_s": "s",
    "numeric.unitary_matrix.calls": "count",
    "numeric.unitary_matrix.s": "s",
    "numeric.cache.hit_ratio": "ratio",
    "numeric.cache.hit_ratio.spread": "ratio",
    "curvature.curvature_from_components.self_s": "s",
    "curvature.curvature_closed.calls": "count",
    "curvature.curvature_closed.s": "s",
    "curvature.curvature_span_dimension.s": "s",
    "connection.connection_closed.calls": "count",
    "connection.connection_closed.s": "s",
    "connection.contract_one_form.calls": "count",
    "connection.contract_one_form.s": "s",
    "connection.berry_phase_diagonal.s": "s",
    "holonomy.transport.calls": "count",
    "holonomy.transport.self_s": "s",
    "holonomy.steps": "count",
    "holonomy.s_per_1k_steps": "s/1k_steps",
    "holonomy.logm.calls": "count",
    "holonomy.logm.s": "s",
    "holonomy.holonomy_algebra_dimension.self_s": "s",
    "lie.real_lie_closure.calls": "count",
    "lie.real_lie_closure.s": "s",
    "lie.numerical_rank.calls": "count",
    "lie.numerical_rank.s": "s",
    "cli.pool.threads": "count",
    "cli.pool.busy_s": "s",
    "cli.pool.efficiency": "ratio",
    "cli.pool.oracle_share": "ratio",
    "cli.closed_evals_per_point": "evals/point",
    "reports.matrix_payload.calls": "count",
    "reports.matrix_payload.s": "s",
    "reports.dump_json.s": "s",
    "setup.import.numpy.s": "s",
    "setup.import.scipy.s": "s",
    "setup.import.berry_holonomy.s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Counts that differ between repetitions because pool threads race on the
# oracle's factor cache; reported with their max - min over traced runs.
RACY = ("fock.eigh.calls", "numeric.cache.hit_ratio")


class WorkerFailed(RuntimeError):
    pass


def spawn(commands, trace: bool, work: Path) -> dict:
    """Run one worker process; its result plus `setup_s`, spawn to import."""
    job, result = work / "job.json", work / "result.json"
    result.unlink(missing_ok=True)
    job.write_text(json.dumps({"commands": commands, "trace": trace, "result": str(result)}))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(SRC), str(job)],
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0 or not result.exists():
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(result.read_text())
    result.unlink()
    res["setup_s"] = res["ready"] - start
    return res


def import_times() -> dict:
    """Self import time per package, from `python -X importtime`."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import berry_holonomy.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"import probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    totals = {"numpy": 0.0, "scipy": 0.0, "berry_holonomy": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:") :].split("|")
        top = name.strip().split(".")[0]
        if top in totals:
            totals[top] += int(self_us) / 1e6
    return totals


def machine_info() -> dict:
    import numpy
    import scipy
    from berry_holonomy import cli

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        pool = cli.thread_count(cli.RunConfig())
    except (AttributeError, TypeError, ValueError):
        pool = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars_set": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "cli_pool_threads": pool,
    }


class Tally:
    """Operations attempted and failed, and the worst deviations seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.devs: dict = {}

    def fail(self, n: int, reason: str) -> None:
        self.attempted += n
        self.failed += n
        self.failures.append(reason)

    def check(self, workload, res: dict) -> None:
        for cmd, ran in zip(workload.commands, res["commands"]):
            reasons = [] if ran["rc"] == 0 else [f"exit {ran['rc']}"]
            try:
                outcome = cmd.check(cmd.out)
                reasons += outcome.failures
                for key, dev in outcome.devs.items():
                    self.devs[key] = max(self.devs.get(key, 0.0), dev)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                reasons.append(f"unreadable output: {exc!r}")
            self.attempted += 1
            if reasons:
                self.failed += 1
                self.failures.append(f"{' '.join(cmd.argv[:3])}: {'; '.join(reasons)}")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run(args) -> int:
    started = time.monotonic()
    import tracer
    import workloads
    from workloads import digits

    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
    argvs = [cmd.argv for cmd in workload.commands]
    csv_requests = {i: cmd.sweep_points for i, cmd in enumerate(workload.commands) if cmd.sweep_points}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_info()}
    detail.update(workload.reference)

    # A first process compiles bytecode and warms the file cache, which a
    # user pays once, not per run; it is not measured.
    spawn([], False, work)
    setups, imports = [], []
    if args.trace:
        imports = [import_times() for _ in range(1 if args.smoke else IMPORT_PROBES)]

    tally = Tally()
    plain, traced, took = [], [], []
    if args.trace:
        kinds = itertools.chain([False, True, True], itertools.cycle([False, True]))
        least = 2 if args.smoke else 3
    else:
        kinds, least = itertools.repeat(False), 1
    deadline = time.monotonic() + args.seconds
    for n, trace in enumerate(kinds):
        ends = time.monotonic() + median(took)
        if n >= least and (args.smoke or ends > deadline) or n >= 2 and ends > started + RUN_LIMIT_S:
            break
        for cmd in workload.commands:
            cmd.out.unlink(missing_ok=True)
        began = time.monotonic()
        try:
            res = spawn(argvs, trace, work)
        except (WorkerFailed, subprocess.TimeoutExpired) as exc:
            tally.fail(len(argvs), str(exc))
            took.append(time.monotonic() - began)
            continue
        took.append(time.monotonic() - began)
        tally.check(workload, res)
        (traced if trace else plain).append(res)
        if not trace:
            setups.append(res["setup_s"])

    # Long repetitions leave few set-up samples; bare processes add more.
    while not args.trace and plain and len(setups) < (1 if args.smoke else SETUP_SAMPLES):
        setups.append(spawn([], False, work)["setup_s"])

    if not plain or (args.trace and not traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        for reason in tally.failures[:10]:
            print(f"  {reason}", file=sys.stderr)
        return 1

    walls = [sum(c["wall_s"] for c in r["commands"]) for r in plain]
    detail["samples"] = {"untraced_runs": len(plain), "traced_runs": len(traced), "setup": len(setups)}
    detail["run_wall_s"] = walls
    detail["command_wall_s"] = [
        median([r["commands"][i]["wall_s"] for r in plain]) for i in range(len(argvs))
    ]
    detail["failures"] = tally.failures[:20]

    if args.trace:
        per_run = [tracer.layer_metrics(r["spans"], csv_requests) for r in traced]
        values = {key: median([m.get(key, 0) for m in per_run]) for key in PER_LAYER}
        for key in RACY:
            seen = [m.get(key, 0) for m in per_run]
            values[f"{key}.spread"] = max(seen) - min(seen)
        for pkg in ("numpy", "scipy", "berry_holonomy"):
            values[f"setup.import.{pkg}.s"] = median([t[pkg] for t in imports])
        traced_walls = [sum(c["wall_s"] for c in r["commands"]) for r in traced]
        values["trace.overhead_s"] = median(traced_walls) - median(walls)
        table = PER_LAYER
    else:
        values = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "cpu_s": median([sum(c["cpu_s"] for c in r["commands"]) for r in plain]),
            "rss_mb": median([r["rss_mb"] for r in plain]),
            "conn_digits": digits(tally.devs.get("conn", 0.0)),
            "curv_digits": digits(tally.devs.get("curv", 0.0)),
            "holonomy_digits": digits(tally.devs.get("holonomy", 0.0)),
        }
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table.items()}

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repetition")
    args = parser.parse_args(argv)
    if not (SRC / "berry_holonomy" / "cli.py").is_file():
        print(f"perfbench: no berry_holonomy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    try:
        return run(args)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
