"""One benchmark process: a fresh interpreter that runs a workload's command
lines through `berry_holonomy.cli.main`, the way the console script does.

Usage: python3 worker.py SRC_DIR JOB_JSON

SRC_DIR is put first on `sys.path`.  The job holds `commands` (a list of CLI
argument lists, possibly empty), `trace` (wrap the layers in spans) and
`result` (where to write the result JSON).  Set-up ends once the CLI module
is imported; the result carries that instant on the monotonic clock, which
the parent compares with the instant it spawned this process.
"""
import sys
import time

sys.path.insert(0, sys.argv[1])
from berry_holonomy import cli  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    with open(sys.argv[2]) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    commands = []
    for request, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.request = request
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is this command's failed result
            traceback.print_exc()
            rc = f"{type(exc).__name__}: {exc}"
        commands.append(
            {
                "wall_s": time.perf_counter() - wall0,
                "cpu_s": time.process_time() - cpu0,
                "rc": 0 if rc is None else rc,
            }
        )
    result = {
        "ready": READY,
        "commands": commands,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
