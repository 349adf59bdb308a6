"""The example scripts run to completion on small inputs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("verify_family.py", ["--dim", "64", "--m", "2", "--grid", "small"]),
        ("holonomy_demo.py", ["--m", "2", "--samples", "256"]),
        ("irreducibility_scan.py", ["--max-m", "2"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONWARNINGS"] = "error"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
