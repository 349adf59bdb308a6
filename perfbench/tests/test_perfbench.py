"""Fast tests of the benchmark itself: python3 -m pytest perfbench/tests -q

They use `--smoke`, which shrinks every workload to a few seconds.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from berry_holonomy import cli  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )


def declared(kind):
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def test_contract_matches_the_runner():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.NAMES)
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_prints_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["holonomy-loops", "irreducibility"])
def test_smoke_trace_prints_every_layer_metric(name):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    assert metrics["fock.eigh.calls"] == 0 and metrics["numeric.connection_numeric.calls"] == 0
    assert metrics["holonomy.transport.calls"] > 0
    assert (metrics["lie.real_lie_closure.calls"] > 0) == (name == "irreducibility")


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "verify-grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _flip_first_nonzero(pairs):
    """Negate the first nonzero real or imaginary part in a nested list."""
    for i, item in enumerate(pairs):
        if isinstance(item, list):
            if _flip_first_nonzero(item):
                return True
        elif item != 0:
            pairs[i] = -item
            return True
    return False


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc["payload"])
    path.write_text(json.dumps(doc))


def _corrupt(cmd):
    path = cmd.out
    kind = cmd.argv[0]
    if kind == "verify":
        _edit_json(path, lambda p: p.update(passed=False))
    elif kind == "holonomy":
        _edit_json(path, lambda p: _flip_first_nonzero(p["w"]))
    elif kind == "irreducibility":
        _edit_json(path, lambda p: p.update(algebra_dim=p["algebra_dim"] - 1))
    elif path.suffix == ".json":
        _edit_json(path, lambda p: _flip_first_nonzero(p["points"][0]["A_lambda" if kind == "connection" else "C_mu_mubar"]))
    else:
        header, row, *rest = path.read_text().splitlines()
        cells = row.split(",")
        j = next(j for j, name in enumerate(header.split(",")) if "[" in name and float(cells[j]) != 0)
        cells[j] = repr(-float(cells[j]))
        path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_corrupted_output_counts_as_a_failed_operation(name, tmp_path):
    wl = workloads.build(name, 5, tmp_path, smoke=True)
    res = {"commands": [{"rc": cli.main(cmd.argv)} for cmd in wl.commands]}
    clean = run.Tally()
    clean.check(wl, res)
    assert (clean.attempted, clean.failed) == (len(wl.commands), 0), clean.failures
    for cmd in wl.commands:
        _corrupt(cmd)
    broken = run.Tally()
    broken.check(wl, res)
    assert (broken.attempted, broken.failed) == (len(wl.commands), len(wl.commands)), broken.failures


def test_a_missing_output_or_bad_exit_counts_as_a_failed_operation(tmp_path):
    wl = workloads.build("irreducibility", 5, tmp_path, smoke=True)
    tally = run.Tally()
    tally.check(wl, {"commands": [{"rc": 3}]})
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exit 3" in tally.failures[0]
