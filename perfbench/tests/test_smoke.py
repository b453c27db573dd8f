"""Smoke test of the benchmark at the sizes of tests/test_cli.py.

    python3 -m pytest -q perfbench/tests

Each workload runs for one second at ``--scale tiny``, untraced and
traced, and must print every metric named in BENCHMARK.json with its
unit, pass its own output checks, and leave the checkout as it found it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def tree(root):
    """(size, mtime) of every file under ``root``, outside ``.git``."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != ".git"]
        for name in filenames:
            path = Path(dirpath, name)
            stat = path.lstat()
            out[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    before = tree(ROOT)
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    # the run's scratch directory is gone and nothing else changed,
    # .hypothesis/ included
    assert tree(ROOT) == before
    assert not (ROOT / ".perfbench_work").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
