"""Smoke test of the benchmark harness: ``python3 -m pytest bench``.

Runs one short pass per workload in both modes and checks that the result
line parses and carries every metric BENCHMARK.json names.  Kept out of the
tier-1 suite (``testpaths`` is ``tests``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace):
    cmd = list(SPEC["command"]) + ["--workload", workload, "--seed", "1",
                                   "--seconds", "0", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_carries_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_child_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "figures", 0)
    assert proc.returncode != 0
    assert "child exited" in proc.stderr and "targetdetect" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_known_defects_match_only_their_pinned_failure_modes():
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    golden = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
    defect = golden["known_failures"]["oracle_points"]["coherent[n_s=100,n_b=1].helstrom_error"]
    pinned = "exact 1.7e-13 exceeds oracle qcb 4.8e-23; exact 1.7e-13 exceeds closed qcb 4.8e-23"
    assert run._is_known(defect, [pinned])
    assert not run._is_known(None, [pinned])
    assert not run._is_known(defect, [pinned, "raised ValueError('x')"])
    assert not run._is_known(defect, ["value nan outside [0, 0.5]"])
    assert not run._is_known(defect, ["exact 0.9 below closed lb 0.1"])
