"""Smoke test of the benchmark at its tiny scale: every metric name is
emitted and every output check passes, untraced and traced.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
STAGES = {
    "telescope-mix": ("simulate", "ingest", "fingerprint", "scid", "report"),
    "offnet-sweep": ("simulate", "ingest", "classify"),
    "probe-campaign": ("probe",),
}


def run_bench(tmp_path: Path, *args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "tiny", "--seconds", "0",
         "--work-dir", str(tmp_path), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_and_every_check_passes(tmp_path, trace):
    lines, result = run_bench(tmp_path, "--workload", "all", "--seed", "3", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0, lines
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {f"{w}/{m['name']}" for w in WORKLOADS for m in wanted}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in wanted}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split("/")[1]]
        assert isinstance(metric["value"], (int, float))
    for workload in WORKLOADS:
        printed = {line.split()[1] for line in lines if line.startswith(f"{workload} ")}
        assert {m["name"] for m in SPEC["end_to_end"]} <= printed
        assert {f"{stage}_s" for stage in STAGES[workload]} | {"failed_share"} <= printed
        if not trace:
            assert all(result["metrics"][f"{workload}/{m['name']}"]["value"] > 0 for m in SPEC["end_to_end"])


def test_same_seed_same_digest(tmp_path):
    digests = []
    for run in range(2):
        lines, result = run_bench(tmp_path / str(run), "--workload", "probe-campaign", "--seed", "5")
        assert result["correct"] is True
        digests += [line.split("sha256=")[1] for line in lines if "digest sha256=" in line]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_fails_without_source_tree(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (bare / "bench" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "telescope-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
