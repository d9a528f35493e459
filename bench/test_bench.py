"""Tests of the benchmark itself: seeded inputs, failure counting, the printed metrics.

Run from the root of the repository: ``python3 -m pytest bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(name, tmp_path):
    first = run.prepare(name, 5, 0.5, tmp_path / "a")
    second = run.prepare(name, 5, 0.5, tmp_path / "b")
    run.prepare(name, 6, 0.5, tmp_path / "c")
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")
    relative = lambda w: [[a.replace(str(w.root), "") for a in r] for r in w.requests]  # noqa: E731
    assert relative(first) == relative(second)


def test_mixed_lengths_are_distinct_and_cover_the_range():
    lengths = workloads.inputs.mixed_lengths(3, 300)
    assert len(set(lengths)) == 300 and min(lengths) >= 600 and max(lengths) <= 2400
    assert {1024, 2048} <= set(lengths)
    primes = sum(workloads.inputs._is_prime(k) for k in lengths)
    assert 0.2 < primes / 300 < 0.3
    assert 1300 < sorted(lengths[:40])[20] < 1700


def test_planted_bad_input_counts_as_failed_and_the_run_completes(tmp_path, capsys):
    workload = run.prepare("extract-toy5-mixed", 2, 0.4, tmp_path / "inputs")
    bad = Path(workload.requests[1][2])
    bad.write_bytes(bad.read_bytes()[: bad.stat().st_size // 2])  # truncated container file
    result = run.run(workload, 3.0, 0, ROOT / "src", tmp_path, tmp_path)
    assert result["attempted"] == len(workload.requests) >= 3
    assert result["failed"] == 1 and result["correct"] is False
    assert "failed_fraction" in capsys.readouterr().out


def command_output(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload,trace,section", [
    ("extract-toy5-mixed", 0, "end_to_end"), ("screen-body25", 1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(workload, trace, section):
    lines, result = command_output(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name
    assert any(line.startswith("env: ") for line in lines)
    if trace:  # predict touches every layer but training
        for layer in ("pose", "frequency", "graph", "model", "cli"):
            assert any(v["value"] > 0 for k, v in result["metrics"].items()
                       if k.startswith(layer + ".")), layer


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "screen-body25", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_self_times_add_up_to_the_root_span():
    spans = [  # name, start, end, parent, request
        ["cli.predict", 0, 100, -1, 1],
        ["pose.load_sequence", 10, 40, 0, 1],
        ["frequency.extract_features", 50, 90, 0, 1],
        ["frequency.fft_bluestein", 55, 70, 2, 1],
        ["frequency.fft_bluestein", 72, 80, 2, 1],
    ]
    table = tracing.per_request(spans)[1]
    assert table["cli.predict"]["self_ms"] == pytest.approx(30e-6)
    assert table["frequency.extract_features"]["self_ms"] == pytest.approx(17e-6)
    assert table["frequency.fft_bluestein"]["calls"] == 2
    assert sum(e["self_ms"] for e in table.values()) == pytest.approx(100e-6)
