"""Self-tests of the benchmark: smoke-sized runs and the output checks.

    python3 -m pytest bench

Run from the repository root (the runs import zenobell from ``src/``).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
        # each workload reaches its layers through names that modules import directly
        layer = {"sweep": "dynamics.h_cond.calls", "verify": "bell.correlation.calls",
                 "jumps": "trajectories.run_trajectories.calls"}[workload]
        assert calls[layer] > 0
        csv_jobs = sum(job.command != "selftest" for job in workloads.make_jobs(workload, 7, smoke=True))
        assert calls["cli.render_csv.calls"] >= csv_jobs
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_csv_value_raises_error_rate(tmp_path, monkeypatch):
    args = run._parse_args(["--workload", "sweep", "--seed", "1", "--seconds", "0", "--smoke"])
    run._write_inputs(tmp_path / "work", args, ROOT)
    manifest = json.loads((tmp_path / "work" / "manifest.json").read_text())
    sys.path.insert(0, manifest["src"])
    import worker
    import zenobell.cli

    original = zenobell.cli.render_csv

    def corrupt_fig2(header, rows):
        text = original(header, rows)
        if "alpha_re" in header and header[0] == "gamma":
            lines = text.split("\n")
            cells = lines[1].split(",")
            cells[3] = repr(float(cells[3]) * (1 + 1e-6))  # p0 of the first row
            lines[1] = ",".join(cells)
            text = "\n".join(lines)
        return text

    runner = worker.Runner(manifest)
    _, _, codes = runner.run_pass()
    runner.check(codes)
    assert runner.summary()["failed"] == 0
    monkeypatch.setattr(zenobell.cli, "render_csv", corrupt_fig2)
    _, _, codes = runner.run_pass()
    runner.check(codes)
    summary = runner.summary()
    assert summary["failed"] == 1 and summary["failed"] / summary["attempted"] > 0
    assert summary["failures"][0].startswith("fig2: line 2: p0")


def _table(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(r[h] for h in header) for r in rows]) + "\n"


@pytest.mark.parametrize("shift, ok", [(0.0, True), (0.004, True), (0.2, False)])
def test_trajectory_check_is_statistical(shift, ok):
    job = next(j for j in workloads.make_jobs("jumps", 0) if j.name == "traj_cavity")
    header, rows = workloads.load_reference(job.name)
    rows = [dict(r, p0_mc=repr(float(r["p0_det"]) + shift), stderr="0.003") for r in rows]
    reason = workloads.check_output(job, _table(header, rows), (header, rows))
    assert (reason is None) == ok, reason


# readout_error = 0.02 scales the expected b_s by 0.96^2; the tolerance at
# 20000 shots is 6 sqrt(10 / 20000) = 0.13 absolute
@pytest.mark.parametrize("factor, ok", [(0.96**2, True), (0.96**2 + 0.02, True), (1.0, False), (0.8, False)])
def test_sampled_bell_check_expects_readout_attenuation(factor, ok):
    job = next(j for j in workloads.make_jobs("verify", 0) if j.name == "bell_landscape")
    header, exact = workloads.load_reference(job.name)
    rows = []
    for r in exact:
        b = float(r["b_s"]) * factor
        rows.append(dict(r, b_s=repr(b), violated="true" if b > 2 else "false"))
    reason = workloads.check_output(job, _table(header, rows), (header, exact))
    assert (reason is None) == ok, reason


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
