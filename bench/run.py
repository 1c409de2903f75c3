"""zenobell benchmark: drives ``zenobell.cli.main`` over one named workload.

    python3 bench/run.py --workload {sweep,verify,jumps} --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports zenobell from ``src/``.  The
workloads and their jobs are defined in ``bench/workloads.py`` and listed,
with every metric name and unit, in ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``wall_s``: median wall time of one warm pass over the jobs (same
  process, after its warm-up pass); several interpreters share S seconds
  of warm passes;
* ``cold_s``: median time from starting a fresh interpreter to the end of
  its first pass;
* ``setup_s``: median time for a fresh interpreter to import ``zenobell``
  and ``zenobell.cli`` and parse the workload's configs;
* ``peak_rss_mb``: median over those interpreters of the peak resident
  memory of one that ran the workload.

``--trace 1`` instead reports the per-layer metrics of a traced run (see
``bench/tracer.py``).  Either way every job's output is checked and each
failed job (non-zero exit, exception, wrong output) counts in ``failed``
and in the printed error rate.  All work happens in fresh child
interpreters (``bench/worker.py``) with BLAS pinned to one thread; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_SAMPLES = 4  # setup-only interpreters per run; every worker gives a sample too
RUN_SAMPLES = 4  # interpreters that run the workload: one cold pass each, then warm passes
TIME_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


class Children:
    """Starts worker interpreters one at a time, all within one deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir, self.deadline = workdir, deadline
        self.env = {**os.environ, **BLAS_ENV}

    def run(self, mode: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S:g} s reached before the {mode} worker")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), mode, str(self.workdir)],
                stdout=subprocess.PIPE,
                text=True,
                env=self.env,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            raise BenchError(f"{mode} worker exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["t_setup"] - spawned
        if "t_cold" in result:
            result["cold_s"] = result["t_cold"] - spawned
        return result


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from its own .git only ("unknown" outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_record(root: Path, args, versions: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **versions,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(root),
    }


def _write_inputs(workdir: Path, args, root: Path) -> None:
    jobs = workloads.make_jobs(args.workload, args.seed, smoke=args.smoke)
    (workdir / "out").mkdir(parents=True)
    configs = {}
    for job in jobs:
        if job.config:
            path = workdir / f"{job.name}.cfg"
            path.write_text(job.config)
            configs[job.name] = str(path)
    manifest = {
        "src": str(root / "src"),
        "workdir": str(workdir),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "configs": configs,
        # each run worker gets its share of the measured time
        "seconds": args.seconds if args.trace else args.seconds / _samples(args)[1],
    }
    (workdir / "manifest.json").write_text(json.dumps(manifest))


def _samples(args) -> tuple[int, int]:
    """Setup-only and run children per run; one of each for the self-tests."""
    return (1, 1) if args.smoke else (SETUP_SAMPLES, RUN_SAMPLES)


def _measure(children: Children, args) -> tuple[dict, list[dict]]:
    """Metric values by name and the results of every worker that ran jobs."""
    n_setup, n_run = _samples(args)
    children.run("setup")  # untimed: compiles bytecode and warms the file cache
    if args.trace:
        setups = [children.run("setup") for _ in range(n_setup)]
        traced = children.run("trace")
        values = dict(traced["layers"])
        values["setup.import_s"] = statistics.median(r["import_s"] for r in setups + [traced])
        for name in workloads.JOB_NAMES:
            values[f"cli.job.{name}.wall_s"] = traced["job_wall_s"].get(name, 0.0)
        return values, [traced]
    # Setup samples are spread between the run children, so that a slow
    # spell of the host does not meet all of them at once.
    setups, runs = [], []
    for _ in range(n_run):
        setups += [children.run("setup") for _ in range(n_setup // n_run)]
        runs.append(children.run("run"))
    values = {
        "wall_s": statistics.median(w for r in runs for w in r["walls"]),
        "cold_s": statistics.median(r["cold_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in setups + runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return values, runs


def _select(spec: dict, values: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    out = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        if metric["name"] not in values:
            raise BenchError(f"metric {metric['name']!r} was not measured")
        out[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return out


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small grids and one sample each (self-tests)")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running worker, and through the clean-up of the work directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / "src" / "zenobell" / "__init__.py").is_file():
        sys.stderr.write("error: src/zenobell not found; run the benchmark from the repository root\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        _write_inputs(workdir, args, root)
        children = Children(workdir, time.monotonic() + TIME_LIMIT_S)
        values, ran = _measure(children, args)
        record = _run_record(root, args, ran[0]["versions"])
        metrics = _select(spec, values, args.trace)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in ran)
    failed = sum(r["failed"] for r in ran)
    for r in ran:
        for reason in r["failures"]:
            sys.stderr.write(f"output check failed: {reason}\n")
    print("record " + json.dumps(record))
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:8s} {'error_rate':45s} {failed / attempted:.6g} failed/attempted ({failed}/{attempted} jobs)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
