"""Record the reference tables that the benchmark's output checks compare against.

    python3 bench/record_reference.py

Run from the repository root.  Writes ``bench/reference/<job>.csv.gz``:
each job's CSV as the current sources produce it (the sampled Bell
landscape as its exact, shot-free landscape; trajectories at seed 0,
whose deterministic ``p0_det`` column is all that is compared).  Record
again only when a change to zenobell's numbers is intended.
"""

import gzip
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from zenobell.cli import main  # noqa: E402


def record() -> None:
    work = Path.cwd() / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for job in map(workloads.reference_job, workloads.make_jobs(workload, seed=0)):
                if job.command == "selftest":
                    continue
                config = work / f"{job.name}.cfg"
                config.write_text(job.config)
                if main(job.argv(config, work)) != 0:
                    raise SystemExit(f"{job.name} failed")
                data = (work / job.csv_name).read_bytes()
                (workloads.REFERENCE_DIR / f"{job.name}.csv.gz").write_bytes(gzip.compress(data, mtime=0))
                rows = data.count(b"\n") - 1
                print(f"recorded {job.name}: {rows} rows")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    record()
