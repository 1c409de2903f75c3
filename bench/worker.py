"""Child process of ``bench/run.py``: imports zenobell fresh and runs one workload.

    python3 bench/worker.py MODE WORKDIR

``WORKDIR/manifest.json`` (written by ``run.py``) names the sources, the
workload, its config files and the run length.  Modes:

* ``setup``: import ``zenobell`` and ``zenobell.cli``, parse every config;
* ``run``:   setup, a first pass (the cold one, and the warm-up), then warm
  passes until ``seconds`` have passed (at least one); reports pass times
  and peak RSS;
* ``trace``: setup, a warm-up pass, then alternating untraced and traced
  passes for ``seconds``; reports per-layer metrics and the tracing
  overhead.

Timestamps that ``run.py`` compares with its own spawn time use
``time.monotonic`` (one clock for all processes of the machine).  Only
``json``, ``sys``, ``time`` and ``pathlib`` are imported before the setup
ends, so the setup time is zenobell's.  The result is one JSON object on
the last line of standard output.
"""

import json
import sys
import time
from pathlib import Path


def _setup(manifest: dict) -> dict:
    src = Path(manifest["src"])
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import zenobell
    import zenobell.cli

    import_s = time.perf_counter() - start
    if src not in Path(zenobell.__file__).resolve().parents:
        raise SystemExit(f"imported zenobell from {zenobell.__file__}, not from {src}")
    from zenobell.config import parse_config

    for path in manifest["configs"].values():
        parse_config(Path(path).read_text())
    return {"import_s": import_s, "t_setup": time.monotonic()}


def _call(main, argv):
    """Exit code of one CLI call; an exception or argparse exit is a failure too."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a job that raises is counted as failed; the run goes on
        return f"{type(exc).__name__}: {exc}"


class Runner:
    """Runs passes over a workload's jobs and checks every output."""

    def __init__(self, manifest: dict):
        import workloads  # only after setup, which times zenobell alone
        from zenobell.cli import main

        self._main = main
        self._workloads = workloads
        self.jobs = workloads.make_jobs(manifest["workload"], manifest["seed"], manifest["smoke"])
        self.out_dir = Path(manifest["workdir"]) / "out"
        self.argv = {
            job.name: job.argv(manifest["configs"].get(job.name), self.out_dir) for job in self.jobs
        }
        self._references = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, dict, dict]:
        """Wall time of one pass, per-job wall times and per-job exit codes."""
        for stale in self.out_dir.glob("*.csv"):
            stale.unlink()
        times, codes = {}, {}
        start = time.perf_counter()
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.name
            t = time.perf_counter()
            codes[job.name] = _call(self._main, self.argv[job.name])
            times[job.name] = time.perf_counter() - t
        return time.perf_counter() - start, times, codes

    def check(self, codes: dict) -> None:
        for job in self.jobs:
            self.attempted += 1
            reason = self._failure(job, codes[job.name])
            if reason:
                self.failures.append(f"{job.name}: {reason}")

    def _failure(self, job, code) -> str | None:
        if code != 0:
            return f"exit {code!r}"
        if job.command == "selftest":
            return None
        if job.name not in self._references:
            self._references[job.name] = self._workloads.load_reference(job.name)
        try:
            text = (self.out_dir / job.csv_name).read_text()
        except OSError as exc:
            return f"no output: {exc}"
        return self._workloads.check_output(job, text, self._references[job.name])

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures), "failures": self.failures[:5]}


def _passes(manifest: dict, runner: Runner, result: dict) -> None:
    import resource
    from statistics import median

    walls, job_times = [], {job.name: [] for job in runner.jobs}
    deadline = time.perf_counter() + manifest["seconds"]
    while not walls or time.perf_counter() < deadline:
        wall, times, codes = runner.run_pass()
        runner.check(codes)
        walls.append(wall)
        for name, t in times.items():
            job_times[name].append(t)
    result["walls"] = walls
    result["job_wall_s"] = {name: median(ts) for name, ts in job_times.items()}
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced_passes(manifest: dict, runner: Runner, result: dict) -> None:
    from statistics import median

    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    untraced, traced, layers = [], [], []
    job_times = {job.name: [] for job in runner.jobs}
    deadline = time.perf_counter() + manifest["seconds"]
    while not traced or time.perf_counter() < deadline:
        wall, times, codes = runner.run_pass()
        runner.check(codes)
        untraced.append(wall)
        for name, t in times.items():
            job_times[name].append(t)
        tracer.install()
        try:
            wall, _, codes = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        runner.check(codes)
        traced.append(wall)
        layers.append(layer_metrics(tracer.take()))
    base = median(untraced)
    result["layers"] = {key: median([m[key] for m in layers]) for key in layers[0]}
    result["layers"]["trace.overhead_ratio"] = (median(traced) - base) / base
    result["job_wall_s"] = {name: median(ts) for name, ts in job_times.items()}


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> None:
    mode, workdir = sys.argv[1], Path(sys.argv[2])
    manifest = json.loads((workdir / "manifest.json").read_text())
    result = _setup(manifest)
    if mode != "setup":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        runner = Runner(manifest)
        _, _, codes = runner.run_pass()
        result["t_cold"] = time.monotonic()
        runner.check(codes)
        if mode == "run":
            _passes(manifest, runner, result)
        else:
            _traced_passes(manifest, runner, result)
        result.update(runner.summary(), versions=_versions())
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
