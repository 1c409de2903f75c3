"""The command-line byte contract of ``zenobell``, one function per check.

Each check runs the CLI in a fresh interpreter, as a user does, and
compares what it writes: exit code, stderr, and output bytes where the
contract is about bytes, as for the benchmark's deterministic tables,
which must equal ``bench/reference``.  The module needs only numpy and
zenobell, so an install without the test extra can run it::

    python tests/contract.py

runs every check, prints one line for each and exits 1 if any fails.
The Tier-1 suite runs each function of ``CHECKS`` on its own
(``test_contract.py``) and ``check_reference_table`` once per table
(``test_config_cli.py``).
"""

from __future__ import annotations

import gzip
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

# the checkout's src, after every path already given, so that the bare
# command runs from a source checkout and a runner's own path still wins
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import zenobell  # noqa: E402

# the package's parent directory, so that a source checkout runs without an install
_SOURCE = str(Path(zenobell.__file__).resolve().parents[1])
_BENCH = Path(__file__).resolve().parents[1] / "bench"

# The deterministic tables of the benchmark workloads, with their workload: bench/reference records each of them whole.
REFERENCE_TABLES = {
    "fig2": "sweep", "fig4": "sweep", "fig5": "sweep", "prepare_pair": "sweep", "cnot": "sweep", "pbg": "sweep",
    "mermin": "verify", "islands": "verify",
}


class ContractError(AssertionError):
    """A check's expectation that the CLI did not meet."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ContractError(message)


def zenobell_cli(*args) -> subprocess.CompletedProcess:
    """``zenobell ARGS`` in a fresh interpreter: exit code, stdout and stderr as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SOURCE, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from zenobell.cli import main; sys.exit(main())", *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def bench_jobs(workload: str) -> list:
    """The jobs of a benchmark workload at seed 0, as ``bench/workloads.py`` defines them; the file is only read."""
    return runpy.run_path(str(_BENCH / "workloads.py"))["make_jobs"](workload, 0)


def _run_config(work: Path, name: str, text: str, *flags) -> subprocess.CompletedProcess:
    cfg = work / f"{name}.cfg"
    cfg.write_text(text)
    return zenobell_cli("run", cfg, "--out", work / name, "--quiet", *flags)


def _exit(result: subprocess.CompletedProcess, code: int) -> None:
    _require(result.returncode == code, f"exit code {result.returncode}, expected {code}; stderr: {result.stderr!r}")


def _one_config_error_line(result: subprocess.CompletedProcess, pattern: str) -> None:
    _exit(result, 1)
    lines = result.stderr.splitlines(keepends=True)
    _require(len(lines) == 1, f"stderr has {len(lines)} lines, expected 1: {result.stderr!r}")
    _require(re.search(pattern, lines[0]) is not None, f"stderr {lines[0]!r} does not match {pattern!r}")


def check_rerun_into_one_directory(work: Path) -> None:
    """A figure written twice into one directory: the re-run replaces it with the same bytes."""
    out = work / "fig"
    _exit(zenobell_cli("figure", "fig4", "--out", out), 0)
    first = (out / "fig4.csv").read_bytes()
    _exit(zenobell_cli("figure", "fig4", "--out", out), 0)
    _require((out / "fig4.csv").read_bytes() == first, "fig4.csv changed bytes on a re-run")


def check_out_of_regime_run_is_quiet(work: Path) -> None:
    """An out-of-regime run exits 0 with nothing on stderr; the regime goes to the summary."""
    text = "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0.01\nomega_minus = 0.02\nT = auto\n"
    result = _run_config(work, "pair", text)
    _exit(result, 0)
    _require(result.stderr == "", f"stderr not empty: {result.stderr!r}")
    summary = (work / "pair" / "prepare_pair_summary.txt").read_text()
    _require("in_regime=False" in summary, "summary does not report in_regime=False")


def check_overflowing_kappa_is_one_config_error_line(work: Path) -> None:
    """kappa = 1e308 makes -i kappa b^dag b overflow: the parser rejects it with one line."""
    text = "scenario = cnot\ng = 1\nkappa = 1e308\ngamma = 0.001\nomega = 0.02\n"
    _one_config_error_line(_run_config(work, "kappa", text), "^config error: ")


def check_overflowing_jump_rate_is_one_numeric_failure_line(work: Path) -> None:
    """kappa = 4e307 passes every rule, but the survival chain's rate sum overflows: exit 2 with one line, no warning."""
    text = "scenario = trajectories\nsystem = cavity_decay\nkappa = 4e307\nn_max = 1\n"
    result = _run_config(work, "decay", text)
    _exit(result, 2)
    expected = "numeric failure: jump-rate integral not finite at t = 2.5e-310: the survival chain overflows\n"
    _require(result.stderr == expected, f"stderr {result.stderr!r}, expected {expected!r}")


def check_sampled_landscape_same_seed_same_bytes(work: Path) -> None:
    """A sampled landscape: the same seed gives the same CSV, the next seed a different one."""
    text = (
        "scenario = bell_landscape\nshots = 2000\nseed = 5\nreadout_error = 0.02\n"
        "omega_t_count = 11\nvartheta_count = 11\n"
    )
    tables = []
    for name, flags in (("bell_a", ()), ("bell_b", ()), ("bell_c", ("--seed", 6))):
        _exit(_run_config(work, name, text, *flags), 0)
        tables.append((work / name / "bell_landscape.csv").read_bytes())
    _require(tables[0] == tables[1], "seed 5 wrote two different sampled CSVs")
    _require(tables[0] != tables[2], "seeds 5 and 6 wrote the same sampled CSV")


def check_zero_length_trajectory_row(work: Path) -> None:
    """A row at t_end = 0 samples no chain: p0 is exactly 1 with no spread, and stderr stays empty."""
    text = "scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nt_end_values = 0, 1\nn_traj = 1000\nseed = 7\n"
    result = _run_config(work, "decay", text)
    _exit(result, 0)
    _require(result.stderr == "", f"stderr not empty: {result.stderr!r}")
    rows = (work / "decay" / "trajectories.csv").read_text().splitlines()
    _require("0,1,1,0" in rows, f"no row 0,1,1,0 in {rows}")


def check_step_budget_is_one_config_error_line(work: Path) -> None:
    """pi / omega_minus at omega_minus = 1e-8 needs ~10^9 steps: exit 1 with the count, before any chain."""
    text = "scenario = trajectories\nsystem = pair\ng = 1\nkappa = 1\ngamma = 0.001\nomega_minus = 1e-8\nn_traj = 10\n"
    _one_config_error_line(_run_config(work, "budget", text), r"^config error: .* needs [0-9]+ steps ")


def check_selftest_lines(work: Path) -> None:
    """The selftest passes, and its largest |B_S| of the 1000 seeded states pins numpy's random stream."""
    result = zenobell_cli("selftest")
    _exit(result, 0)
    _require("max |B_S| = 2.199777586" in result.stdout, f"no 'max |B_S| = 2.199777586' in:\n{result.stdout}")
    _require("selftest passed" in result.stdout.splitlines(), f"no line 'selftest passed' in:\n{result.stdout}")


def check_help_and_bare_call(work: Path) -> None:
    """``zenobell --help`` writes the usage to stdout and exits 0; a bare ``zenobell`` is a usage error, exit 1."""
    result = zenobell_cli("--help")
    _exit(result, 0)
    _require(result.stdout.startswith("usage: zenobell "), f"no usage line on stdout: {result.stdout!r}")
    _require(result.stderr == "", f"stderr not empty: {result.stderr!r}")
    bare = zenobell_cli()
    _exit(bare, 1)
    lines = bare.stderr.splitlines()
    _require(
        len(lines) == 2 and lines[0].startswith("usage: zenobell ") and lines[1].startswith("config error: "),
        f"stderr is not a usage line and one config error line: {bare.stderr!r}",
    )
    _require(bare.stdout == "", f"stdout not empty: {bare.stdout!r}")


def _reference_table_differs(work: Path, name: str) -> bool:
    """Run the benchmark's own job for table ``name``, full size, and compare its table with ``bench/reference``.

    The job config comes from ``bench/workloads.py``; neither it nor the
    references are changed.
    """
    workload = REFERENCE_TABLES[name]
    jobs = {job.name: job for job in bench_jobs(workload)}
    _require(name in jobs, f"bench/workloads.py has no {workload} job {name!r}")
    job = jobs[name]
    cfg = work / f"{name}.cfg"
    cfg.write_text(job.config)
    result = zenobell_cli(*job.argv(cfg, work))
    _require(result.returncode == 0, f"{name}: exit code {result.returncode}; stderr: {result.stderr!r}")
    expected = gzip.decompress((_BENCH / "reference" / f"{name}.csv.gz").read_bytes())
    return (work / job.csv_name).read_bytes() != expected


def check_reference_table(work: Path, name: str) -> None:
    """The benchmark's deterministic table ``name`` is its ``bench/reference`` table byte for byte."""
    _require(not _reference_table_differs(work, name), f"table differs from bench/reference: {name}")


def check_reference_tables(work: Path) -> None:
    """All eight deterministic tables of the benchmark, byte for byte; the message names every one that differs."""
    mismatched = [name for name in REFERENCE_TABLES if _reference_table_differs(work, name)]
    _require(not mismatched, f"tables differ from bench/reference: {', '.join(mismatched)}")


CHECKS = (
    check_rerun_into_one_directory,
    check_out_of_regime_run_is_quiet,
    check_overflowing_kappa_is_one_config_error_line,
    check_overflowing_jump_rate_is_one_numeric_failure_line,
    check_sampled_landscape_same_seed_same_bytes,
    check_zero_length_trajectory_row,
    check_step_budget_is_one_config_error_line,
    check_selftest_lines,
    check_help_and_bare_call,
)


def main() -> int:
    failed = 0
    checks = (*CHECKS, check_reference_tables)
    for check in checks:
        with tempfile.TemporaryDirectory() as work:
            try:
                check(Path(work))
            except ContractError as exc:
                failed += 1
                print(f"FAIL {check.__name__}: {exc}")
            else:
                print(f"ok   {check.__name__}")
    print(f"{len(checks) - failed} of {len(checks)} contract checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
