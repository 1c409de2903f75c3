"""The command-line byte contract of ``zenobell``, one function per check.

Each check runs the CLI in a fresh interpreter, as a user does, and
compares what it writes: exit code, stderr, and output bytes where the
contract is about bytes.  The module needs only numpy and zenobell, so
an install without the test extra can run it::

    python tests/contract.py

runs every check, prints one line for each and exits 1 if any fails.
The Tier-1 suite runs each function on its own (``test_contract.py``).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import zenobell

# the package's parent directory, so that a source checkout runs without an install
_SOURCE = str(Path(zenobell.__file__).resolve().parents[1])


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
    _require("max |B_S| = 2.496165214" in result.stdout, f"no 'max |B_S| = 2.496165214' in:\n{result.stdout}")
    _require("selftest passed" in result.stdout.splitlines(), f"no line 'selftest passed' in:\n{result.stdout}")


CHECKS = (
    check_rerun_into_one_directory,
    check_out_of_regime_run_is_quiet,
    check_overflowing_kappa_is_one_config_error_line,
    check_sampled_landscape_same_seed_same_bytes,
    check_zero_length_trajectory_row,
    check_step_budget_is_one_config_error_line,
    check_selftest_lines,
)


def main() -> int:
    failed = 0
    for check in CHECKS:
        with tempfile.TemporaryDirectory() as work:
            try:
                check(Path(work))
            except ContractError as exc:
                failed += 1
                print(f"FAIL {check.__name__}: {exc}")
            else:
                print(f"ok   {check.__name__}")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} contract checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
