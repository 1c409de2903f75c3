"""The CI jobs as one script: the steps of each job, in order, by name.

    python tests/ci.py tests        # Tier-1 tests, mutants, benchmark tests, selftest
    python tests/ci.py numpy-only   # selftest on two BLAS kernels, demos, command-line contract
    python tests/ci.py cpu-matrix   # contract, selftest and test_expm on emulated older CPUs

The workflow installs the package and then runs this script with its job
id, so a local run and CI run one list of steps.  Every step runs from
the repository root with ``src`` on ``PYTHONPATH``.  The selftest runs
``zenobell selftest --quiet`` through the installed console script, so
CI checks the ``zenobell`` entry point of ``pyproject.toml``; under CI
(``CI`` set, as GitHub Actions sets it) a missing script fails the step.
Elsewhere, in a checkout without an install, it runs the same ``main``
as ``python -m zenobell.cli``.  Each step is printed by name; a job stops
at its first failing step, names it and exits with that step's code.
The ``numpy-only`` job makes sense on an install without the ``test``
extra; on one with scipy it runs the same steps.

``cpu-matrix`` is no workflow job: it runs ``tests/contract.py``, the
selftest and ``tests/test_expm.py`` in six cells.  In each cell
``NPY_DISABLE_CPU_FEATURES`` is unset, "X86_V4" or "X86_V4 X86_V3", and
``OPENBLAS_CORETYPE`` is unset or "Prescott".  These variables make
numpy and OpenBLAS on an x86-64 CPU take the code paths of older ones,
and act only on the process that reads them.  The job runs every cell,
names each one that fails and exits 1 if any did.
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PYTHON = sys.executable


def selftest_command() -> tuple[str, ...]:
    """The installed ``zenobell`` script's selftest; ``python -m zenobell.cli`` outside CI without an install."""
    if shutil.which("zenobell") or os.environ.get("CI"):
        return ("zenobell", "selftest", "--quiet")
    return (PYTHON, "-m", "zenobell.cli", "selftest", "--quiet")


SELFTEST = selftest_command()
DEMOS = tuple((PYTHON, "-W", "error", f"demos/{demo.name}") for demo in sorted(ROOT.glob("demos/*.py")))


class Step(NamedTuple):
    name: str
    commands: tuple[tuple[str, ...], ...]  # run in turn; the step fails at the first that fails
    env: dict = {}  # added to the environment of each command
    quiet: bool = False  # drop the commands' stdout


SELFTEST_STEP = Step("Selftest", (SELFTEST,))
# tests/contract.py, one function per check (also run by the Tier-1 suite),
# ending with the four figure and four scenario tables of the benchmark
# workloads against bench/reference byte for byte
CONTRACT_STEP = Step("Command-line contract", ((PYTHON, "tests/contract.py"),))

JOBS = {
    "tests": (
        # any warning fails the suite: the filterwarnings policy of pyproject.toml
        Step("Tier-1 tests", ((PYTHON, "-m", "pytest", "-q", "--continue-on-collection-errors"),)),
        # tests/mutants.py: each registered source mutant, applied to a copy
        # of src, must fail the tests named for it
        Step("Mutants", ((PYTHON, "tests/mutants.py"),)),
        Step("Benchmark tests", ((PYTHON, "-m", "pytest", "bench"),)),
        SELFTEST_STEP,
    ),
    "numpy-only": (
        SELFTEST_STEP,
        # the pinned digests are of rendered text, which must not depend on
        # the BLAS kernel that computed the floats
        Step("Selftest on a second BLAS kernel", (SELFTEST,), {"OPENBLAS_CORETYPE": "Prescott"}),
        # each demo imports each name from its defining module, runs on numpy
        # alone, and fails on a warning
        Step("Demos", DEMOS, quiet=True),
        CONTRACT_STEP,
    ),
}

CPU_MATRIX_STEPS = (
    CONTRACT_STEP,
    SELFTEST_STEP,
    Step("expm tests", ((PYTHON, "-m", "pytest", "-q", "tests/test_expm.py"),)),
)
# (NPY_DISABLE_CPU_FEATURES, OPENBLAS_CORETYPE) of each cell; "" leaves the variable unset
CPU_CELLS = tuple(itertools.product(("", "X86_V4", "X86_V4 X86_V3"), ("", "Prescott")))


def run_step(step: Step, label: str, base_env: dict) -> int:
    """Run the commands of ``step`` in turn and return the first nonzero exit code, or 0."""
    print(f"== {label}: {step.name}", flush=True)
    start = time.perf_counter()
    env = {**base_env, **step.env}
    for command in step.commands:
        if step.quiet:
            print(f"   {command[-1]}", flush=True)
        stdout = subprocess.DEVNULL if step.quiet else None
        try:
            code = subprocess.run(command, cwd=ROOT, env=env, stdout=stdout).returncode
        except FileNotFoundError:
            print(f"   command not found: {command[0]}", flush=True)
            code = 127
        if code:
            return code
    print(f"== {label}: {step.name} passed [{time.perf_counter() - start:.1f} s]", flush=True)
    return 0


def source_env(**variables: str) -> dict:
    """The environment with ``src`` first on ``PYTHONPATH``, and each of ``variables`` set, or unset when ''."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name, value in variables.items():
        env.pop(name, None)
        if value:
            env[name] = value
    return env


def run_job(job: str) -> int:
    for step in JOBS[job]:
        if code := run_step(step, job, source_env()):
            print(f"== {job}: FAILED at step {step.name!r} (exit {code})", flush=True)
            return code
    print(f"== {job}: all {len(JOBS[job])} steps passed", flush=True)
    return 0


def run_cpu_matrix() -> int:
    failed = []
    for features, coretype in CPU_CELLS:
        cell = f"NPY_DISABLE_CPU_FEATURES={features!r} OPENBLAS_CORETYPE={coretype or 'default'}"
        env = source_env(NPY_DISABLE_CPU_FEATURES=features, OPENBLAS_CORETYPE=coretype)
        for step in CPU_MATRIX_STEPS:
            if code := run_step(step, cell, env):
                failed.append(f"{cell} at step {step.name!r} (exit {code})")
                break
    for line in failed:
        print(f"== cpu-matrix: FAILED cell {line}", flush=True)
    print(f"== cpu-matrix: {len(CPU_CELLS) - len(failed)} of {len(CPU_CELLS)} cells passed", flush=True)
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    jobs = (*JOBS, "cpu-matrix")
    if len(argv) != 1 or argv[0] not in jobs:
        print(f"usage: python tests/ci.py {{{','.join(jobs)}}}", file=sys.stderr)
        return 2
    if SELFTEST[0] != "zenobell":
        print("== no zenobell console script on PATH: the selftest runs python -m zenobell.cli", flush=True)
    return run_cpu_matrix() if argv[0] == "cpu-matrix" else run_job(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
