"""The mutant registry (``mutants.py``) still applies to the source as it is.

Whether each mutant is killed is the registry script's job, run as its own
CI step; this only checks that every old text occurs exactly once, and that
its pytest flags report a failing hypothesis test as a failure.
"""

import subprocess
import sys

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_applies_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1, (mutant.file, mutant.old)


def test_a_failing_hypothesis_test_fails_the_run_under_the_warning_flags(tmp_path):
    # under -W error alone the hypothesis report hook's deprecation warning
    # turns this failure into INTERNALERROR, exit 3, with no FAILED line
    (tmp_path / "test_given.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_never_holds(x):\n"
        "    assert x < 0\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *mutants.PYTEST_WARNING_FLAGS, "-p", "no:cacheprovider", "test_given.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_given.py::test_never_holds" in run.stdout
