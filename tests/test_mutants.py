"""The mutant registry (``mutants.py``) still applies to the source as it is.

Whether each mutant is killed is the registry script's job, run as its own
CI step; this only checks that every old text occurs exactly once, that
every test a mutant names is defined in its file (a renamed test fails
here, without a mutant run), and that the warning policy of
``pyproject.toml``, which every pytest run of the repository reads,
reports a failing hypothesis test and a warning as failures.
"""

import subprocess
import sys

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_applies_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1, (mutant.file, mutant.old)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_names_tests_that_exist(mutant):
    for test in mutant.tests:
        path, _, name = test.partition("::")
        file = mutants.ROOT / path
        assert file.is_file() and f"def {name.split('[')[0]}(" in file.read_text(), test


def test_a_failing_hypothesis_test_fails_the_run_under_the_warning_flags(tmp_path):
    # as an error, the hypothesis report hook's deprecation warning would
    # turn the first failure into INTERNALERROR, exit 3, with no FAILED line
    (tmp_path / "test_given.py").write_text(
        "import warnings\n\n"
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_never_holds(x):\n"
        "    assert x < 0\n\n\n"
        "def test_warns():\n"
        "    warnings.warn('a run warned', UserWarning)\n"
    )
    ini = ["-c", str(mutants.ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *ini, "-p", "no:cacheprovider", "test_given.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_given.py::test_never_holds" in run.stdout
    assert "FAILED test_given.py::test_warns" in run.stdout
