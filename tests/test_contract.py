"""Every check of the command-line byte contract (``contract.py``), one test each.

The benchmark's reference tables are checked one test per table in
``test_config_cli.py``.
"""

import os
import subprocess
import sys

import pytest

import contract


@pytest.mark.parametrize("check", contract.CHECKS, ids=lambda check: check.__name__)
def test_contract(check, tmp_path):
    check(tmp_path)


def test_a_failed_expectation_is_reported():
    # a check fails by raising, so neither runner can pass it silently
    with pytest.raises(contract.ContractError, match="exit code 0, expected 1"):
        contract._exit(contract.zenobell_cli("selftest", "--quiet"), 1)


def test_the_bare_command_imports_the_package_without_a_path(tmp_path):
    # ``python tests/contract.py`` as its docstring gives it, from another
    # directory and with no PYTHONPATH: the module imports zenobell itself
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    code = "import runpy, sys; runpy.run_path(sys.argv[1], run_name='contract'); print('zenobell' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code, contract.__file__], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "True\n", "")
