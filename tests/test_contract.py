"""Every check of the command-line byte contract (``contract.py``), one test each."""

import pytest

import contract


@pytest.mark.parametrize("check", contract.CHECKS, ids=lambda check: check.__name__)
def test_contract(check, tmp_path):
    check(tmp_path)


def test_a_failed_expectation_is_reported():
    # a check fails by raising, so neither runner can pass it silently
    with pytest.raises(contract.ContractError, match="exit code 0, expected 1"):
        contract._exit(contract.zenobell_cli("selftest", "--quiet"), 1)
