"""The mutant registry (``mutants.py``) still applies to the source as it is.

Whether each mutant is killed is the registry script's job, run as its own
CI step; this only checks that every old text occurs exactly once.
"""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_applies_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1, (mutant.file, mutant.old)
