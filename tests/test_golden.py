"""The golden digests of tests/golden.py, checked under pytest."""

import pytest

from golden import GOLDEN, expected, run_digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(name, tmp_path):
    assert run_digests(tmp_path, name, "--trace") == expected(name, traced=True)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_untraced_run_writes_the_same_results_and_verdicts(name, tmp_path):
    assert run_digests(tmp_path, name) == expected(name, traced=False)
