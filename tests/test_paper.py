"""The full-scale ``scenario3`` digest of tests/paper.py, under pytest. The
other three paper-scale digests run only in the tool."""

from paper import recorded, run_digests


def test_full_scale_scenario3_writes_its_recorded_digests(tmp_path):
    assert run_digests(tmp_path, "scenario3") == recorded()["scenario3"]
