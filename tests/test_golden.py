"""The golden digests of tests/golden.py, checked under pytest, and under
every other interpreter that can be found. Of the full-scale digests only
``scenario3``'s runs here; the other three run only in the tool."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import SMALL, expected, run_digests

TESTS = Path(__file__).resolve().parent
MINORS = ("3.10", "3.11", "3.12", "3.13")


def other_interpreters():
    """``(name, path)`` of each interpreter but the running one to run
    golden.py under: every entry of the ``os.pathsep``-separated
    ``RPLSIM_PYTHONS``, or else every ``versions/3.1[0-3]*/bin/python`` of
    the pyenv root. ``path`` is None for a minor version with no build."""
    running = Path(sys.executable).resolve()
    listed = os.environ.get("RPLSIM_PYTHONS")
    if listed:
        paths = [Path(p) for p in listed.split(os.pathsep) if p]
        return [(str(p), p) for p in paths if p.resolve() != running]
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = []
    for minor in MINORS:
        builds = sorted(root.glob("versions/%s.*/bin/python" % minor))
        found += [(p.parent.parent.name, p) for p in builds if p.resolve() != running]
        if not builds:
            found.append(("python" + minor, None))
    return found


@pytest.mark.parametrize("name", sorted(SMALL))
def test_run_outputs_match_golden_digests(name, tmp_path):
    assert run_digests(tmp_path, name, "--trace") == expected(name, traced=True)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_writes_the_same_results_and_verdicts(name, tmp_path):
    assert run_digests(tmp_path, name) == expected(name, traced=False)


def test_full_scale_scenario3_writes_its_recorded_digests(tmp_path):
    assert run_digests(tmp_path, "scenario3") == expected("scenario3", traced=False)


@pytest.mark.parametrize("name, python", other_interpreters())
def test_digests_match_under_other_interpreters(name, python, tmp_path):
    if python is None or not python.is_file():
        pytest.skip("no interpreter %s" % (python or name))
    done = subprocess.run([str(python), str(TESTS / "golden.py")], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(TESTS.parent / "src")),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    files = sum(len(expected(n, traced)) for n in SMALL for traced in (True, False))
    assert sum(line.endswith(" match") for line in done.stdout.splitlines()) == files
