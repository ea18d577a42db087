"""The benchmark's fingerprint check, run as a test.

``perfbench/run.py`` hashes each workload's output bytes (CSV rows,
verdicts, traces) into a fingerprint and compares it with the one recorded
for that seed in ``perfbench/fingerprints.json``. This runs every workload
of ``BENCHMARK.json`` for seed 1, without ``--record``, and needs each to
print ``golden: match`` with no failed run. That puts the paper-scale
sinkhole run, with its 150 blacklist floods, under the test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_matches_its_recorded_fingerprint():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before = set(ROOT.glob(".perfbench-*"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    for workload in (w["name"] for w in spec["workloads"]):
        lines = [ln.split() for ln in done.stdout.splitlines() if ln.split()[:1] == [workload]]
        fingerprints = [ln for ln in lines if ln[1] == "fingerprint"]
        errors = [ln for ln in lines if ln[1] == "error_rate"]
        assert len(fingerprints) == 1 and fingerprints[0][-2:] == ["(golden:", "match)"], \
            done.stdout
        assert len(errors) == 1 and errors[0][-1] == "failed=0", done.stdout
    # Each workload removes its working directory when it ends.
    assert set(ROOT.glob(".perfbench-*")) == before
