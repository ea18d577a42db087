"""The benchmark's fingerprint check and counter names, run as tests.

``perfbench/run.py`` hashes each workload's output bytes (CSV rows,
verdicts, traces) into a fingerprint and compares it with the one recorded
for that seed in ``perfbench/fingerprints.json``. This runs every workload
of ``BENCHMARK.json`` for seed 1, without ``--record``, and needs each to
print ``golden: match`` with no failed run. That puts the paper-scale
sinkhole run, with its 150 blacklist floods, under the test suite.

``perfbench/layers.py`` reads cProfile figures by function name, and a
name that no longer exists reads 0 with no error. So the handler and
call-count names it lists must name functions of the package.
"""

import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Loaded at collection, before any property test draws its examples.
_spec = importlib.util.spec_from_file_location("perfbench_layers",
                                               ROOT / "perfbench" / "layers.py")
LAYERS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(LAYERS)

# (module, function) call counts that perfbench reads and that name no
# function of the package: each reads 0. Take one out when perfbench maps
# or drops it.
KNOWN_STALE = {
    ("detector", "ingest_hello"),
    ("detector", "update"),
    ("detector", "classify_dio"),
    ("rpl", "apply_blacklist_broadcast"),
    ("engine", "loop_free"),
}


def defined_functions(module_name):
    """The names cProfile gives the functions defined in ``rplsim.<module>``:
    its own functions and the methods of its own classes."""
    module = importlib.import_module("rplsim." + module_name)
    names = set()
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            names.add(obj.__name__)
        elif inspect.isclass(obj):
            names.update(name for name, v in vars(obj).items() if inspect.isfunction(v))
    return names


def test_every_profiled_name_exists_or_is_known_stale():
    engine = defined_functions("engine")
    assert [h for h in LAYERS.HANDLERS.values() if h not in engine] == []
    missing = {(module, name) for module, name in LAYERS.CALL_COUNTS.values()
               if name not in defined_functions(module)}
    assert missing == KNOWN_STALE


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
