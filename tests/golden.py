"""Golden transcripts: sha256 digests of what `rplsim run` writes.

A change meant only to make the simulator faster or smaller must leave
every byte of ``results.csv``, ``verdicts.csv`` and ``trace.ndjson``
unchanged on these scenarios. A digest may change only in a change that
says why; ``--capture`` records it from the tree on ``sys.path``.

The small scenarios end by 120 s and run traced and untraced. The full
ones are the paper's four presets at full scale (500 nodes, 1000 s), seed
1, untraced, about 4 s each: only they reach the grid ticks near
``k = 1000`` and a steady state hundreds of DIO periods long.

Needs no pytest, so any interpreter can check the digests:

    PYTHONPATH=src python tests/golden.py [--capture] [NAME ...]

runs each named scenario (default: every small one) in a temporary
directory, prints one line per output file with its run time, and exits 1
on any mismatch. With ``--capture`` it first records the digests of the
scenarios it runs in ``tests/golden.json``, keeping the other entries.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from rplsim.cli import main

SINKHOLE = "node_count = 60\narea = 80x80\nduration_s = 40\nmalicious_fraction = 0.3\n"

# name -> scenario file
SMALL = {
    "sinkhole_drop": SINKHOLE + "seed = 5\n",
    "sinkhole_alter": SINKHOLE + "sinkhole_data_plane = alter\nseed = 6\n",
    # Seed 4 has flood verdicts that move a node off its parent; its trace
    # logs those two moves as parent_change records.
    "flooder": ("node_count = 25\narea = 60x60\nduration_s = 40\n"
                "malicious_fraction = 0.04\nattack_type = flooder\nseed = 4\n"),
    # 100 nodes, 30 rank-0 sinkholes: 30 root floods reach nodes that have
    # missed some, and 78 re-parentings.
    "sinkhole_floods": "node_count = 100\nduration_s = 20\nmalicious_fraction = 0.3\nseed = 7\n",
    # A threshold fixed at setup rather than calibrated from the warm-up.
    "flooder_fixed_threshold": ("node_count = 40\narea = 70x70\nduration_s = 30\n"
                                "malicious_fraction = 0.1\nattack_type = flooder\n"
                                "apt_threshold = 2.5\nseed = 6\n"),
    "detection_off": SINKHOLE + "detection_enabled = false\nseed = 5\n",
    # Hops of 0.7 s leave 90 packets in flight at the horizon, 86 of them
    # corrupted by an unflagged sinkhole: each ends as sim_end, not altered.
    "in_flight_at_end": (SINKHOLE + "hop_latency_s = 0.7\nsinkhole_data_plane = alter\n"
                         "detection_enabled = false\nseed = 5\n"),
    # Mostly steady state: the last re-parenting is at 16 s, and from 20 s
    # on every 10 s block of verdict rows repeats the one before it.
    "steady_state": ("node_count = 100\nduration_s = 120\nmalicious_fraction = 0.3\n"
                     "dio_period_s = 2\nseed = 3\n"),
}
FULL = ("scenario1", "scenario2", "scenario3", "scenario4")

DIGESTS = Path(__file__).resolve().parent / "golden.json"
# name -> {output file: sha256}
GOLDEN = json.loads(DIGESTS.read_text(encoding="utf-8"))


def run_digests(tmp_path, name, *flags):
    """sha256 of every file `rplsim run` writes for scenario ``name``."""
    if name in FULL:
        scenario = ["--scenario", name, "--seed", "1"]
    else:
        path = Path(tmp_path) / (name + ".cfg")
        path.write_text(SMALL[name])
        scenario = ["--scenario", str(path)]
    out = Path(tmp_path) / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", *scenario, *flags, "--out", str(out)])
    if code != 0:
        raise RuntimeError("rplsim run exited %d on %s" % (code, name))
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


def expected(name, traced):
    """The golden digests of a traced or an untraced run: without a trace
    the engine may skip work nothing would log, but the outcomes must not
    change."""
    digests = dict(GOLDEN.get(name, {}))
    if not traced:
        digests.pop("trace.ndjson", None)
    return digests


def check(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="scenarios to run (default: every small one; full: %s)"
                        % ", ".join(FULL))
    parser.add_argument("--capture", action="store_true",
                        help="record the digests in %s" % DIGESTS.name)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - SMALL.keys() - set(FULL))
    if unknown:
        parser.error("unknown scenario(s) %s" % unknown)
    mismatches = 0
    for name in args.names or sorted(SMALL):
        # A capture records the first run; a small scenario's untraced run
        # is then checked against it.
        runs = [()] if name in FULL else [("--trace",), ()]
        for flags in runs:
            with tempfile.TemporaryDirectory() as tmp:
                t0 = perf_counter()
                got = run_digests(tmp, name, *flags)
                took = perf_counter() - t0
            if args.capture and flags is runs[0]:
                GOLDEN[name] = got
            want = expected(name, bool(flags))
            for file in sorted(want.keys() | got.keys()):
                ok = got.get(file) == want.get(file)
                mismatches += not ok
                print("%-24s %-8s %-13s %6.1f s  %s" % (
                    name, "traced" if flags else "untraced", file, took,
                    "match" if ok else "MISMATCH"))
    if args.capture:
        DIGESTS.write_text(json.dumps(dict(sorted(GOLDEN.items())), indent=2) + "\n",
                           encoding="utf-8")
        print("wrote %s" % DIGESTS)
    return 1 if mismatches else 0


if __name__ == "__main__":
    print("python %s" % sys.version.split()[0])
    sys.exit(check(sys.argv[1:]))
