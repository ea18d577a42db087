"""Paper-scale digests: sha256 of what untraced `rplsim run` writes for the
paper's four scenarios at full scale (500 nodes, 1000 s), seed 1.

The goldens end by 120 s and perfbench by 200 s, so only these runs reach
the grid ticks near ``k = 1000`` and a steady state hundreds of DIO
periods long. A change meant only to make the simulator faster or smaller
must leave them unchanged. A digest may change only in a change that says
why; ``--capture`` records them from the tree on ``sys.path``.

Needs no pytest, so any interpreter can check the digests:

    PYTHONPATH=src python tests/paper.py [--capture] [NAME ...]

runs each named scenario (default: all four) in a temporary directory,
prints one line per output file with its run time, and exits 1 on any
mismatch. With ``--capture`` it writes ``tests/paper_digests.json``
instead, keeping the entries of scenarios it did not run.
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

DIGESTS = Path(__file__).resolve().parent / "paper_digests.json"
SCENARIOS = ("scenario1", "scenario2", "scenario3", "scenario4")
FILES = ("results.csv", "verdicts.csv")


def run_digests(tmp_path, name):
    """sha256 of ``results.csv`` and ``verdicts.csv`` of untraced `rplsim
    run` on preset ``name`` with seed 1."""
    out = Path(tmp_path) / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--scenario", name, "--seed", "1", "--out", str(out)])
    if code != 0:
        raise RuntimeError("rplsim run exited %d on %s" % (code, name))
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES}


def recorded():
    """The recorded digests: scenario -> {output file: sha256}."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def check(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="scenarios to run (default: all four)")
    parser.add_argument("--capture", action="store_true",
                        help="record the digests in %s" % DIGESTS.name)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(SCENARIOS))
    if unknown:
        parser.error("unknown scenario(s) %s (known: %s)" % (unknown, ", ".join(SCENARIOS)))
    want = recorded() if DIGESTS.is_file() else {}
    mismatches = 0
    for name in args.names or SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            t0 = perf_counter()
            got = run_digests(tmp, name)
            took = perf_counter() - t0
        if args.capture:
            want[name] = got
        for file in FILES:
            ok = got[file] == want.get(name, {}).get(file)
            mismatches += not ok
            print("%-10s %-13s %6.1f s  %s" % (name, file, took, "captured" if args.capture
                                                else "match" if ok else "MISMATCH"))
    if args.capture:
        DIGESTS.write_text(json.dumps(dict(sorted(want.items())), indent=2) + "\n",
                           encoding="utf-8")
        print("wrote %s" % DIGESTS)
        return 0
    return 1 if mismatches else 0


if __name__ == "__main__":
    print("python %s" % sys.version.split()[0])
    sys.exit(check(sys.argv[1:]))
