"""Differential run: which drawn scenarios write different bytes under this
tree and under a git revision.

Needs no pytest, so any interpreter can run it:

    PYTHONPATH=src python tests/differential.py REV [--count N] [--long M]

draws N scenarios (default 360) and M long ones (default 150) from fixed
seeds, exports ``src/`` of REV with ``git archive`` into a temporary
directory, runs every scenario with ``rplsim run``, traced and untraced,
under both trees, and compares the sha256 of ``results.csv``,
``verdicts.csv`` and ``trace.ndjson`` and the exit status. It prints one
line per scenario that differs and a summary, and exits 1 if any differs.

The draws are small (15 to 45 nodes, 10 to 16 s) sinkhole (drop, alter)
and flooder (fixed or adaptive threshold) runs with detection on or off.
Every third draw sets ``hop_latency_s`` to one of the hello, DIO or
traffic periods or the attack interval, where a grid's next tick falls
with the messages of its last one; the others draw a latency equal to
none of them. The long draws ``L0000`` on are drawn the same way but run
30 to 90 s with ``dio_period_s`` of 0.5 to 3 s, so that many go quiet and
an untraced run replays its steady state. A file whose lines are the
same but in another order is reported as "order only".
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from math import sqrt
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MODES = {"traced": ["--trace"], "untraced": []}
PERIODS = ("hello_period_s", "dio_period_s", "traffic", "attack_interval_s")
LONG_DIO_PERIODS = (0.5, 0.7, 1.0, 1.5, 2.0, 3.0)


def draw(i, long=False):
    """(scenario file text, names of the periods hop_latency_s equals) of
    draw ``i``, or of long draw ``i``."""
    rng = random.Random("long %d" % i if long else i)
    n = rng.randint(15, 45)
    side = rng.uniform(8.0, 11.0) * sqrt(n)  # dense enough to connect at once
    dio = LONG_DIO_PERIODS if long else (1.0, 2.0, 10.0)
    periods = dict(zip(PERIODS, (rng.choice((0.3, 0.5, 1.0, 2.0)), rng.choice(dio),
                                 rng.choice((1.0, 2.0)), rng.choice((1.0, 1.5)))))
    if i % 3 == 2:
        latency = periods[rng.choice(PERIODS)]
    else:
        latency = rng.choice((0.005, 0.02, 0.25, 0.7))
    hello = periods["hello_period_s"]
    attack = rng.choice(("drop", "alter", "fixed", "adaptive"))
    start = rng.choice((rng.uniform(2.0, 8.0), rng.randint(3, 6) * hello + latency))
    if attack == "adaptive":  # past the second hello, so the threshold calibrates
        start = rng.randint(3, 6) * hello + latency
    lines = [
        "node_count = %d" % n,
        "area = %rx%r" % (side, side),
        "hello_period_s = %r" % hello,
        "dio_period_s = %r" % periods["dio_period_s"],
        "traffic = cbr %r %s" % (periods["traffic"], rng.choice(("benign", "all"))),
        "attack_interval_s = %r" % periods["attack_interval_s"],
        "hop_latency_s = %r" % latency,
        "attack_start_s = %r" % start,
        "duration_s = %r" % (rng.uniform(30.0, 90.0) if long else rng.uniform(10.0, 16.0)),
        "alpha_low = %r" % rng.uniform(0.05, 1.0),
        "alpha_high = %r" % rng.uniform(0.05, 1.0),
        "detection_enabled = %s" % rng.choice(("true", "false")),
        "seed = %d" % rng.randrange(2**32),
    ]
    if attack in ("drop", "alter"):
        lines += ["malicious_fraction = %r" % rng.uniform(0.1, 0.4),
                  "sinkhole_data_plane = %s" % attack]
    else:
        lines += ["attack_type = flooder",
                  "malicious_fraction = %r" % rng.uniform(0.04, 0.2),
                  "flooder_rreq_rate_per_s = %r" % rng.uniform(1.05, 12.0),
                  "apt_threshold = %s" % (repr(rng.uniform(0.5, 4.0)) if attack == "fixed"
                                          else "adaptive")]
    return "\n".join(lines) + "\n", [p for p in PERIODS if periods[p] == latency]


def digests(scenarios):
    """Print one JSON line per scenario file in ``scenarios`` and mode: the
    exit status of ``rplsim run`` and, per file it wrote, the sha256 of its
    bytes and of its sorted lines. Runs under the tree on ``sys.path``."""
    from rplsim.cli import main

    for scenario in sorted(Path(scenarios).glob("*.cfg")):
        for mode, flags in MODES.items():
            with tempfile.TemporaryDirectory() as out:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(["run", "--scenario", str(scenario), *flags, "--out", out])
                files = {}
                for f in sorted(Path(out).iterdir()):
                    data = f.read_bytes()
                    files[f.name] = [hashlib.sha256(data).hexdigest(), hashlib.sha256(
                        b"\n".join(sorted(data.splitlines()))).hexdigest()]
            print(json.dumps([scenario.stem, mode, code, files]), flush=True)


def run_digests(trees, scenarios):
    """Run ``digests`` under each source tree of ``trees`` at once, one
    child process each, and return each tree's digests by (name, mode)."""
    procs = []
    for i, src in enumerate(trees):
        with open(scenarios / ("%d.jsonl" % i), "w") as out:
            procs.append(subprocess.Popen(
                [sys.executable, __file__, "--digests", str(scenarios)],
                env=dict(os.environ, PYTHONPATH=str(src)), stdout=out))
    results = []
    for i, proc in enumerate(procs):
        if proc.wait() != 0:
            raise RuntimeError("digest run under %s exited %d" % (trees[i], proc.returncode))
        lines = (scenarios / ("%d.jsonl" % i)).read_text().splitlines()
        results.append({(name, mode): (code, files)
                        for name, mode, code, files in map(json.loads, lines)})
    return results


def compare(rev, count, long) -> int:
    """Run ``count`` draws and ``long`` long ones under this tree and under
    ``rev``; print the ones that differ and a summary, and return how many
    differ."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                                 stdout=subprocess.PIPE, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        scenarios = tmp / "scenarios"
        scenarios.mkdir()
        equal = {}
        for name, i, is_long in ([("%04d" % i, i, False) for i in range(count)]
                                 + [("L%04d" % i, i, True) for i in range(long)]):
            text, equal[name] = draw(i, is_long)
            (scenarios / (name + ".cfg")).write_text(text)
        here, there = run_digests([REPO / "src", tmp / "rev" / "src"], scenarios)

    # (long draw, latency equals a period) -> outcomes
    tally = {(is_long, equals): [0, 0, 0] for is_long in (False, True) for equals in (False, True)}
    failed = 0
    for name in sorted(equal):
        changed, kind = [], 0
        for mode in MODES:
            (code, files), (rev_code, rev_files) = here[name, mode], there[name, mode]
            failed += code != 0
            if code != rev_code or files.keys() != rev_files.keys():
                changed.append("%s exit %s/%s" % (mode, code, rev_code))
                kind = 2
                continue
            for file in files:
                if files[file] != rev_files[file]:
                    order_only = files[file][1] == rev_files[file][1]
                    changed.append("%s %s%s" % (mode, file, " (order only)" if order_only else ""))
                    kind = max(kind, 1 if order_only else 2)
        tally[name.startswith("L"), bool(equal[name])][kind] += 1
        if changed:
            print("%s latency = %-28s %s" % (name, "/".join(equal[name]) or "no period",
                                             ", ".join(changed)))
    for (is_long, equals), (same, order, other) in sorted(tally.items()):
        print("%s, hop_latency_s equal to %s: %d drawn, %d identical, %d order only, %d changed"
              % ("long" if is_long else "short", "a grid period" if equals else "no grid period",
                 same + order + other, same, order, other))
    print("runs that exited non-zero under this tree: %d of %d" % (failed, 2 * len(equal)))
    return sum(order + other for _, order, other in tally.values())


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare this tree with")
    parser.add_argument("--count", type=int, default=360, help="scenarios to draw")
    parser.add_argument("--long", type=int, default=150, help="long scenarios to draw")
    parser.add_argument("--digests", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digests:
        digests(args.digests)
        return 0
    if args.rev is None:
        parser.error("a git revision is required")
    return 1 if compare(args.rev, args.count, args.long) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
