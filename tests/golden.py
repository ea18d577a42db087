"""Golden transcripts: sha256 digests of what `rplsim run --trace` writes.

A change meant only to make the simulator faster or smaller must leave
every byte of ``results.csv``, ``verdicts.csv`` and ``trace.ndjson``
unchanged on these scenarios. A digest may change only in a change that
says why.

Needs no pytest, so any interpreter can check the digests:

    PYTHONPATH=src python tests/golden.py

runs every scenario traced and untraced in a temporary directory, prints
one line per output file, and exits 1 on any mismatch.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from rplsim.cli import main

SINKHOLE = "node_count = 60\narea = 80x80\nduration_s = 40\nmalicious_fraction = 0.3\n"

# name -> (scenario file, {output file: sha256})
GOLDEN = {
    "sinkhole_drop": (SINKHOLE + "seed = 5\n", {
        "results.csv": "9385c682a4fc370a54486cbee15f3c5c8f815430aab8aa5f8fc5aa728dc92a63",
        "verdicts.csv": "a09caf15e15b4d89bea925559be3ce7749c36760b4cbe1ffca47d3cf7fbb1c0a",
        "trace.ndjson": "868c81576354fd7135cc9629a3696bd0f828b5549a2da6c580c505dfdbbfcb09",
    }),
    "sinkhole_alter": (SINKHOLE + "sinkhole_data_plane = alter\nseed = 6\n", {
        "results.csv": "659042dd64f326c9c19dc36dee13ae9cc14143625a8093862cc7a1317814660d",
        "verdicts.csv": "9b8d842b0a76da2ee83b7263e66f3a77c8fe94ae7c05a26e4d5660774c2eb4e3",
        "trace.ndjson": "6b3db592fde228650a263809b9d4fdb0f2c8299ba8c5be64b4063ee8e4cf03ae",
    }),
    # Seed 4 has flood verdicts that move a node off its parent; its trace
    # logs those two moves as parent_change records.
    "flooder": ("node_count = 25\narea = 60x60\nduration_s = 40\n"
                "malicious_fraction = 0.04\nattack_type = flooder\nseed = 4\n", {
        "results.csv": "64a1615083337998b81abf466d234d6fa6746d3c9af905cafaca62fc707e551c",
        "verdicts.csv": "5c700abb2cb6f1e5c5690d301f9d778da265b229ce16ec6377070412842de1c0",
        "trace.ndjson": "52e345ddca3595235c54012cb7619f4ca3f841c82c1a5857c8a8359111b01dba",
    }),
    # 100 nodes, 30 rank-0 sinkholes: 30 root floods reach nodes that have
    # missed some, and 78 re-parentings.
    "sinkhole_floods": ("node_count = 100\nduration_s = 20\nmalicious_fraction = 0.3\n"
                        "seed = 7\n", {
        "results.csv": "3bda2709673a96cb4ecf8a068bc44dbe75ad5267a0f612ddc6f4149a08862d0a",
        "verdicts.csv": "2b44013e24f107d01c0efc79276eb552188f72eda9f645a58c441c1c5eade0e5",
        "trace.ndjson": "fdc68432aad383c341225823099d94517c81e99d2afe7df279540b1b57b31128",
    }),
    # A threshold fixed at setup rather than calibrated from the warm-up.
    "flooder_fixed_threshold": ("node_count = 40\narea = 70x70\nduration_s = 30\n"
                                "malicious_fraction = 0.1\nattack_type = flooder\n"
                                "apt_threshold = 2.5\nseed = 6\n", {
        "results.csv": "c26bd98cfd1d5ad13ef57008f6c53faccb234d207beeb5d8f5fcc8a79c6aeb73",
        "verdicts.csv": "3f89019c3391be655853d55073aa5ccc87c2f36e10e890bbd546d694216c86f0",
        "trace.ndjson": "3c9911a078dbca5e01c60d77997448a2e3ba66e7e7a2933c0175cc225d1d81ce",
    }),
    "detection_off": (SINKHOLE + "detection_enabled = false\nseed = 5\n", {
        "results.csv": "4071654c17c45046fd698e8cff27a96a732d353f7a577d39457e7e7b24728059",
        "verdicts.csv": "e1b03303de1a83842ffb46376f82a75ddc60bfc3b9cbb22234e2326645a856c1",
        "trace.ndjson": "abcf3791eb8e05fab28705984ed14bf90963e76204767dc84881cb3a50af1b3d",
    }),
    # Hops of 0.7 s leave 90 packets in flight at the horizon, 86 of them
    # corrupted by an unflagged sinkhole: each ends as sim_end, not altered.
    "in_flight_at_end": (SINKHOLE + "hop_latency_s = 0.7\nsinkhole_data_plane = alter\n"
                         "detection_enabled = false\nseed = 5\n", {
        "results.csv": "df9a43ca88a4d7931019950d3efb1b666d280a0590cd097b8ceca85491f8ebf5",
        "verdicts.csv": "e1b03303de1a83842ffb46376f82a75ddc60bfc3b9cbb22234e2326645a856c1",
        "trace.ndjson": "579e8d7a8167ceb2a43ff13621fdaafd3794b378de609c1e4933e09658b09972",
    }),
    # Mostly steady state: the last re-parenting is at 16 s, and from 20 s
    # on every 10 s block of verdict rows repeats the one before it.
    "steady_state": ("node_count = 100\nduration_s = 120\nmalicious_fraction = 0.3\n"
                     "dio_period_s = 2\nseed = 3\n", {
        "results.csv": "845a1c93635557a4e8be36c47cd012f857005ac8eeaae931c2770e8a06c0ee5c",
        "verdicts.csv": "e8ad64e3c40eca9f3788911b3acedd6017f75d76f3b8b5b5a5d85d1b1e519998",
        "trace.ndjson": "25768712d58b97895a382f5a79509d8402be1abb1a97f03ebd85265a165222c2",
    }),
}


def run_digests(tmp_path, name, *flags):
    """sha256 of every file `rplsim run` writes for scenario ``name``."""
    text, _ = GOLDEN[name]
    scenario = tmp_path / (name + ".cfg")
    scenario.write_text(text)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--scenario", str(scenario), *flags, "--out", str(out)])
    if code != 0:
        raise RuntimeError("rplsim run exited %d on %s" % (code, name))
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


def expected(name, traced):
    """The golden digests of a traced or an untraced run: without a trace
    the engine may skip work nothing would log, but the outcomes must not
    change."""
    digests = dict(GOLDEN[name][1])
    if not traced:
        del digests["trace.ndjson"]
    return digests


def check_all() -> int:
    """Run every scenario traced and untraced; print a line per file and
    return the number of mismatches."""
    mismatches = 0
    for name in sorted(GOLDEN):
        for flags in (("--trace",), ()):
            with tempfile.TemporaryDirectory() as tmp:
                got = run_digests(Path(tmp), name, *flags)
            want = expected(name, bool(flags))
            for file in sorted(want.keys() | got.keys()):
                ok = got.get(file) == want.get(file)
                mismatches += not ok
                print("%-24s %-8s %-13s %s" % (name, "traced" if flags else "untraced",
                                                file, "match" if ok else "MISMATCH"))
    return mismatches


if __name__ == "__main__":
    print("python %s" % sys.version.split()[0])
    sys.exit(1 if check_all() else 0)
