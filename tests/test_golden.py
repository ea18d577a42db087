"""Golden transcripts: sha256 digests of what `rplsim run --trace` writes.

A change meant only to make the simulator faster or smaller must leave
every byte of ``results.csv``, ``verdicts.csv`` and ``trace.ndjson``
unchanged on these scenarios. A digest may change only in a change that
says why.
"""

import contextlib
import hashlib
import io

import pytest

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
    "detection_off": (SINKHOLE + "detection_enabled = false\nseed = 5\n", {
        "results.csv": "4071654c17c45046fd698e8cff27a96a732d353f7a577d39457e7e7b24728059",
        "verdicts.csv": "e1b03303de1a83842ffb46376f82a75ddc60bfc3b9cbb22234e2326645a856c1",
        "trace.ndjson": "abcf3791eb8e05fab28705984ed14bf90963e76204767dc84881cb3a50af1b3d",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(name, tmp_path):
    text, digests = GOLDEN[name]
    scenario = tmp_path / (name + ".cfg")
    scenario.write_text(text)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--scenario", str(scenario), "--trace",
                     "--out", str(out)]) == 0
    actual = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
    assert actual == digests
