import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from rplsim import cli
from rplsim.cli import main, read_result_rows
from rplsim.engine import EVENT_FIELDS, run
from rplsim.metrics import CSV_COLUMNS, aggregate_rows, summarize_run
from rplsim.scenario import MAX_SCENARIO_CHARS, load_scenario


TINY = """
node_count = 30
area = 60x60
duration_s = 40
malicious_fraction = 0.1
seed = 3
"""


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def sweep_pools(tiny_file, tmp_path, monkeypatch, jobs, seeds):
    """Run a one-value sweep over ``seeds`` with ``--jobs jobs`` and return
    the ``max_workers`` of every process pool it opened."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert main(["sweep", "--scenario", tiny_file, "--axis", "malicious_fraction",
                 "--values", "0.0", "--seeds", seeds, "--jobs", str(jobs),
                 "--out", str(tmp_path / "o")]) == 0
    return pools


def rejected(tmp_path, capsys, text):
    """Check that ``rplsim run`` on a scenario file of ``text`` exits 1 and
    writes no output directory, and return what it printed to stderr."""
    path = tmp_path / "s.cfg"
    path.write_text(text)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    return capsys.readouterr().err


def crash_in_worker(cell):
    """A sweep cell whose worker process dies at once."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("ran in the test process, not in a worker")
    os._exit(3)


class TestRunCommand:
    def test_run_writes_one_row(self, tiny_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--scenario", tiny_file, "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("scenario,seed,")
        assert (out / "verdicts.csv").exists()

    def test_seed_override(self, tiny_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", tiny_file, "--seed", "9", "--out", str(a)])
        main(["run", "--scenario", tiny_file, "--out", str(b)])
        row_a = read_result_rows(a)[0]
        row_b = read_result_rows(b)[0]
        assert row_a["seed"] == 9
        assert row_b["seed"] == 3

    def test_trace_is_parseable_ndjson(self, tiny_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", tiny_file, "--trace", "--out", str(out)])
        lines = (out / "trace.ndjson").read_text().splitlines()
        assert lines
        kinds = set()
        for line in lines:
            record = json.loads(line)
            kinds.add(record["ev"])
        assert {"traffic_emit", "packet_fate", "dio_rx", "hello_tx"} <= kinds

    def test_unknown_config_key_exits_1_naming_key(self, tmp_path, capsys):
        for key in ("not_a_key", "mobility"):  # networks are static
            assert ("config error: unknown config key %r" % key
                    in rejected(tmp_path, capsys, "%s = none\n" % key))

    def test_runaway_event_budget_exits_1_naming_the_estimate(self, tmp_path, capsys):
        # scenario3 with a forged DIO every microsecond: ~1.5e11 timers.
        assert "1.5e+11 timer firings" in rejected(
            tmp_path, capsys, "node_count = 500\narea = 100x100\nduration_s = 1000\n"
            "malicious_fraction = 0.3\nattack_interval_s = 1e-6\n")

    def test_huge_topology_exits_1_naming_the_estimate(self, tmp_path, capsys):
        # Fails in validation, before any node is placed.
        assert ("config error: placing 20000 nodes may take up to 2e+10 pair tests"
                in rejected(tmp_path, capsys, "node_count = 20000\nduration_s = 0.5\n"))

    def test_invalid_value_exits_1(self, tmp_path, capsys):
        rejected(tmp_path, capsys, "node_count = 1\n")

    def test_non_finite_value_exits_1_naming_key(self, tmp_path, capsys):
        assert ("config error: hop_latency_s must be finite"
                in rejected(tmp_path, capsys, TINY + "hop_latency_s = nan\n"))

    def test_flooder_starting_before_calibration_exits_1(self, tmp_path, capsys):
        # Before the second hello, listeners would get no adaptive threshold
        # and the run would silently detect no flooding.
        err = rejected(tmp_path, capsys, "node_count = 25\narea = 60x60\nduration_s = 40\n"
                       "malicious_fraction = 0.04\nattack_type = flooder\nseed = 4\n"
                       "attack_start_s = 0.5\n")
        assert "config error: attack_start_s" in err and "hello_period_s" in err

    def test_hop_latency_that_cannot_advance_the_clock_exits_1(self, tmp_path, capsys):
        # Half the float spacing at 1000 s: 1000.0 + h rounds back to 1000.0
        # (ties to even) while (1000.0 - spacing) + h still moves forward,
        # so the bound is the spacing itself, not a test at the horizon.
        spacing = math.ulp(1000.0)
        base = "node_count = 10\narea = 30x30\nduration_s = 1000\nseed = 3\n"
        path = tmp_path / "instant.cfg"
        for latency, code in ((1e-300, 1), (spacing / 2, 1), (spacing, 0)):
            path.write_text(base + "hop_latency_s = %r\n" % latency)
            out = tmp_path / ("o%d" % code)
            assert main(["run", "--scenario", str(path), "--out", str(out)]) == code
            err = capsys.readouterr().err
            if code:
                assert err.startswith("config error: hop_latency_s")
                assert "duration_s" in err
                assert not out.exists()
            else:
                assert (out / "results.csv").exists()

    def test_too_many_attackers_exits_1_without_a_traceback(self, tmp_path, capsys):
        # The four nodes connect, so only validation stands between this
        # file and drawing 4 attackers from 3 candidates.
        err = rejected(tmp_path, capsys, "node_count = 4\narea = 10x10\nduration_s = 10\n"
                       "malicious_fraction = 0.9\n")
        assert err.startswith("config error: malicious_fraction")
        assert "Traceback" not in err

    def test_huge_tx_range_exits_1_without_a_traceback(self, tmp_path, capsys):
        # tx_range ** 2 overflowed; tx_range * tx_range is inf, so every
        # pair counts as a link. Twenty nodes then make a valid file.
        path = tmp_path / "wide.cfg"
        path.write_text("node_count = 20\ntx_range = 1e200\n")
        assert load_scenario(str(path)).tx_range == 1e200
        err = rejected(tmp_path, capsys, "node_count = 2000\ntx_range = 1e200\nduration_s = 1\n")
        assert err.startswith("config error: the topology would hold about 2e+06 links")
        assert "Traceback" not in err

    def test_undecodable_scenario_exits_1_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"# caf\xe9\n" + TINY.encode())
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read scenario %r" % str(path))
        assert "Traceback" not in err

    def test_endless_scenario_exits_1_naming_the_file(self, tmp_path, capsys):
        # Read up to MAX_SCENARIO_CHARS + 1 characters, not to the end.
        path = tmp_path / "huge.cfg"
        path.write_text("#" * (MAX_SCENARIO_CHARS + 1))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: cannot read scenario %r: over" % str(path))
        assert not (tmp_path / "o").exists()
        if os.path.exists("/dev/zero"):
            # In a child whose address space is capped at 1 GiB, so that code
            # reading to the end fails here instead of filling the host's memory.
            import resource

            def cap():
                resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

            done = subprocess.run(
                [sys.executable, "-m", "rplsim.cli", "run", "--scenario", "/dev/zero",
                 "--out", str(tmp_path / "o")], preexec_fn=cap, capture_output=True,
                text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))))
            assert (done.returncode, done.stderr) == (
                1, "config error: cannot read scenario '/dev/zero': over %d characters\n"
                % MAX_SCENARIO_CHARS)

    def test_usage_error_exits_1(self, capsys):
        assert main(["run"]) == 1  # --scenario is required
        assert main(["bogus-command"]) == 1


# Edge values per trace field; any other field takes an int and a float.
TRACE_SAMPLES = {
    "t": (0.0, 0.1 + 0.2),
    "receiver_dv": (None, 2),
    "from_parent": (True, False),
    "filtered": (False, True),
    "changed": (True, False),
    "old_parent": (None, 4),
    "value": (None, 1 / 3, float("inf")),
    "suspects": ((), (3, 7)),
    "outcome": ("delivered", "ttl"),
    "reason": ("sinkhole", "no_parent"),
}


class TestTraceWriter:
    def test_every_kind_is_written_as_compact_json_dumps(self, tmp_path):
        records = []
        for kind, fields in EVENT_FIELDS.items():
            samples = [TRACE_SAMPLES.get(f, (7, 2.5)) for f in fields]
            for i in range(max(len(values) for values in samples)):
                records.append((kind,) + tuple(v[i % len(v)] for v in samples))
        path = tmp_path / "trace.ndjson"
        cli._write_trace(path, records)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(records)
        for line, (kind, *rest) in zip(lines, records):
            expected = {"ev": kind, **dict(zip(EVENT_FIELDS[kind], rest))}
            assert line == json.dumps(expected, separators=(",", ":"))


class TestSweepCommand:
    def test_sweep_table_shape(self, tiny_file, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--scenario", tiny_file, "--axis", "attack_interval_s",
                     "--values", "0.5,1,2", "--seeds", "1,2", "--out", str(out)]) == 0
        rows = read_result_rows(out)
        assert len(rows) == 6
        assert sorted({row["attack_interval_s"] for row in rows}) == [0.5, 1.0, 2.0]
        assert sorted({row["seed"] for row in rows}) == [1, 2]

    def test_interval_axis_sweep_mirrors_result_table(self, tiny_file, tmp_path):
        out = tmp_path / "sw8"
        assert main(["sweep", "--scenario", tiny_file, "--axis", "attack_interval_s",
                     "--values", "0.5,1,1.5,2,2.5,3,3.5,4", "--seeds", "1",
                     "--out", str(out)]) == 0
        rows = read_result_rows(out)
        assert [row["attack_interval_s"] for row in rows] == [
            0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]

    def test_sweep_jobs_parallel_equals_serial(self, tiny_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["sweep", "--scenario", tiny_file, "--axis", "malicious_fraction",
                "--values", "0.0,0.2", "--seeds", "1,2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_sweep_prints_one_progress_line_per_cell_in_order(self, tiny_file, tmp_path,
                                                             capsys):
        args = ["sweep", "--scenario", tiny_file, "--axis", "malicious_fraction",
                "--values", "0.0,0.2", "--seeds", "1,2"]
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / "out"
            assert main(args + ["--jobs", jobs, "--out", str(out)]) == 0
            captured = capsys.readouterr()
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            shutil.rmtree(out)
            outputs.append((captured.out, files, captured.err.splitlines()))
        serial, parallel = outputs
        assert serial == parallel
        progress = serial[2]
        assert [line.split(":")[0] for line in progress] == [
            "[1/4] malicious_fraction=0.0 seed=1", "[2/4] malicious_fraction=0.0 seed=2",
            "[3/4] malicious_fraction=0.2 seed=1", "[4/4] malicious_fraction=0.2 seed=2"]
        assert "[" not in serial[0]  # stdout carries no progress

    @pytest.mark.parametrize("jobs, seeds, cpus, expected", [
        (64, "1,2", 4, 2),  # capped by the cell count
        (3, "1,2,3,4", 2, 2),  # capped by the CPU count
        (3, "1,2,3,4", None, None),  # unknown CPU count: run serially
        (2, "1,2,3,4", 4, 2),  # within both caps
    ])
    def test_jobs_clamped_to_cells_and_cpus(self, tiny_file, tmp_path, monkeypatch,
                                            jobs, seeds, cpus, expected):
        # The host has 64 CPUs, and this process may run on ``cpus`` of them.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        if cpus is None:  # no affinity call, and the host count is unknown too
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        pools = sweep_pools(tiny_file, tmp_path, monkeypatch, jobs, seeds)
        assert pools == ([] if expected is None else [expected])

    def test_jobs_capped_by_host_count_without_affinity(self, tiny_file, tmp_path,
                                                        monkeypatch):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert sweep_pools(tiny_file, tmp_path, monkeypatch, 3, "1,2,3,4") == [2]

    def test_crashed_worker_exits_2(self, tiny_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(cli, "_sweep_cell", crash_in_worker)
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", tiny_file, "--axis", "malicious_fraction",
                     "--values", "0.0", "--seeds", "1,2", "--jobs", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("runtime error: ")
        assert not out.exists()

    @pytest.mark.parametrize("axis, values, seeds, named", [
        ("attack_interval_s", "1,2,1.0", "1", "duplicate --values: [1.0]"),
        ("node_count", "10,12,10", "1", "duplicate --values: [10]"),
        ("attack_interval_s", "1,2", "1,2,1", "duplicate --seeds: [1]"),
    ])
    def test_duplicate_cell_exits_1(self, tiny_file, tmp_path, capsys, axis, values, seeds,
                                    named):
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", tiny_file, "--axis", axis, "--values", values,
                     "--seeds", seeds, "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_1(self, tiny_file, tmp_path, capsys):
        # Seed -5 would build seed 5's network and count it twice in aggregate.csv.
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", tiny_file, "--axis", "malicious_fraction",
                     "--values", "0.1", "--seeds", "5,-5", "--out", str(out)]) == 1
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, tiny_file, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", tiny_file, "--axis", "attack_interval_s",
                     "--values", "1", "--jobs", jobs, "--out", str(out)]) == 1
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_axis_value_exits_1(self, tiny_file, tmp_path, capsys):
        # Sweep values parse as scenario-file values of their key.
        for flags, message in ((["--values", "ten"], "node_count: expected an integer, got 'ten'"),
                               (["--values", "10", "--seeds", "1,x"],
                                "seed: expected an integer, got 'x'")):
            assert main(["sweep", "--scenario", tiny_file, "--axis", "node_count", *flags,
                         "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err == "config error: %s\n" % message


class TestReportCommand:
    def test_report_round_trips_in_process_aggregation(self, tiny_file, tmp_path):
        out = tmp_path / "sw"
        main(["sweep", "--scenario", tiny_file, "--axis", "attack_interval_s",
              "--values", "1,2", "--seeds", "1,2,3", "--out", str(out)])
        # Runs of NA.cfg and zeta.cfg in the same directory: the label "NA"
        # is text, not an undefined value, and sorts before "tiny".
        for label in ("NA", "zeta"):
            (tmp_path / (label + ".cfg")).write_text(TINY)
            assert main(["run", "--scenario", str(tmp_path / (label + ".cfg")),
                         "--out", str(tmp_path / label)]) == 0
            shutil.copy(tmp_path / label / "results.csv", out / (label + ".csv"))
        # independent in-process aggregation over the same plan
        base = load_scenario(tiny_file)
        rows = [
            summarize_run(run(replace(base, attack_interval_s=v, seed=s)),
                          scenario="tiny")
            for v in (1.0, 2.0) for s in (1, 2, 3)
        ] + [summarize_run(run(base), scenario=label) for label in ("NA", "zeta")]
        expected = aggregate_rows(rows)
        assert [agg["scenario"] for agg in expected] == ["NA", "tiny", "tiny", "zeta"]
        assert main(["report", "--in", str(out), "--out", str(tmp_path / "rep")]) == 0
        agg_lines = (tmp_path / "rep" / "aggregate.csv").read_text().splitlines()
        assert len(agg_lines) == 1 + len(expected)
        assert [line.split(",")[0] for line in agg_lines[1:]] == ["NA", "tiny", "tiny", "zeta"]
        reparsed = aggregate_rows(read_result_rows(out))
        assert reparsed == expected

    def test_report_on_empty_dir_exits_1(self, tmp_path):
        assert main(["report", "--in", str(tmp_path)]) == 1

    def test_report_on_missing_dir_exits_1(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "nope")]) == 1

    @pytest.mark.parametrize("bad_row", [
        lambda cells: [("abc" if c == "pdr_pct" else v) for c, v in zip(CSV_COLUMNS, cells)],
        lambda cells: cells[:2],
        lambda cells: [("maybe" if c == "detection_enabled" else v)
                       for c, v in zip(CSV_COLUMNS, cells)],
        lambda cells: [("nan" if c == "pdr_pct" else v) for c, v in zip(CSV_COLUMNS, cells)],
    ], ids=["non_number", "short_row", "bad_bool", "nan"])
    def test_bad_row_exits_1_naming_file_and_line(self, tiny_file, tmp_path, capsys,
                                                  bad_row):
        out = tmp_path / "out"
        assert main(["run", "--scenario", tiny_file, "--out", str(out)]) == 0
        path = out / "results.csv"
        header, row = path.read_text().splitlines()
        path.write_text("\n".join([header, row, ",".join(bad_row(row.split(",")))]) + "\n")
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s line 3: " % path)
        assert "Traceback" not in err

    def test_undecodable_csv_exits_1_naming_the_file(self, tiny_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", tiny_file, "--out", str(out)]) == 0
        path = out / "results.csv"
        path.write_bytes(path.read_bytes() + b"caf\xe9\n")
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: 'utf-8' codec can't decode" % path)
        assert "Traceback" not in err
