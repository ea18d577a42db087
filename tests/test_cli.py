import json

import pytest

from rplsim import cli
from rplsim.cli import main, read_result_rows
from rplsim.engine import run
from rplsim.metrics import aggregate_rows, summarize_run
from rplsim.scenario import load_scenario


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

    def test_repeat_runs_byte_identical(self, tiny_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--scenario", tiny_file, "--trace",
                         "--out", str(out)]) == 0
        for name in ("results.csv", "verdicts.csv", "trace.ndjson"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

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
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key = 1\n")
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_invalid_value_exits_1(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("node_count = 1\n")
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_usage_error_exits_1(self, capsys):
        assert main(["run"]) == 1  # --scenario is required
        assert main(["bogus-command"]) == 1


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

    @pytest.mark.parametrize("jobs, seeds, cpus, expected", [
        (64, "1,2", 4, 2),  # capped by the cell count
        (3, "1,2,3,4", 2, 2),  # capped by the CPU count
        (3, "1,2,3,4", None, None),  # unknown CPU count: run serially
        (2, "1,2,3,4", 4, 2),  # within both caps
    ])
    def test_jobs_clamped_to_cells_and_cpus(self, tiny_file, tmp_path, monkeypatch,
                                            jobs, seeds, cpus, expected):
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
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert main(["sweep", "--scenario", tiny_file, "--axis", "malicious_fraction",
                     "--values", "0.0", "--seeds", seeds, "--jobs", str(jobs),
                     "--out", str(tmp_path / "o")]) == 0
        assert pools == ([] if expected is None else [expected])

    def test_bad_axis_value_exits_1(self, tiny_file, tmp_path):
        assert main(["sweep", "--scenario", tiny_file, "--axis", "node_count",
                     "--values", "ten", "--out", str(tmp_path / "o")]) == 1


class TestReportCommand:
    def test_report_round_trips_in_process_aggregation(self, tiny_file, tmp_path):
        out = tmp_path / "sw"
        main(["sweep", "--scenario", tiny_file, "--axis", "attack_interval_s",
              "--values", "1,2", "--seeds", "1,2,3", "--out", str(out)])
        # independent in-process aggregation over the same plan
        base = load_scenario(tiny_file)
        rows = [
            summarize_run(run(base.with_overrides(attack_interval_s=v, seed=s)),
                          scenario="tiny")
            for v in (1.0, 2.0) for s in (1, 2, 3)
        ]
        expected = aggregate_rows(rows)
        assert main(["report", "--in", str(out), "--out", str(tmp_path / "rep")]) == 0
        agg_lines = (tmp_path / "rep" / "aggregate.csv").read_text().splitlines()
        assert len(agg_lines) == 1 + len(expected)
        reparsed = aggregate_rows(read_result_rows(out))
        assert reparsed == expected

    def test_report_on_empty_dir_exits_1(self, tmp_path):
        assert main(["report", "--in", str(tmp_path)]) == 1

    def test_report_on_missing_dir_exits_1(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "nope")]) == 1
