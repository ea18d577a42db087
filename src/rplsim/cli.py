"""Command-line scenario runner: single runs, swept batches, CSV reports.

Exit codes: 0 success, 1 configuration error (bad scenario file, unknown
key, invalid arguments), 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from pathlib import Path

from .engine import EVENT_FIELDS, run
from .errors import ConnectivityFailure, InvalidConfig, RplSimError
from .metrics import (
    AGGREGATE_COLUMNS,
    CSV_COLUMNS,
    aggregate_rows,
    summarize_run,
)
from .scenario import PRESETS, load_scenario

SWEEP_AXES = ("malicious_fraction", "attack_interval_s", "node_count")

VERDICT_COLUMNS = ("time_s", "receiver", "sender", "kind", "dv_rank",
                   "di_rank", "apt_value", "threshold")


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # exact round-trip so report == in-process aggregation
    return str(value)


def _write_csv(path: Path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _write_verdicts(path: Path, verdicts):
    # csv writes None as an empty cell and floats with repr, as _fmt does;
    # verdict rows hold no bools.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VERDICT_COLUMNS)
        writer.writerows(verdicts)


# trace.ndjson holds one compact json.dumps of each record per line. Kinds
# whose records may carry a tuple, None or a bool go through json.dumps;
# every other kind formats the whole record with one %-template, where repr
# of an int or a finite float is json's own text. Every float is finite,
# since validate_config rejects non-finite config values.
_JSON_KINDS = frozenset({"blacklist_tx", "blacklist_rx", "parent_change", "threshold"})
_TEXT_FIELDS = frozenset({"outcome", "reason"})  # plain ASCII identifiers


def _trace_template(fields, json_text=()):
    """'{"ev":"%s","t":%r,...}\n' for records (kind, *values). Fields in
    ``json_text`` take a value the caller has already turned into json text."""
    parts = ['"ev":"%s"']
    for name in fields:
        if name in json_text:
            slot = "%s"
        elif name in _TEXT_FIELDS:
            slot = '"%s"'
        else:
            slot = "%r"
        parts.append('"%s":%s' % (name, slot))
    return "{%s}\n" % ",".join(parts)


_TRACE_TEMPLATES = {kind: _trace_template(fields) for kind, fields in EVENT_FIELDS.items()
                    if kind not in _JSON_KINDS}
# dio_rx is half of a trace: its nullable receiver_dv and two bools are
# mapped to json text inline.
_DIO_RX = _trace_template(EVENT_FIELDS["dio_rx"],
                          ("receiver_dv", "from_parent", "filtered"))
_JSON_BOOL = ("false", "true")


def _write_trace(path: Path, events):
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        for record in events:
            kind = record[0]
            if kind == "dio_rx":
                _, t, receiver, sender, adv, rank, dv, from_parent, filtered = record
                write(_DIO_RX % (kind, t, receiver, sender, adv, rank,
                                 "null" if dv is None else dv,
                                 _JSON_BOOL[from_parent], _JSON_BOOL[filtered]))
            elif kind in _JSON_KINDS:
                obj = {"ev": kind}
                obj.update(zip(EVENT_FIELDS[kind], record[1:]))
                write(json.dumps(obj, separators=(",", ":")) + "\n")
            else:
                write(_TRACE_TEMPLATES[kind] % record)


def _scenario_label(source: str) -> str:
    return source if source in PRESETS else Path(source).stem


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        print("see 'rplsim <command> --help' for the config schema", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rplsim",
        description="Discrete-event RPL sinkhole-detection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("--scenario", required=True,
                       help="preset name (%s) or a key=value config file"
                            % ", ".join(sorted(PRESETS)))
    p_run.add_argument("--seed", type=int, default=None, help="override the PRNG seed")
    p_run.add_argument("--trace", action="store_true",
                       help="dump the full event transcript as NDJSON")
    p_run.add_argument("--out", default="out", help="output directory")

    p_sweep = sub.add_parser("sweep", help="run a scenario across an axis of values")
    p_sweep.add_argument("--scenario", required=True, help="base preset or config file")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values for the swept axis")
    p_sweep.add_argument("--seeds", default="1", help="comma-separated seeds")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes (cells are independent); "
                              "at most one per cell and per CPU")
    p_sweep.add_argument("--out", default="out", help="output directory")

    p_report = sub.add_parser("report", help="re-aggregate result CSVs in a directory")
    p_report.add_argument("--in", dest="in_dir", required=True)
    p_report.add_argument("--out", default=None,
                          help="output directory (default: the input directory)")
    return parser


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    transcript = run(cfg, record_events=args.trace)
    row = summarize_run(transcript, scenario=_scenario_label(args.scenario))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "results.csv", CSV_COLUMNS, [row])
    _write_verdicts(out / "verdicts.csv", transcript.verdicts)
    if args.trace:
        _write_trace(out / "trace.ndjson", transcript.events)
    print(
        "%s seed=%d: pdr=%s dr=%s fpr=%s throughput=%s kbps -> %s"
        % (row["scenario"], row["seed"], _fmt(row["pdr_pct"]), _fmt(row["dr_pct"]),
           _fmt(row["fpr_pct"]), _fmt(row["throughput_kbps"]), out / "results.csv")
    )
    return 0


def _sweep_cell(cell):
    label, cfg = cell
    return summarize_run(run(cfg), scenario=label)


def _with_progress(results, axis, total):
    """Collect the cell rows in cell order, printing one stderr line as
    each arrives."""
    rows = []
    for row in results:
        rows.append(row)
        print("[%d/%d] %s=%s seed=%d: pdr=%s dr=%s fpr=%s"
              % (len(rows), total, axis, _fmt(row[axis]), row["seed"],
                 _fmt(row["pdr_pct"]), _fmt(row["dr_pct"]), _fmt(row["fpr_pct"])),
              file=sys.stderr, flush=True)
    return rows


def _cmd_sweep(args) -> int:
    base = load_scenario(args.scenario)
    label = _scenario_label(args.scenario)
    try:
        if args.axis == "node_count":
            values = [int(v) for v in args.values.split(",")]
        else:
            values = [float(v) for v in args.values.split(",")]
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError as exc:
        raise InvalidConfig("bad sweep values: %s" % exc)
    # A repeated cell would run twice and count twice in aggregate.csv.
    for flag, parsed in (("--values", values), ("--seeds", seeds)):
        repeated = sorted({v for v in parsed if parsed.count(v) > 1})
        if repeated:
            raise InvalidConfig("duplicate %s: %s" % (flag, repeated))
    if args.jobs < 1:
        raise InvalidConfig("--jobs must be >= 1, got %d" % args.jobs)
    cells = [
        (label, base.with_overrides(**{args.axis: value, "seed": seed}))
        for value in values
        for seed in seeds
    ]
    # More workers than cells or usable cores only adds idle processes.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(args.jobs, len(cells), cpus or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = _with_progress(pool.map(_sweep_cell, cells), args.axis, len(cells))
    else:
        rows = _with_progress(map(_sweep_cell, cells), args.axis, len(cells))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "results.csv", CSV_COLUMNS, rows)
    aggregated = aggregate_rows(rows)
    _write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, aggregated)
    for agg in aggregated:
        print(
            "%s=%s n=%d: pdr=%s dr=%s fpr=%s"
            % (args.axis, agg[args.axis], agg["n_runs"], _fmt(agg["pdr_pct"]),
               _fmt(agg["dr_pct"]), _fmt(agg["fpr_pct"]))
        )
    print("wrote %s (%d rows)" % (out / "results.csv", len(rows)))
    return 0


def _parse_cell(column: str, raw: str):
    if raw == "NA":
        return None
    if column in ("scenario",):
        return raw
    if column in ("seed", "node_count", "emitted", "delivered", "tp", "fp", "tn", "fn"):
        return int(raw)
    if column == "detection_enabled":
        if raw not in ("true", "false"):
            raise ValueError("%s: expected true or false, got %r" % (column, raw))
        return raw == "true"
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("%s: not a finite number: %r" % (column, raw))
    return value


def read_result_rows(directory: Path) -> list[dict]:
    """Parse every result CSV (matching the standard header) in a directory."""
    rows = []
    for path in sorted(directory.glob("*.csv")):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                if next(reader, None) != list(CSV_COLUMNS):
                    continue
                for record in reader:
                    if len(record) != len(CSV_COLUMNS):
                        raise ValueError("%d cells, expected %d" % (len(record), len(CSV_COLUMNS)))
                    rows.append({c: _parse_cell(c, v) for c, v in zip(CSV_COLUMNS, record)})
            except UnicodeDecodeError as exc:  # decoded ahead of the csv lines
                raise InvalidConfig("%s: %s" % (path, exc))
            except (ValueError, csv.Error) as exc:
                raise InvalidConfig("%s line %d: %s" % (path, reader.line_num, exc))
    return rows


def _cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise InvalidConfig("not a directory: %s" % in_dir)
    rows = read_result_rows(in_dir)
    if not rows:
        raise InvalidConfig("no result CSVs found in %s" % in_dir)
    aggregated = aggregate_rows(rows)
    out = Path(args.out) if args.out else in_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, aggregated)
    for agg in aggregated:
        print(
            "%s mal=%s interval=%s det=%s n=%d: pdr=%s dr=%s fpr=%s"
            % (agg["scenario"], _fmt(agg["malicious_fraction"]),
               _fmt(agg["attack_interval_s"]), _fmt(agg["detection_enabled"]),
               agg["n_runs"], _fmt(agg["pdr_pct"]), _fmt(agg["dr_pct"]),
               _fmt(agg["fpr_pct"]))
        )
    print("wrote %s (%d groups from %d rows)" % (out / "aggregate.csv",
                                                 len(aggregated), len(rows)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_report(args)
    except (InvalidConfig, ConnectivityFailure) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except (RplSimError, OSError, BrokenExecutor) as exc:  # BrokenExecutor: a worker died
        print("runtime error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
