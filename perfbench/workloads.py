"""The benchmark's workloads: inputs made from a seed, one round of runs,
output checks and a determinism fingerprint.

Everything here calls rplsim through its public entry points
(``generate_topology``, ``Engine``, ``Engine.run``, ``summarize_run``,
``audit_conservation``, ``cli.main``). Spans are taken in this file around
those calls; nothing under ``src/`` carries a timer.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from rplsim import cli
from rplsim.engine import Engine
from rplsim.metrics import CSV_COLUMNS, audit_conservation, summarize_run
from rplsim.scenario import ScenarioConfig, load_scenario, preset
from rplsim.topology import generate_topology

# paper_sinkhole horizon in simulated seconds. The attack starts at 10% of
# it (2 s), after one hello round of threshold warm-up; the root's
# blacklist flood follows within a second and is ~82% of all events.
SINKHOLE_HORIZON_S = 20.0
# Simulations per round. More topologies per round average out how much
# work one random topology happens to need; paper_sinkhole's 500-node
# topologies vary little, and one of its runs already takes 10-15 s.
SEEDS_PER_ROUND = {"attack_free": 5, "paper_sinkhole": 1, "traced_baseline": 3}


@dataclass
class Run:
    """One simulation, from config to checked outputs, and what it produced."""

    seed: int
    wall_s: float  # host seconds from config to checked outputs
    engine_s: float  # host seconds in Engine.run (the cli's run() on traced_baseline)
    node_sim_s: float  # node_count x simulated seconds
    spans: dict
    outcome: dict
    fingerprint: str
    failures: list = field(default_factory=list)
    evlog_records: int = 0
    blacklist_rx: int = 0


def _fmt(value) -> str:
    """Cell formatting of the CLI's CSV files: NA, true/false, exact floats."""
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Digest:
    """A file-like sink that only hashes what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("utf-8"))


def _csv_digest(row, verdicts) -> str:
    """sha256 of results.csv followed by verdicts.csv, byte for byte as
    `rplsim run` writes them."""
    sink = _Digest()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    writer.writerow(cli.VERDICT_COLUMNS)
    for v in verdicts:
        writer.writerow(["" if x is None else _fmt(x) for x in v])
    return sink.sha.hexdigest()


def _files_digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
    return sha.hexdigest()


def _outcome(tr, row) -> dict:
    kinds = {}
    for v in tr.verdicts:
        kinds[v[3]] = kinds.get(v[3], 0) + 1
    return {
        "seed": tr.cfg.seed,
        "emitted": tr.emitted,
        "delivered": tr.delivered,
        "drops": dict(sorted(tr.drops.items())),
        "tp": row["tp"],
        "fp": row["fp"],
        "fn": row["fn"],
        "verdict_rows": len(tr.verdicts),
        "verdicts_by_kind": dict(sorted(kinds.items())),
    }


def _audit(tr) -> list:
    try:
        audit_conservation(tr)
    except ValueError as exc:
        return ["seed %d: conservation: %s" % (tr.cfg.seed, exc)]
    return []


def _no_false_positives(tr) -> list:
    """Criterion 1's invariant: an attack-free network is never flagged."""
    failures = []
    flagged = sum(1 for v in tr.verdicts if v[3] != "benign")
    if flagged:
        failures.append("seed %d: %d non-benign verdicts" % (tr.cfg.seed, flagged))
    if tr.root_blacklist:
        failures.append("seed %d: root blacklist %s"
                        % (tr.cfg.seed, sorted(tr.root_blacklist)))
    return failures


def _event_counts(tr):
    if tr.events is None:
        return 0, 0
    return len(tr.events), sum(1 for e in tr.events if e[0] == "blacklist_rx")


class EngineWorkload:
    """Runs configs through the library API: topology, engine, metrics."""

    def __init__(self, name, configs, check=None):
        self.name = name
        self.configs = configs
        self.check = check
        self._setups = 0

    def close(self):
        pass

    def setup(self) -> tuple:
        """Host seconds of (generate_topology, Engine(...)) for one config,
        taking the configs in turn."""
        cfg = self.configs[self._setups % len(self.configs)]
        self._setups += 1
        t0 = perf_counter()
        topo = generate_topology(cfg)
        t1 = perf_counter()
        Engine(cfg, topo)
        return t1 - t0, perf_counter() - t1

    def iterate(self, record_events=False) -> list:
        """One round: every config once."""
        return [self._run(cfg, record_events) for cfg in self.configs]

    def _run(self, cfg, record_events) -> Run:
        t0 = perf_counter()
        engine = Engine(cfg, generate_topology(cfg), record_events=record_events)
        t1 = perf_counter()
        tr = engine.run()
        t2 = perf_counter()
        row = summarize_run(tr, scenario=self.name)
        t3 = perf_counter()
        failures = _audit(tr)
        t4 = perf_counter()
        if self.check is not None:
            failures.extend(self.check(tr))
        wall = perf_counter() - t0
        spans = {"engine.run_s": t2 - t1, "metrics.summarize_s": t3 - t2,
                 "metrics.audit_s": t4 - t3}
        # Fingerprinting is the benchmark's own work: it stays out of wall_s.
        fingerprint = _csv_digest(row, tr.verdicts)
        return Run(cfg.seed, wall, t2 - t1, cfg.node_count * tr.end_time_s, spans,
                   _outcome(tr, row), fingerprint, failures, *_event_counts(tr))


class _Span:
    """Wraps one cli-module attribute to time its calls from outside."""

    def __init__(self, spans, name, fn, keep=None):
        self.spans, self.name, self.fn, self.keep = spans, name, fn, keep

    def __call__(self, *args, **kwargs):
        t0 = perf_counter()
        result = self.fn(*args, **kwargs)
        self.spans[self.name] = self.spans.get(self.name, 0.0) + perf_counter() - t0
        if self.keep is not None:
            self.keep.append(result)
        return result


class CliWorkload:
    """`rplsim run --trace` on a scenario file: the CLI's output layer.

    The CLI's collaborators are wrapped at the cli module's boundary so the
    benchmark can time them and audit the transcript `cli.run` returned.
    """

    # cli attribute -> span name; a missing attribute leaves its span at 0.
    WRAPPED = {"run": "engine.run_s", "summarize_run": "metrics.summarize_s",
               "_write_trace": "cli.write_trace_s",
               "_write_verdicts": "cli.write_verdicts_s"}
    OUTPUTS = ("results.csv", "verdicts.csv", "trace.ndjson")

    def __init__(self, name, configs, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.configs = configs
        self._setups = 0
        self.scenario_paths = []
        for cfg in configs:
            path = workdir / ("%s-%d.cfg" % (name, cfg.seed))
            path.write_text(
                "# scenario3_small with detection off: the paper's no-detection baseline\n"
                "node_count = %d\narea = %rx%r\nduration_s = %r\n"
                "malicious_fraction = %r\ndetection_enabled = false\nseed = %d\n"
                % (cfg.node_count, cfg.area[0], cfg.area[1], cfg.duration_s,
                   cfg.malicious_fraction, cfg.seed),
                encoding="utf-8")
            if load_scenario(str(path)) != cfg:
                raise RuntimeError("%s does not reproduce %r" % (path, cfg))
            self.scenario_paths.append(path)
        self.spans = {}
        self.transcripts = []
        self._saved = {}
        for attr, span in self.WRAPPED.items():
            fn = getattr(cli, attr, None)
            if fn is not None:
                self._saved[attr] = fn
                keep = self.transcripts if attr == "run" else None
                setattr(cli, attr, _Span(self.spans, span, fn, keep))

    def close(self):
        for attr, fn in self._saved.items():
            setattr(cli, attr, fn)
        self._saved.clear()

    def setup(self) -> tuple:
        """The topology and engine construction `cli.main` performs, for one
        config, taking the configs in turn."""
        cfg = self.configs[self._setups % len(self.configs)]
        self._setups += 1
        t0 = perf_counter()
        topo = generate_topology(cfg)
        t1 = perf_counter()
        Engine(cfg, topo, record_events=True)
        return t1 - t0, perf_counter() - t1

    def iterate(self, record_events=True) -> list:
        """One round: every scenario file once. The CLI always records."""
        return [self._run(cfg, path) for cfg, path in zip(self.configs, self.scenario_paths)]

    def _run(self, cfg, scenario_path) -> Run:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        self.spans.clear()
        self.transcripts.clear()
        failures = []
        argv = ["run", "--scenario", str(scenario_path), "--trace", "--out", str(out)]
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        t1 = perf_counter()
        if code != 0:
            failures.append("cli exit code %r" % (code,))
        missing = [f for f in self.OUTPUTS if not (out / f).is_file()]
        if missing:
            failures.append("missing outputs: %s" % ", ".join(missing))
        if len(self.transcripts) != 1:
            failures.append("cli.run returned %d transcripts, expected 1"
                            % len(self.transcripts))
        t2 = perf_counter()
        for tr in self.transcripts:
            failures.extend(_audit(tr))
        t3 = perf_counter()
        spans = dict(self.spans)
        spans.update({"cli.main_s": t1 - t0, "metrics.audit_s": t3 - t2})
        outcome, counts = {"seed": cfg.seed}, (0, 0)
        if self.transcripts:
            tr = self.transcripts[0]
            outcome = _outcome(tr, summarize_run(tr, scenario=scenario_path.stem))
            counts = _event_counts(tr)
            del tr
        self.transcripts.clear()
        trace = out / "trace.ndjson"
        spans["cli.trace_bytes"] = trace.stat().st_size if trace.is_file() else 0
        fingerprint = "" if missing else _files_digest(out / f for f in self.OUTPUTS)
        return Run(cfg.seed, t3 - t0, spans.get("engine.run_s", 0.0),
                   cfg.node_count * cfg.duration_s, spans, outcome, fingerprint,
                   failures, *counts)


def _sim_seeds(seed, count):
    """The simulation seeds of benchmark seed ``seed``: disjoint blocks of
    ``count``, so seed 1 gives 1..count and seed 2 the next block."""
    first = (seed - 1) * count + 1
    return range(first, first + count)


def make_workload(name, seed, workdir: Path):
    """Build a workload from its seed. ``workdir`` receives CLI outputs."""
    if name == "attack_free":
        configs = [ScenarioConfig(node_count=100, duration_s=200.0,
                                  malicious_fraction=0.0, seed=s)
                   for s in _sim_seeds(seed, SEEDS_PER_ROUND[name])]
        return EngineWorkload(name, configs, _no_false_positives)
    if name == "paper_sinkhole":
        configs = [preset("scenario3", duration_s=SINKHOLE_HORIZON_S, seed=s)
                   for s in _sim_seeds(seed, SEEDS_PER_ROUND[name])]
        return EngineWorkload(name, configs)
    if name == "traced_baseline":
        configs = [preset("scenario3_small", detection_enabled=False, seed=s)
                   for s in _sim_seeds(seed, SEEDS_PER_ROUND[name])]
        return CliWorkload(name, configs, workdir)
    raise KeyError(name)


WORKLOADS = ("attack_free", "paper_sinkhole", "traced_baseline")
