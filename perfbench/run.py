"""rplsim benchmark: host time of the simulator on fixed workloads.

    python3 perfbench/run.py --workload attack_free --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload. A round runs each of the workload's
simulation seeds once; a run is one simulation, from config to checked
outputs. ``--trace 0`` repeats rounds for about ``--seconds`` seconds (at
least three runs) and reports the end-to-end metrics as medians over runs.
``--trace 1`` makes an event-recording, a plain and a cProfile-traced round
and reports the per-layer metrics, per run. Metric names and units come
from BENCHMARK.json at the repository root. The last line of standard
output is the result object; the line before it is a full report with
samples, tail percentiles, simulated outcomes and a machine stamp.
``--workload all`` runs every workload in its own process and prints one
table. perfbench/README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rplsim"
GOLDEN = Path(__file__).resolve().parent / "fingerprints.json"

MIN_RUNS = 3
HARD_LIMIT_S = 120.0  # stop starting rounds after this, whatever --seconds says
# Values the workloads record around calls into rplsim, reported per run.
SPANS = ("engine.run_s", "metrics.summarize_s", "metrics.audit_s", "cli.main_s",
         "cli.write_trace_s", "cli.write_verdicts_s", "cli.trace_bytes")
# Set-up samples taken before each round (~40 ms / ~200 ms of work);
# setup_s is their median.
SETUP_REPS = {"attack_free": 20, "paper_sinkhole": 5, "traced_baseline": 20}
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def _fail(message: str) -> NoReturn:
    print("perfbench: %s" % message, file=sys.stderr)
    raise SystemExit(2)


def _load_program():
    """Import rplsim from this checkout's src/ and nowhere else."""
    if not (PACKAGE / "__init__.py").is_file():
        _fail("no rplsim sources at %s" % PACKAGE)
    sys.path.insert(0, str(PACKAGE.parent))
    import rplsim

    if Path(rplsim.__file__).resolve().parent != PACKAGE:
        _fail("imported rplsim from %s, not from this checkout" % rplsim.__file__)
    import workloads

    return workloads


def _load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _fail("cannot read BENCHMARK.json: %s" % exc)


def _machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "load1_start": os.getloadavg()[0],
    }


def _summary(samples) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n,
           "tail_percentile": None, "tail": None, "samples": list(samples)}
    for p in TAIL_PERCENTILES:
        if n >= 2 and n * (100 - p) / 100 >= 10:
            out["tail_percentile"] = p
            out["tail"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def _round(workload, failures, **kwargs):
    """One round of the workload; an exception fails every run in it."""
    try:
        runs = workload.iterate(**kwargs)
    except Exception:
        failures.append(traceback.format_exc(limit=3))
        return None
    for run in runs:
        failures.extend(run.failures)
    return runs


def _count_failed(rounds, failures) -> int:
    """Runs that failed a check or differ from the first run of their seed."""
    first, failed = {}, 0
    for runs in rounds:
        for run in runs:
            ref = first.setdefault(run.seed, run)
            if run.fingerprint != ref.fingerprint or run.outcome != ref.outcome:
                failures.append("seed %d: outputs differ between rounds" % run.seed)
                failed += 1
            elif run.failures:
                failed += 1
    return failed


def measure(workload, name, seconds):
    """Timed rounds with tracing off: the end-to-end metrics, per run."""
    setup, failures, rounds, attempted, failed = [], [], [], 0, 0
    start = perf_counter()
    while True:
        # Set-up samples are spread over the run, like the runs themselves.
        setup.extend(workload.setup() for _ in range(SETUP_REPS[name]))
        t0 = perf_counter()
        runs = _round(workload, failures)
        took = perf_counter() - t0
        attempted += len(workload.configs)
        if runs is None:
            failed += len(workload.configs)
        else:
            rounds.append(runs)
        elapsed = perf_counter() - start
        if elapsed + took > seconds and attempted >= MIN_RUNS or elapsed > HARD_LIMIT_S:
            break
    if not rounds:
        return None, attempted, failed, failures
    failed += _count_failed(rounds, failures)
    runs = [run for r in rounds for run in r]
    samples = {
        "wall_s": [run.wall_s for run in runs],
        "setup_s": [g + i for g, i in setup],
        "sim_node_s_per_s": [run.node_sim_s / run.engine_s for run in runs],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    return (samples, rounds[0]), attempted, failed, failures


def trace(workload, name, seconds):
    """Recording, plain and profiled rounds: the per-layer split, per run."""
    import layers

    setup = [workload.setup() for _ in range(SETUP_REPS[name])]
    failures = []
    # The untimed recording round goes first: it also warms the allocator,
    # so the plain round's spans carry no first-touch page faults.
    recorded = _round(workload, failures, record_events=True)
    plain = _round(workload, failures)
    profile = cProfile.Profile()
    profile.enable()
    profiled = _round(workload, failures)
    profile.disable()
    rounds = [r for r in (recorded, plain, profiled) if r is not None]
    attempted = 3 * len(workload.configs)
    failed = attempted - sum(map(len, rounds))
    if len(rounds) < 3:
        return None, attempted, failed, failures
    failed += _count_failed(rounds, failures)
    n = len(plain)
    values = {k: v / n for k, v in layers.split(profile, PACKAGE).items()}
    for span in SPANS:
        values[span] = sum(run.spans.get(span, 0) for run in plain) / n
    values["topology.generate_s"] = statistics.median(g for g, _ in setup)
    values["engine.init_s"] = statistics.median(i for _, i in setup)
    values["trace.overhead_s"] = sum(r.wall_s for r in profiled) / n - sum(
        r.wall_s for r in plain) / n
    values["engine.verdict_rows"] = sum(r.outcome["verdict_rows"] for r in plain) / n
    values["engine.evlog_records"] = sum(r.evlog_records for r in recorded) / n
    bcast_calls = values["engine.bcast_rx.calls"]
    values["engine.bcast.useful_ratio"] = (
        sum(r.blacklist_rx for r in recorded) / n / bcast_calls if bcast_calls else 0.0)
    return ({k: [v] for k, v in values.items()}, plain), attempted, failed, failures


def _golden(name, seed, fingerprint, outcomes, record) -> str:
    """Compare this run's outputs with the recorded ones; with ``record``,
    store them instead."""
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    entry = data.get(name, {}).get(str(seed))
    if record:
        data.setdefault(name, {})[str(seed)] = {"fingerprint": fingerprint,
                                                "outcomes": outcomes}
        data = {w: dict(sorted(e.items(), key=lambda kv: int(kv[0])))
                for w, e in sorted(data.items())}
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    if entry is None:
        return "unrecorded"
    same = entry["fingerprint"] == fingerprint and entry["outcomes"] == outcomes
    return "match" if same else "MISMATCH"


def run_one(args, spec, wl_module) -> int:
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    machine = _machine()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    workload = None
    try:
        workload = wl_module.make_workload(args.workload, args.seed, workdir)
        step = trace if args.trace else measure
        result, attempted, failed, failures = step(workload, args.workload, args.seconds)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    machine["load1_end"] = os.getloadavg()[0]
    for line in failures:
        print("perfbench: check failed: %s" % line.rstrip(), file=sys.stderr)
    if result is None:
        _fail("%s: no iteration completed" % args.workload)
    samples, first_round = result
    fingerprint = hashlib.sha256(
        "".join(run.fingerprint for run in first_round).encode()).hexdigest()
    outcomes = [run.outcome for run in first_round]
    missing = [m["name"] for m in metrics_spec if m["name"] not in samples]
    if missing:
        _fail("metrics not produced: %s" % ", ".join(missing))
    golden = _golden(args.workload, args.seed, fingerprint, outcomes, args.record)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "sim_seeds": [c.seed for c in workload.configs],
        "trace": args.trace,
        "machine": machine,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "fingerprint": fingerprint,
        "golden": golden,
        "outcomes": outcomes,
        "metrics": {m["name"]: dict(_summary(samples[m["name"]]), unit=m["unit"])
                    for m in metrics_spec},
    }
    for m in metrics_spec:
        s = report["metrics"][m["name"]]
        tail = ("p%d %.6g" % (s["tail_percentile"], s["tail"])
                if s["tail"] is not None else "no tail (<10 beyond p50)")
        print("%-16s %-30s %14.6g %-9s n=%-3d %s"
              % (args.workload, m["name"], s["median"], m["unit"], s["n"], tail))
    print("%-16s %-30s %14.6g %-9s attempted=%d failed=%d"
          % (args.workload, "error_rate", report["error_rate"], "ratio", attempted, failed))
    print("%-16s fingerprint %s (golden: %s)" % (args.workload, fingerprint, golden))
    print(json.dumps({"perfbench_report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]]["median"],
                                "unit": m["unit"]} for m in metrics_spec},
    }))
    return 0


def run_all(args, wl_module) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in wl_module.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        if proc.returncode != 0 or len(lines) < 2:
            print("%s: exit %d\n%s" % (name, proc.returncode, proc.stderr), file=sys.stderr)
            status = 1
            continue
        for line in lines[:-2]:
            print(line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's fingerprint in perfbench/fingerprints.json")
    args = parser.parse_args(argv)
    spec = _load_spec()
    wl_module = _load_program()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, wl_module)
    if args.workload not in wl_module.WORKLOADS:
        _fail("unknown workload %r (known: %s)"
              % (args.workload, ", ".join(wl_module.WORKLOADS)))
    return run_one(args, spec, wl_module)


if __name__ == "__main__":
    sys.exit(main())
