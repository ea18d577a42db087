"""Mutation ledger: which Tier-1 tests fail under each of a list of
deliberate faults.

Runs like ``golden.py``; pytest is imported only by the child processes:

    python tests/mutants.py [NAME ...]

For each mutant ``(name, file, old, new, why)`` it copies the tracked files
of the working tree into a temporary directory, replaces the one ``old``
text of ``file`` there with ``new``, and runs Tier-1 without
``tests/test_mutants.py`` in a child process, at most two at a time. Each
child has a wall-clock timeout and a 3 GB address-space limit. It writes
``tests/mutants.json``: per mutant, the sorted ids of the tests that fail,
or "timeout", "memory" or "survived". The file holds no timings, so a
rerun on the same tree writes the same bytes. With names, it runs only
those mutants and keeps the other entries.
"""

import json
import os
import signal
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LEDGER = REPO / "tests" / "mutants.json"
TIMEOUT_S = 600
MEMORY_BYTES = 3 << 30
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--tb=no", "-rfE", "--continue-on-collection-errors",
               "--ignore=tests/test_mutants.py"]

E, R, D, T, S, M, C = ("src/rplsim/%s.py" % m for m in ("engine", "rpl", "detector", "topology",
                                                         "scenario", "metrics", "cli"))
FLAG_BLACKLIST = "        self._blacklist(t, node, suspect)\n"
FLAG_REPORT = ("        if node.is_root:\n            self._root_ingest(t, suspect, node.id)\n"
               "            return\n        node.pending_reports.append(suspect)\n"
               "        if node.parent is not None:\n            self._flush_pending(node, t)\n")
RUN_BUCKET = ("            while bucket:\n                handler, items = bucket.pop()\n"
              "                handler(self, t, items)\n")

MUTANTS = [
    # The engine: detection and blacklists.
    ("rank-rule-ge", E, "if di > DV_RANK:", "if di >= DV_RANK:",
     "a DIO whose rank gap equals the parent gap is flagged"),
    ("hello-skip-lt", E, "s_high <= node.min_threshold", "s_high < node.min_threshold",
     "an untraced hello at the lowest listener threshold visits its listeners"),
    ("warmup-at-attack-start", E, "warmup = t < self.attack_start",
     "warmup = t <= self.attack_start", "a hello heard at the attack start is a warm-up sample"),
    ("storm-unclamped", E, "min(period, max(0.0, t - self.attack_start))",
     "min(period, t - self.attack_start)",
     "a flooder's hello before the attack counts a negative storm"),
    ("flooder-count-benign", E, "count = flooder if node.flooder", "count = benign if node.flooder",
     "flooders send the benign RREQ count"),
    ("threshold-from-listeners", E, "for nb in node.neighbors) for i",
     "for nb in node.hello_listeners) for i",
     "calibration leaves out the warm-up hellos of neighbors without a detector"),
    ("hello-heard-from-blacklisted", E, "                if sender in listener.blacklist:\n"
     "                    continue\n", "", "a listener judges a sender it blacklists again"),
    ("flag-reports-before-blacklist", E, FLAG_BLACKLIST + FLAG_REPORT, FLAG_REPORT + FLAG_BLACKLIST,
     "a node sends its report before it re-parents off the suspect"),
    ("flag-holds-every-report", E, "        if node.parent is not None:\n"
     "            self._flush_pending(node, t)\n", "", "a report waits until the node re-parents"),
    ("root-verdict-reported", E, FLAG_REPORT[:FLAG_REPORT.index("        node.pending")], "",
     "the root files its own verdict as a report it never sends"),
    ("blacklist-keeps-table-entry", E, "        node.table.pop(suspect, None)\n", "",
     "a node's table keeps a neighbor it blacklists"),
    ("blacklist-never-reselects", E, "if suspect == node.parent:", "if False:",
     "a node keeps the parent it blacklists"),
    # The engine: the blacklist flood.
    ("flood-mask-keeps-root", E, "((1 << len(self.nodes)) - 1) ^ (1 << root.id)",
     "(1 << len(self.nodes)) - 1", "the root takes its own flood back from its neighbors"),
    ("flood-suspect-off-by-one", E, "order[bseq - 1]", "order[bseq]",
     "a flood reception applies the next flood's suspect"),
    ("flood-stall-guard-removed", E, "if todo & unseen[bseq - 1]:", "if False:",
     "a flood that overtakes the one before it is not caught"),
    # The engine: routing and packets.
    ("data-hop-off-parent", E, "        parent = node.parent\n        if parent is None:\n"
     "            self._finalize", "        parent = node.parent and node.neighbors[-1]\n"
     "        if parent is None:\n            self._finalize",
     "a packet goes to its holder's highest neighbor, not to the parent (unless that is node 0)"),
    ("packet-lost-at-third-hop", E, "        pkt.hops += 1\n",
     "        pkt.hops += 1\n        if pkt.hops == 3:\n            return\n",
     "a packet vanishes at its third hop, neither queued nor ended"),
    ("timeout-drop-falls-through", E, "                self._finalize(pkt, t, DROP_TIMEOUT)\n"
     "                continue\n", "                self._finalize(pkt, t, DROP_TIMEOUT)\n",
     "a timed-out packet is also forwarded"),
    ("packet-age-ge", E, "if pkt.hops * latency > timeout:", "if pkt.hops * latency >= timeout:",
     "a packet exactly as old as the timeout is dropped"),
    ("sim-end-reverse-order", E, 'key=attrgetter("packet_id")',
     'key=attrgetter("packet_id"), reverse=True',
     "the packets out at the horizon end in reverse emission order"),
    ("setup-accepts-unreachable", E, "if min(ranks) < 0:", "if False:",
     "a given topology with an unreachable node is accepted"),
    ("sinkhole-rank-check-gt", E, "cfg.sinkhole_advertised_rank >= node.rank",
     "cfg.sinkhole_advertised_rank > node.rank", "a sinkhole may advertise its true rank"),
    # The engine: the queue and the timer grids.
    ("bucket-left-in-due", E, "bucket = due.pop(t)\n" + RUN_BUCKET,
     "bucket = due[t]\n" + RUN_BUCKET + "            del due[t]\n",
     "a push at the running time lands in the running bucket"),
    ("bucket-runs-newest-first", E, "items = bucket.pop()", "items = bucket.pop(0)",
     "the entries of one time run newest first"),
    ("stall-guard-removed", E, "if not times:", "if False:",
     "a run that lost its timers ends quietly"),
    ("empty-grids-queued", E, "            if nids:\n", "            if True:\n",
     "setup queues a grid with no nodes"),
    ("hello-grid-from-0", E, "_on_hello_timer, 1, every)", "_on_hello_timer, 0, every)",
     "the first hello goes out at 0 s"),
    ("traffic-grid-from-1", E, "_on_traffic, 0, sources)", "_on_traffic, 1, sources)",
     "the first packet goes out one period late"),
    ("forged-grid-from-0", E, "(self.attack_start, cfg.attack_interval_s)",
     "(0.0, cfg.attack_interval_s)",
     "forged DIOs tick from 0 s, not from the attack start"),
    ("dio-rearm-per-node", E, "node.neighbors, nid, adv)\n        self._tick(",
     "node.neighbors, nid, adv)\n            self._tick(",
     "a DIO tick queues its next tick once per node"),
    # The engine: the replay of the quiet steady state.
    ("blacklist-bump-removed", E, "        self._writes += 1\n        node.blacklist.add(",
     "        node.blacklist.add(", "a blacklist entry is no write"),
    ("reselect-bump-removed", E, "        self._writes += 1\n        if old_parent is None",
     "        if old_parent is None", "a parent move is no write"),
    ("apt-bump-removed", E, "                self._writes += 1\n                node.apt =",
     "                node.apt =", "an APT cell that moves is no write"),
    ("table-bump-removed", E, "self._writes += 1\n                    node.table[",
     "node.table[", "a table entry is no write"),
    ("calibration-bump-removed", E, "        self._writes += 1\n        nodes = self.nodes\n",
     "        nodes = self.nodes\n", "the calibration is no write"),
    ("mark-before-full-storm", E, " and t - self.attack_start >= self.cfg.hello_period_s", "",
     "a period before the storm spans a full window can be quiet"),
    ("quiet-if-any-grid-ticked", E, "last.writes == mark.writes and all(",
     "last.writes == mark.writes and any(", "a period in which a grid did not tick can be quiet"),
    ("replay-stop-without-traffic-period", E, " - cfg.dio_period_s - cfg.traffic.period_s",
     " - cfg.dio_period_s", "the replay covers packets that outlive the horizon"),
    ("traced-runs-replay", E, "dio = Engine._on_dio_timer if self.evlog is None else None",
     "dio = Engine._on_dio_timer", "a traced run replays, so its trace has gaps"),
    ("sink-run-replays", E, "dio = Engine._on_dio_timer if self.evlog is None else None",
     "dio = Engine._on_dio_timer if self.events is None else None",
     "a run whose trace callable is not record_events' replays, so that trace has gaps"),
    ("trace-held-to-the-end", E, "            if trace is not None and len(evlog) >= TRACE_CHUNK:\n",
     "            if False:\n", "a run with a trace callable holds every record until it ends"),
    ("trace-dropped-on-failure", E, "                    self.trace(self.evlog)\n            raise",
     "                    pass\n            raise",
     "a run that fails never hands its last records to its trace"),
    ("trace-error-hides-run-error", E, "with suppress(Exception):", "with suppress():",
     "a trace that fails while a run fails replaces the run's error with its own"),
    ("record-events-takes-a-trace", E, "if record_events and trace is not None:", "if False:",
     "a trace passed with record_events is silently ignored"),
    ("replay-drops-forged-rows", E, "forged[:len(forged) // ticks.get(Engine._on_attack_dio, 1)]",
     "[]", "a replayed forged-DIO tick logs no rows"),
    ("replay-rows-without-latency", E, "extend([(rx_t, *row)", "extend([(t, *row)",
     "replayed rows are stamped at the tick, not at the reception"),
    # Routing, topology and detection rules.
    ("incumbent-loses-ties", R,
     "(incumbent if table.get(incumbent) == rank\n               else min(", "(min(",
     "a rank tie moves a node off its parent"),
    ("loop-guard-skipped", R, "if _loop_free(nid, me, nodes):", "if True:",
     "a node may pick a parent in its own sub-DODAG"),
    ("disconnected-topology-accepted", T, "if min(hop_counts(adjacency, root_id)) >= 0:",
     "if True:",
     "generate_topology keeps its first placement, connected or not"),
    ("threshold-two-sigma", D, "3.0 * ldexp", "2.0 * ldexp",
     "the adaptive threshold is mean + 2 sigma"),
    ("threshold-from-one-sample", D, "if n < 2:", "if n < 1:",
     "one warm-up sample sets a threshold"),
    ("rreq-count-truncated", E, "round(cfg.benign_rreq_rate_per_s * period)",
     "int(cfg.benign_rreq_rate_per_s * period)", "a benign RREQ count is truncated, not rounded"),
    ("storm-count-truncated", E, "round(cfg.flooder_rreq_rate_per_s",
     "int(cfg.flooder_rreq_rate_per_s", "a flooder's storm count is truncated, not rounded"),
    # Input checks and metrics.
    ("negative-seed-accepted", S, "if cfg.seed < 0:", "if False:", "seed -5 replays seed 5"),
    ("scalar-misses-key-error", S, "except (KeyError, ValueError):", "except ValueError:",
     "a bad boolean escapes as a KeyError"),
    ("calibration-bound-le", S, "not second_hello < start", "not second_hello <= start",
     "a flooder attack may not start just after the second warm-up hello"),
    ("negative-tn-accepted", M, "if tn < 0:", "if False:",
     "a blacklist of ids that are not nodes counts"),
    # The command line.
    ("config-error-exit-2", C, 'print("config error: %s" % exc, file=sys.stderr)\n        return 1',
     'print("config error: %s" % exc, file=sys.stderr)\n        return 2',
     "a config error exits 2, as a runtime error does"),
    ("trace-opened-before-setup", C, "    try:\n        yield sink\n",
     "    sink([])\n    try:\n        yield sink\n",
     "the trace file is opened before the engine is built, so a config error leaves it"),
    ("spill-error-hides-run-error", C, "with suppress(OSError):", "with suppress():",
     "a partial trace that cannot be written replaces the run's error with its own"),
    ("sweep-cells-seed-major", C, "for value in values\n        for seed in seeds",
     "for seed in seeds\n        for value in values",
     "a sweep runs its cells seed by seed, not value by value"),
]


def tracked_files():
    """The tracked files of the working tree, relative to the repository."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=REPO, capture_output=True, check=True)
    return [name for name in listed.stdout.decode().split("\0") if (REPO / name).is_file()]


def kill(proc):
    """Kill a child and every process it started."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_mutant(mutant, files, children):
    """The ledger entry of one mutant: the sorted ids of the tests that
    fail, or "timeout", "memory" or "survived". The child is in
    ``children`` while it runs."""
    name, file, old, new, _ = mutant
    with tempfile.TemporaryDirectory(prefix="rplsim-mutant-") as tmp:
        for rel in files:
            Path(tmp, rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(REPO / rel, Path(tmp, rel))
        path = Path(tmp, file)
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise ValueError("mutant %s: its old text occurs %d times in %s"
                             % (name, text.count(old), file))
        path.write_text(text.replace(old, new), encoding="utf-8")
        # The child caps its own address space, so the cap holds for it alone.
        child = ("import resource, sys, pytest; resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
                 "sys.exit(pytest.main(%r))" % (MEMORY_BYTES, MEMORY_BYTES, PYTEST_ARGS))
        with subprocess.Popen([sys.executable, "-c", child], cwd=tmp, text=True,
                              env=dict(os.environ, PYTHONPATH="src"), stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, start_new_session=True) as proc:
            children.add(proc)
            try:
                out = proc.communicate(timeout=TIMEOUT_S)[0]
            except subprocess.TimeoutExpired:
                kill(proc)
                proc.communicate()
                return "timeout"
            finally:
                children.discard(proc)
    summary = [line.split(" ", 1)[1].partition(" - ") for line in out.splitlines()
               if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode < 0 or any(message.startswith("MemoryError") for _, _, message in summary):
        return "memory"
    if proc.returncode not in (0, 1):
        raise RuntimeError("mutant %s: pytest exited %d\n%s" % (name, proc.returncode, out[-2000:]))
    return sorted({test for test, _, _ in summary}) or "survived"


def main(argv) -> int:
    unknown = set(argv[1:]) - {m[0] for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv[1:] or m[0] in argv[1:]]
    ledger = json.loads(LEDGER.read_text(encoding="utf-8")) if argv[1:] and LEDGER.exists() else {}
    files, children = tracked_files(), set()
    pool = ThreadPoolExecutor(min(2, os.cpu_count() or 1))
    try:
        for mutant, result in zip(chosen, pool.map(lambda m: run_mutant(m, files, children),
                                                   chosen)):
            ledger[mutant[0]] = result
            print("%-36s %s" % (mutant[0], result if isinstance(result, str)
                                else "%d failed" % len(result)), flush=True)
    finally:  # on an error or an interrupt, stop the children still running
        for proc in list(children):
            kill(proc)
        pool.shutdown(cancel_futures=True)
    ledger = {m[0]: ledger[m[0]] for m in MUTANTS if m[0] in ledger}
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    return 0 if all(isinstance(r, list) for r in ledger.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
