import contextlib
import importlib
import signal
from collections import defaultdict, namedtuple
from pathlib import Path
from unittest import mock

from hypothesis import settings

from rplsim.engine import Engine
from rplsim.scenario import ScenarioConfig
from rplsim.topology import Topology

# Property tests draw the same examples on every run (no example database,
# no random seed), so Tier-1 stays deterministic and its runtime fixed.
settings.register_profile("default", derandomize=True, database=None, deadline=None,
                          max_examples=50)


def pytest_collection_finish(session):
    """Load every module a test may load before the first draw. Hypothesis
    mixes the literals of the loaded non-test modules into the examples it
    draws, so otherwise a property test would draw other examples when run
    alone than in the full suite."""
    importlib.import_module("rplsim.cli")  # imports every rplsim module
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        importlib.import_module(path.stem)


Fate = namedtuple("Fate", "packet src emitted_at outcome t hops")


def packet_fates(tr):
    """Every packet of a traced run, in emission order, as a ``Fate``
    rebuilt from its ``traffic_emit`` and ``packet_fate`` records. A
    corrupted packet reads as outcome ``altered`` once it reaches the root."""
    ends = {e[2]: (e[3], e[1], e[4]) for e in tr.events if e[0] == "packet_fate"}
    return [Fate(e[3], e[2], e[1], *ends[e[3]]) for e in tr.events if e[0] == "traffic_emit"]


def topology_from_edges(node_count, edges, root_id=0, attackers=()):
    """Build a topology from an explicit edge list."""
    neigh = [set() for _ in range(node_count)]
    for a, b in edges:
        if a == b:
            continue
        neigh[a].add(b)
        neigh[b].add(a)
    return Topology(
        positions=tuple((float(i), 0.0) for i in range(node_count)),
        root_id=root_id,
        adjacency=tuple(tuple(sorted(s)) for s in neigh),
        attacker_set=frozenset(attackers),
    )


def chain_topology(n, attackers=(), extra_edges=()):
    """0-1-2-...-(n-1) line rooted at 0, plus optional extra edges."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.extend(extra_edges)
    return topology_from_edges(n, edges, root_id=0, attackers=attackers)


def star_topology(k):
    """Root 0 with k leaves."""
    return topology_from_edges(k + 1, [(0, i) for i in range(1, k + 1)], root_id=0)


def tiny_cfg(**overrides):
    """A fast, valid config for engine-level tests."""
    params = dict(node_count=10, area=(30.0, 30.0), tx_range=20.0,
                  malicious_fraction=0.0, duration_s=50.0, seed=7)
    params.update(overrides)
    return ScenarioConfig(**params)


def queued(eng):
    """Every queued entry of ``eng`` as ``(t, handler, items)``, in run order."""
    return [(t, handler, items) for t in sorted(eng._due)
            for handler, items in reversed(eng._due[t])]


def clear_queue(eng):
    """Drop every queued entry of ``eng``."""
    eng._times.clear()
    eng._due.clear()


@contextlib.contextmanager
def bounded(seconds=5.0, entries=10_000):
    """Fail the block with TimeoutError after ``seconds``, and with
    OverflowError once an engine queues ``entries`` distinct times,
    ``entries`` entries at one time or ``entries`` items in one entry, so
    that an engine bug that multiplies the queue fails a test at once
    instead of hanging it or exhausting the host's memory. A runaway's
    pushes may coalesce into one entry or pile up in one bucket, so each
    of the three is capped."""
    engine_push = Engine._push

    def push(eng, t, handler, a, b, c):
        engine_push(eng, t, handler, a, b, c)
        bucket = eng._due[t]
        if max(len(eng._times), len(bucket), len(bucket[0][1])) >= entries:
            raise OverflowError("the queue holds %d times, and %d entries at t=%r"
                                % (len(eng._times), len(bucket), t))

    def expire(signum, frame):
        raise TimeoutError("run took over %g s" % seconds)

    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with mock.patch.object(Engine, "_push", push):
            yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


def outcome(cfg, topo=None, traced=False, engine=Engine):
    """Run ``engine`` on ``cfg`` within ``bounded()``. Returns the run's
    outputs (trace, verdicts, packet counts, root blacklist) and the engine."""
    eng = engine(cfg, topo, record_events=traced)
    with bounded():
        tr = eng.run()
    return dict(events=tr.events, verdicts=tr.verdicts, drops=tr.drops, emitted=tr.emitted,
                delivered=tr.delivered, root_blacklist=tr.root_blacklist), eng


def handle(eng, handler, t, a=0, b=0, c=0):
    """Run ``handler``, an ``Engine._on_<kind>``, on one item ``(a, b, c)``
    at ``t``, as ``Engine.run`` runs a queue entry that holds only it."""
    handler(eng, t, [(a, b, c)])


def rank_rule_oracle(events, attacker_set):
    """Brute-force replay: walk every DIO reception in transcript order and
    apply the gap rule directly, tracking per-receiver condemnations."""
    blacklists = defaultdict(set)
    flagged = set()
    predictions = {}
    for e in events:
        if e[0] != "dio_rx":
            continue
        _, t, receiver, sender, adv, recv_rank, recv_dv, _, _ = e
        if receiver in attacker_set or sender in blacklists[receiver]:
            continue
        dv = 1 if recv_dv is None else recv_dv
        di = abs(adv - recv_rank)
        kind = "malicious_rank" if di > dv else "benign"
        predictions[(t, receiver, sender)] = kind
        if kind == "malicious_rank":
            blacklists[receiver].add(sender)
            flagged.add(sender)
    return flagged, predictions


class AptState:
    """Single-track reference of the engine's APT-RREQ moving average, one
    cell per neighbor: the first sample sets the average, then
    s + alpha * (x - s)."""

    def __init__(self, alpha):
        self.alpha = alpha
        self._cells = {}

    def update(self, neighbor, x):
        s = self._cells.get(neighbor)
        s = float(x) if s is None else s + self.alpha * (x - s)
        self._cells[neighbor] = s
        return s
