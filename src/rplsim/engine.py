"""Deterministic discrete-event core: clock, event queue, radio delivery,
CBR traffic, timers, and the per-node protocol/detector state machines.

Determinism contract: the network is static and the only randomness is
the seeded topology PRNG; all timers run on exact period grids and
simultaneous events execute in insertion order, so identical (config,
seed) pairs replay to bit-identical transcripts on any platform. Moving
nodes would need non-neighbor receptions dropped, rank poisoning with a
DIO on parent change, and a false-positive gate.

Two adversaries attack the network. A sinkhole advertises a fake
(smaller) rank to attract upward traffic and then drops or corrupts the
data packets routed through it. A flooder emits route-solicitation (RREQ)
control packets far above the benign rate. Neither forges reports or
blacklist broadcasts. Their parameters live in ``ScenarioConfig``; the
engine applies them, and checks in setup that a sinkhole's forged rank
undercuts its true one.

The queue is ``_times``, a heap of the distinct queued times, and
``_due``, which maps each of them to its bucket: the
``(handler, items)`` entries queued at that time, newest first.
``handler`` is the plain function ``Engine._on_<kind>`` (not a bound
method, so an entry left queued at the horizon holds no reference to the
engine), and ``run`` calls ``handler(engine, t, items)`` once per entry.
A push appends its item to the newest entry of its time's bucket if that
entry has the same handler, and otherwise puts a new entry in front;
only a push at a time not yet queued pushes onto the heap. ``run`` pops
a time, takes its bucket out of ``_due`` and pops the entries off its
end, oldest first, so each is freed as it runs; a push at the current
time opens a new bucket there, run after this one. So items run by time,
then in push order, as one entry per push would. (Newest first, a push
reads index 0, which CPython indexes faster than -1; every item is a
push.) A handler runs its items ``(a, b, c)`` in order, as one call per
item would, and reads once per entry only what no item can change:
``cfg``, ``nodes``, ``evlog``, the bound ``_push`` and ``_blacklist``,
whether ``t`` is before the attack start, and ``t + hop_latency_s``.
What an item can change (a node's routing, blacklist and thresholds,
``_unseen``, ``_due``) is read per item. Every message is one ``_push``
at ``t + hop_latency_s``, the same float whether summed per send or once
per entry. A radio broadcast (hello, DIO, forged DIO, blacklist flood)
is one item whose ``a`` is the sender's neighbor tuple (for a hello,
only the neighbors that run a detector; it changes nothing elsewhere;
for a flood, the neighbor bitmask), and its handler runs the receptions
back to back in neighbor order, as adjacent items, one per receiver,
would: ``hop_latency_s`` is at least the float spacing at
``duration_s``, so no reception schedules anything at its own time.

A handler reads the clock ``t`` only to schedule (``t + hop_latency_s``),
to compare it with the attack start, and to stamp a record
(``tests/test_clock_reads.py``). A duration comes from the model, never
from two clock readings: a hello window is ``hello_period_s`` long, so a
hello timer entry counts RREQs once for benign nodes and once for
flooders, whose storm covers ``min(period, max(0, t - attack_start))`` of
it; and a packet ``h`` hops out is ``h * hop_latency_s`` old.

A packet lives only in its one queued ``_on_data_rx`` item: each hop
hands it to a new item, and its fate is counted and logged where it ends.
At the horizon ``run`` ends the packets still queued, in emission order,
as ``sim_end``.

A grid timer (every node's DIOs and hellos, the sources' packets, the
sinkholes' forged DIOs) is one queue item ``(nids, k, 0)`` per tick, due
at ``k * period`` (``attack_start + k * attack_interval_s`` for forged
DIOs); its handler runs the nodes of ``nids`` in order, then pushes tick
``k + 1``. A tick pushes only there and to ``t + hop_latency_s``, so it
runs as one item per node would, unless ``hop_latency_s`` equals its
period: then every message of tick ``k`` due at tick ``k + 1`` runs first.
Setup starts only the grids with nodes, and each tick queues the next,
before the horizon or not. Only ``run`` reads the horizon: it pops no
time at or past ``duration_s``, so such a tick never runs, and it waits
in the bucket of its own time, so it does not move the entries before
the horizon.
The calibration and the first forged DIOs are queued at the attack
start, even one past the horizon. The DIO grid's next tick is always
queued, so an empty queue means the engine lost a timer: ``run`` raises
``EngineStall``.

An untraced run replays its steady state instead of simulating it.
``_writes`` moves on every write of state that a later event reads: a
blacklist entry, a table entry, a parent or rank that moves, the
calibration, an APT cell that moves. Warm-up sums and messages need no
bump, since the test below starts after the warm-up and wants an empty
queue. When the time of a DIO tick comes up, before any entry at that
time runs, ``run`` takes a mark if only grid ticks are queued and the
time is a hello period or more past the attack start (from there
``t >= attack_start`` and the storm span hold): the count, each grid's
next ``k``, the verdict rows, the emitted packets and the fates. A tick
of another grid due at the same time has not run yet, so none of its
messages is in flight at the mark. If the next DIO tick takes a mark
too, the count did not move and every grid ticked, the period between
them is quiet. Every event in it then ran under one state S that it left
unchanged, and queued nothing that outlived it, so each grid tick's
rows, packets and fates depend only on S and its grid, and every later
period repeats them, in whatever order its ties run. So ``run`` pops the
grid ticks due before a stop one DIO period plus one traffic period
before the horizon, from the bucket of the mark on; each queues its next
one by its own grid formula. A DIO or forged-DIO tick logs its grid's
rows of the quiet period at its own time plus ``hop_latency_s`` (a row
whose sender is a sinkhole is a forged DIO's: sinkholes send no periodic
DIO once attacking), a traffic tick adds its share of the period's
emitted packets and fates, and a hello tick only re-arms. Rows keep
their order: a simulated tick's rows come at its time plus the one
latency, so either way they follow the order in which the ticks pop. The
rest of the run is simulated, so the packets still out at the horizon
end as ``sim_end``. A packet of the quiet period lived under one DIO
period; each hop's time is rounded, so one sent later may live a few
ulps longer, and the traffic period covers that. A traced run, one that
collects its records or hands them to a ``trace`` callable, never
replays, so its trace is whole. It hands its records over as they pile
up: after a queued time has run, once ``TRACE_CHUNK`` or more are held,
and at its end, also when it fails with an ``RplSimError``. So a run with
a ``trace`` callable holds at most those and one time's more;
``record_events`` passes one that collects them all.

Two receptions do constant work per broadcast rather than per listener
or per suspect:

* Every listener hears every hello of a sender, so all of them hold the
  same ``[slow, fast]`` APT-RREQ average of it. The engine keeps that
  average once, on the sender, and updates it once per hello, with the
  exact ``[n, sum, sum of squares]`` of the sender's warm-up counts. A
  listener's adaptive threshold is calibrated from its neighbors' sums:
  no one is blacklisted before calibration, so it heard all of them. An
  untraced hello whose fast average is at or below the lowest threshold
  among the sender's listeners (infinite while adaptive thresholds are
  uncalibrated) changes nothing at any of them, so none is visited.
* Flood ``j`` names the root's first ``j`` suspects in the order they
  reached it: those of flood ``j - 1`` and ``flood_order[j - 1]``. A
  node takes flood ``j`` only after flood ``j - 1``. A suspect named by
  flood ``j - 1`` is named by flood ``j``, so the forwarders of flood ``j``
  are among those of flood ``j - 1``; flood ``j`` leaves the root no
  earlier than flood ``j - 1``; and a node that forwards both pushes flood
  ``j - 1``'s item first. So a receiver not named by flood ``j`` already
  blacklists the first ``j - 1`` suspects and applies only the new one.
  The queue item carries the flood number, not its suspects, and the
  sender's neighbor mask. Its handler takes the set bits of that mask
  that are in ``_unseen[j]`` (the nodes that have not taken flood ``j``),
  checks once that none is in ``_unseen[j - 1]`` (``EngineStall`` if one
  is), clears them, and visits them in ascending id, which is neighbor
  order under ``Topology``'s sorted rows. No reception changes another's
  bit, so these are the receivers a check per neighbor would take. The
  masks are built at the first flood, not at setup.

A node's table never holds a neighbor it blacklists: tables are built
while blacklists are empty, ``_on_dio_rx`` writes one only past its
blacklist check, and ``_blacklist`` drops the suspect from it. So
``select_parent`` takes the least ``(rank, not incumbent, id)`` table
entry whose parent chain does not loop. A verdict fires only for a sender
not yet blacklisted, and blacklists it, so no node reports a suspect twice.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Optional

from .detector import (
    BENIGN,
    DV_RANK,
    MALICIOUS_FLOOD,
    MALICIOUS_RANK,
    adaptive_threshold,
)
from .errors import ConnectivityFailure, EngineStall, InvalidConfig, RplSimError
from .rpl import select_parent
from .scenario import ScenarioConfig
from .topology import Topology, generate_topology, hop_counts

# Packet fates: delivered, or one of the drop reasons.
DELIVERED = "delivered"
DROP_NO_PARENT = "no_parent"
DROP_SINKHOLE = "sinkhole"
DROP_TTL = "ttl"
DROP_TIMEOUT = "timeout"
DROP_ALTERED = "altered"
DROP_SIM_END = "sim_end"

INF = float("inf")

# The records a run with a trace callable holds before it hands them over.
TRACE_CHUNK = 4096

# Field names for each transcript event record, for NDJSON dumps and audits.
EVENT_FIELDS = {
    "dio_tx": ("t", "node", "advertised_rank"),
    "attack_dio": ("t", "node", "advertised_rank"),
    "dio_rx": ("t", "receiver", "sender", "advertised_rank", "receiver_rank",
               "receiver_dv", "from_parent", "filtered"),
    "hello_tx": ("t", "node", "rreq_count"),
    "hello_rx": ("t", "receiver", "sender", "rreq_count", "apt_low", "apt_high"),
    "traffic_emit": ("t", "src", "packet"),
    "data_hop": ("t", "holder", "next_hop", "packet"),
    "packet_fate": ("t", "packet", "outcome", "hops"),
    "report_tx": ("t", "reporter", "suspect"),
    "report_hop": ("t", "holder", "suspect", "reporter"),
    "report_drop": ("t", "holder", "suspect", "reason"),
    "report_root": ("t", "suspect", "reporter"),
    "blacklist_tx": ("t", "seq", "suspects"),
    "blacklist_rx": ("t", "receiver", "seq", "changed"),
    "threshold": ("t", "node", "value"),
    "parent_change": ("t", "node", "old_parent", "new_parent", "new_rank"),
}


# What the quiet test compares at a DIO tick: the write count, each grid
# handler's next tick k, the verdict rows, the emitted packets and the fates.
_Mark = namedtuple("_Mark", "writes ticks rows emitted fates")


@dataclass(slots=True)
class _Packet:
    """A packet on its way, held only as the ``b`` of a queued data item."""

    packet_id: int
    hops: int = 0
    corrupted: bool = False


@dataclass
class RunTranscript:
    """Everything a run produced; all metrics are recomputable from it."""

    cfg: ScenarioConfig
    topology: Topology
    end_time_s: float
    emitted: int = 0
    delivered: int = 0
    drops: dict = field(default_factory=dict)  # reason -> count
    verdicts: list = field(default_factory=list)  # (t, receiver, sender, kind, dv, di, apt, thr)
    root_blacklist: frozenset = frozenset()
    events: Optional[list] = None  # every record, with record_events


class _Node:
    """One node's state. Routing: ``rank``, ``parent`` (None at the root and
    at orphans), ``blacklist`` and ``table`` (neighbor -> last advertised
    rank). The gap to the parent, dv_rank, is ``DV_RANK`` under hop-count
    ranks and is not stored; the trace's ``receiver_dv`` is None without a
    parent. ``detector`` marks the nodes that run the detector."""

    __slots__ = (
        "id", "is_root", "rank", "parent", "blacklist", "table", "threshold",
        "detector", "sinkhole", "flooder", "neighbors", "hello_listeners",
        "pending_reports", "apt", "warmup", "min_threshold",
    )

    def __init__(self, nid, is_root):
        self.id = nid
        self.is_root = is_root
        self.rank = 0
        self.parent = None
        self.blacklist = set()
        self.table = {}
        self.threshold = None  # flood threshold
        self.detector = False
        self.sinkhole = False
        self.flooder = False
        self.neighbors = ()
        self.hello_listeners = ()
        self.pending_reports = []
        # The [slow, fast] average of this node's hellos, shared by every
        # listener, the [n, sum, sum of squares] of its warm-up hello
        # counts, and the lowest flood threshold among its listeners.
        self.apt = None
        self.warmup = [0, 0, 0]
        self.min_threshold = INF


class Engine:
    """One simulation run over owned state; never shared between runs.
    ``trace``, if given, is called with the run's records in order, a list
    at a time, and must not keep the list: the engine reuses it. It takes
    the place of ``record_events``, which collects the records itself."""

    def __init__(self, cfg: ScenarioConfig, topology: Optional[Topology] = None,
                 record_events: bool = False, trace: Optional[Callable] = None):
        if record_events and trace is not None:
            raise ValueError("record_events collects the records itself; pass no trace")
        self.cfg = cfg
        self.topology = topology if topology is not None else generate_topology(cfg)
        if self.topology.node_count != cfg.node_count:
            raise InvalidConfig(
                "topology has %d nodes, config says %d"
                % (self.topology.node_count, cfg.node_count)
            )
        self.attack_start = cfg.resolved_attack_start()
        self._times = []  # heap of the distinct queued times
        self._due = {}  # t -> the (handler, items) entries queued at t, newest first
        self._writes = 0  # bumped by every write of state that a later event reads
        self._replayed = 0  # grid ticks replayed, not simulated
        # The records not yet handed to trace; record_events collects them all.
        self.events = [] if record_events else None
        self.trace = self.events.extend if record_events else trace
        self.evlog = None if self.trace is None else []

        self.emitted = 0
        self.fates = {}  # outcome -> packets that ended so
        self.verdicts = []

        self.flood_order = []  # root suspects, one per flood, in flood order
        self.named_at = {}  # root suspect -> the first flood (bseq) naming it
        self._masks = None  # node id -> neighbor bitmask, built at the first flood
        self._unseen = [0]  # flood j -> bitmask of the nodes that have not taken it

        self._setup_nodes()

    # ------------------------------------------------------------------
    # setup

    def _setup_nodes(self):
        cfg = self.cfg
        topo = self.topology
        root = topo.root_id
        # Clean deployment: every rank is the hop count before any attacker
        # lies. generate_topology resamples until all are reachable, so only
        # a given topology can fail here.
        ranks = hop_counts(topo.adjacency, root)
        if min(ranks) < 0:
            raise ConnectivityFailure("nodes unreachable from root: %s"
                                      % [i for i, r in enumerate(ranks) if r < 0])
        detection = cfg.detection_enabled
        fixed = None if isinstance(cfg.apt_threshold, str) else float(cfg.apt_threshold)
        sinkhole = cfg.attack_type == "sinkhole"

        self.nodes = [_Node(i, i == root) for i in range(topo.node_count)]
        for node in self.nodes:
            node.neighbors = topo.adjacency[node.id]
            node.table = {nb: ranks[nb] for nb in node.neighbors}
            node.rank = ranks[node.id]
            # Attackers keep routing but never run the detector: the
            # adversary model excludes framing, so they originate no
            # verdicts or reports.
            if node.id in topo.attacker_set:
                # A forged rank that does not undercut the true one is no lie.
                if sinkhole and cfg.sinkhole_advertised_rank >= node.rank:
                    raise InvalidConfig("sinkhole %d advertises rank %d but its true rank is %d"
                                        % (node.id, cfg.sinkhole_advertised_rank, node.rank))
                node.sinkhole = sinkhole
                node.flooder = not sinkhole
            elif detection:
                node.threshold = fixed
                node.detector = True
        # A hello changes nothing at a node without a detector.
        is_detector = frozenset(n.id for n in self.nodes if n.detector).__contains__
        for node in self.nodes:
            node.hello_listeners = tuple(filter(is_detector, node.neighbors))
        if fixed is not None:
            self._freeze_min_thresholds()  # adaptive ones stay None until calibration

        # Initial DODAG: clean deployment, correct routing tables everywhere.
        for node in self.nodes:
            if node.is_root:
                continue
            select_parent(node, self.nodes)

        self._schedule_initial()

    def _schedule_initial(self):
        cfg = self.cfg
        # "benign": every non-attacker non-root node sources CBR traffic;
        # "all": literally every node (the root's own packets are recorded
        # as delivered at emission, zero hops).
        sources_all = cfg.traffic.sources == "all"
        attackers = self.topology.attacker_set
        sources = tuple(node.id for node in self.nodes
                        if sources_all or not (node.is_root or node.id in attackers))
        every = tuple(range(len(self.nodes)))
        sinkholes = tuple(node.id for node in self.nodes if node.sinkhole)
        # Grid handler -> (origin, period): tick k is due at origin + k * period.
        self._grids = {Engine._on_dio_timer: (0.0, cfg.dio_period_s),
                       Engine._on_hello_timer: (0.0, cfg.hello_period_s),
                       Engine._on_traffic: (0.0, cfg.traffic.period_s),
                       Engine._on_attack_dio: (self.attack_start, cfg.attack_interval_s)}
        # One item per grid with nodes, at its first tick k.
        for handler, k, nids in ((Engine._on_dio_timer, 1, every),
                                 (Engine._on_hello_timer, 1, every),
                                 (Engine._on_traffic, 0, sources),
                                 (Engine._on_attack_dio, 0, sinkholes)):
            if nids:
                self._tick(handler, nids, k)
        if cfg.detection_enabled:
            self._push(self.attack_start, Engine._on_calibrate, 0, 0, 0)

    # ------------------------------------------------------------------
    # primitives

    def _push(self, t, handler, a, b, c):
        bucket = self._due.get(t)
        if bucket is None:
            self._due[t] = [(handler, [(a, b, c)])]
            heappush(self._times, t)
        elif bucket[0][0] is handler:
            bucket[0][1].append((a, b, c))
        else:
            bucket.insert(0, (handler, [(a, b, c)]))

    def _tick(self, handler, nids, k):
        """Queue tick ``k`` of the grid that ``handler`` runs over ``nids``."""
        origin, period = self._grids[handler]
        self._push(origin + k * period, handler, nids, k, 0)

    def _reselect(self, node, t):
        old_parent, old_rank = node.parent, node.rank
        select_parent(node, self.nodes)
        if node.parent == old_parent and node.rank == old_rank:
            return
        # An orphan keeps its rank, so a node that moved has a parent.
        self._writes += 1
        if old_parent is None and node.pending_reports:
            self._flush_pending(node, t)
        if self.evlog is not None:
            self.evlog.append(("parent_change", t, node.id, old_parent,
                               node.parent, node.rank))

    def _freeze_min_thresholds(self):
        """Store on each hello sender the lowest threshold among its
        listeners; a None threshold flags no one and is left out."""
        nodes = self.nodes
        for node in nodes:
            heard = [nodes[r].threshold for r in node.hello_listeners]
            node.min_threshold = min([x for x in heard if x is not None], default=INF)

    def _blacklist(self, t, node, suspect):
        """Blacklist ``suspect`` at ``node``, dropping it from its table, and
        re-select the parent if the suspect was the parent."""
        self._writes += 1
        node.blacklist.add(suspect)
        node.table.pop(suspect, None)
        if suspect == node.parent:
            self._reselect(node, t)

    # ------------------------------------------------------------------
    # detection plumbing

    def _flag(self, t, node, suspect, verdict):
        """Act on a malicious verdict of ``node`` against ``suspect``: log
        the ``verdict`` row, blacklist the suspect and report it. The root
        ingests it at once; any other node files it and sends it up if it
        has a parent, or holds it until it gets one."""
        self.verdicts.append(verdict)
        self._blacklist(t, node, suspect)
        if node.is_root:
            self._root_ingest(t, suspect, node.id)
            return
        node.pending_reports.append(suspect)
        if node.parent is not None:
            self._flush_pending(node, t)

    def _flush_pending(self, node, t):
        parent, rx_t = node.parent, t + self.cfg.hop_latency_s
        for suspect in node.pending_reports:
            if self.evlog is not None:
                self.evlog.append(("report_tx", t, node.id, suspect))
            self._push(rx_t, Engine._on_report_rx, parent, suspect, node.id)
        node.pending_reports.clear()

    def _root_ingest(self, t, suspect, reporter):
        if self.evlog is not None:
            self.evlog.append(("report_root", t, suspect, reporter))
        if suspect in self.named_at:
            return
        self.flood_order.append(suspect)
        bseq = self.named_at[suspect] = len(self.flood_order)
        root = self.nodes[self.topology.root_id]
        self._blacklist(t, root, suspect)
        if self._masks is None:
            self._masks = [sum(1 << nb for nb in node.neighbors) for node in self.nodes]
        self._unseen.append(((1 << len(self.nodes)) - 1) ^ (1 << root.id))  # not the root
        if self.evlog is not None:
            self.evlog.append(("blacklist_tx", t, bseq, tuple(sorted(self.named_at))))
        self._push(t + self.cfg.hop_latency_s, Engine._on_bcast_rx, self._masks[root.id], bseq, 0)

    # ------------------------------------------------------------------
    # handlers

    def _on_dio_rx(self, t, items):
        nodes, evlog, add_verdict = self.nodes, self.evlog, self.verdicts.append
        for receivers, sender, adv in items:
            for receiver in receivers:
                node = nodes[receiver]
                filtered = sender in node.blacklist
                if evlog is not None:
                    evlog.append(("dio_rx", t, receiver, sender, adv, node.rank,
                                  None if node.parent is None else DV_RANK,
                                  sender == node.parent, filtered))
                if filtered:
                    continue
                if node.detector:
                    di = abs(adv - node.rank)
                    if di > DV_RANK:
                        self._flag(t, node, sender, (t, receiver, sender, MALICIOUS_RANK,
                                                     DV_RANK, di, None, None))
                        continue  # irrational DIO discarded
                    add_verdict((t, receiver, sender, BENIGN, DV_RANK, di, None, None))
                if node.is_root:
                    continue
                if node.table.get(sender) != adv:
                    self._writes += 1
                    node.table[sender] = adv
                elif node.parent is not None:
                    continue
                self._reselect(node, t)

    def _on_hello_rx(self, t, items):
        nodes, evlog = self.nodes, self.evlog
        alpha_low, alpha_high = self.cfg.alpha_low, self.cfg.alpha_high
        # A hello at the attack start pops after _on_calibrate, queued at
        # setup, so it is no warm-up sample.
        warmup = t < self.attack_start
        for receivers, sender, count in items:
            node = nodes[sender]
            # One cell per sender holds the average every receiver hears (one
            # that blacklisted the sender never reads it again). On both tracks
            # the first sample sets it, then s + a*(x - s), which keeps
            # constant input an exact fixed point.
            cell = node.apt
            if cell is None:
                s_low = s_high = float(count)
            else:
                s_low = cell[0] + alpha_low * (count - cell[0])
                s_high = cell[1] + alpha_high * (count - cell[1])
            if cell != [s_low, s_high]:  # a cell that moves is a write
                self._writes += 1
                node.apt = [s_low, s_high]
            if warmup:
                m = node.warmup
                m[0], m[1], m[2] = m[0] + 1, m[1] + count, m[2] + count * count
            if evlog is None and s_high <= node.min_threshold:
                continue  # no receiver can cross its threshold, and none logs
            for receiver in receivers:
                listener = nodes[receiver]
                if sender in listener.blacklist:
                    continue
                if evlog is not None:
                    evlog.append(("hello_rx", t, receiver, sender, count, s_low, s_high))
                threshold = listener.threshold
                if threshold is not None and s_high > threshold:
                    self._flag(t, listener, sender, (t, receiver, sender, MALICIOUS_FLOOD,
                                                     None, None, s_high, threshold))

    def _on_data_rx(self, t, items):
        cfg, nodes, forward = self.cfg, self.nodes, self._forward
        rx_t = t + cfg.hop_latency_s
        latency, timeout, ttl = cfg.hop_latency_s, cfg.packet_timeout_s, cfg.packet_ttl
        attacking = t >= self.attack_start
        for receiver, pkt, _ in items:
            if pkt.hops * latency > timeout:
                self._finalize(pkt, t, DROP_TIMEOUT)
                continue
            node = nodes[receiver]
            if node.is_root:
                self._finalize(pkt, t, DROP_ALTERED if pkt.corrupted else DELIVERED)
                continue
            if node.sinkhole and attacking:
                # Drop mode swallows the packet; alter mode corrupts it and
                # lets it travel on. Either way it never counts as delivered.
                if cfg.sinkhole_data_plane == "alter":
                    pkt.corrupted = True
                else:
                    self._finalize(pkt, t, DROP_SINKHOLE)
                    continue
            if pkt.hops >= ttl:
                self._finalize(pkt, t, DROP_TTL)
                continue
            forward(node, pkt, t, rx_t)

    def _forward(self, node, pkt, t, rx_t):
        """Send a packet one hop up, from ``node`` to its parent, by ``rx_t``."""
        parent = node.parent
        if parent is None:
            self._finalize(pkt, t, DROP_NO_PARENT)
            return
        pkt.hops += 1
        if self.evlog is not None:
            self.evlog.append(("data_hop", t, node.id, parent, pkt.packet_id))
        self._push(rx_t, Engine._on_data_rx, parent, pkt, 0)

    def _finalize(self, pkt, t, outcome):
        self.fates[outcome] = self.fates.get(outcome, 0) + 1
        if self.evlog is not None:
            self.evlog.append(("packet_fate", t, pkt.packet_id, outcome, pkt.hops))

    def _on_hello_timer(self, t, items):
        cfg, nodes, evlog, push = self.cfg, self.nodes, self.evlog, self._push
        rx_t = t + cfg.hop_latency_s
        period = cfg.hello_period_s
        # Every window is one period long, so every benign node sends one
        # count and every flooder another: its benign RREQs plus its storm
        # over the part of the window past the attack start, each rounded
        # on its own.
        benign = round(cfg.benign_rreq_rate_per_s * period)
        flooder = benign + round(cfg.flooder_rreq_rate_per_s
                                 * min(period, max(0.0, t - self.attack_start)))
        [(nids, k, _)] = items
        for nid in nids:
            node = nodes[nid]
            count = flooder if node.flooder else (0 if node.is_root else benign)
            if evlog is not None:
                evlog.append(("hello_tx", t, nid, count))
            if node.hello_listeners:
                push(rx_t, Engine._on_hello_rx, node.hello_listeners, nid, count)
        self._tick(Engine._on_hello_timer, nids, k + 1)

    def _on_dio_timer(self, t, items):
        cfg, nodes, evlog, push = self.cfg, self.nodes, self.evlog, self._push
        rx_t = t + cfg.hop_latency_s
        attacking = t >= self.attack_start
        [(nids, k, _)] = items
        for nid in nids:
            node = nodes[nid]
            if node.sinkhole and attacking:
                continue  # attack-grid emissions replace the periodic DIO
            if node.parent is None and not node.is_root:
                continue  # orphans have nothing to offer
            adv = node.rank  # 0 at the root
            if evlog is not None:
                evlog.append(("dio_tx", t, nid, adv))
            push(rx_t, Engine._on_dio_rx, node.neighbors, nid, adv)
        self._tick(Engine._on_dio_timer, nids, k + 1)

    def _on_attack_dio(self, t, items):
        cfg, nodes, evlog, push = self.cfg, self.nodes, self.evlog, self._push
        adv, rx_t = cfg.sinkhole_advertised_rank, t + cfg.hop_latency_s
        [(nids, k, _)] = items
        for nid in nids:
            if evlog is not None:
                evlog.append(("attack_dio", t, nid, adv))
            push(rx_t, Engine._on_dio_rx, nodes[nid].neighbors, nid, adv)
        self._tick(Engine._on_attack_dio, nids, k + 1)

    def _on_traffic(self, t, items):
        nodes, evlog = self.nodes, self.evlog
        rx_t = t + self.cfg.hop_latency_s
        [(nids, k, _)] = items
        for nid in nids:
            node = nodes[nid]
            pkt = _Packet(self.emitted)
            self.emitted += 1
            if evlog is not None:
                evlog.append(("traffic_emit", t, nid, pkt.packet_id))
            if node.is_root:
                self._finalize(pkt, t, DELIVERED)
            else:
                self._forward(node, pkt, t, rx_t)
        self._tick(Engine._on_traffic, nids, k + 1)

    def _on_report_rx(self, t, items):
        nodes, evlog, rx_t = self.nodes, self.evlog, t + self.cfg.hop_latency_s
        attacking = t >= self.attack_start
        for holder_id, suspect, reporter in items:
            node = nodes[holder_id]
            if node.is_root:
                self._root_ingest(t, suspect, reporter)
                continue
            if node.sinkhole and attacking:
                # Consistent adversary: a sinkhole swallows reports in transit.
                if evlog is not None:
                    evlog.append(("report_drop", t, holder_id, suspect, "sinkhole"))
                continue
            parent = node.parent
            if parent is None:
                if evlog is not None:
                    evlog.append(("report_drop", t, holder_id, suspect, "no_parent"))
                continue
            if evlog is not None:
                evlog.append(("report_hop", t, holder_id, suspect, reporter))
            self._push(rx_t, Engine._on_report_rx, parent, suspect, reporter)

    def _on_bcast_rx(self, t, items):
        """Flood ``bseq`` to the receivers in its mask that have not taken it.
        Each took flood ``bseq - 1``, so its one new suspect is the flood's."""
        nodes, evlog, push, blacklist = self.nodes, self.evlog, self._push, self._blacklist
        unseen, masks, order, named_at = self._unseen, self._masks, self.flood_order, self.named_at.get
        rx_t = t + self.cfg.hop_latency_s
        for receivers, bseq, _ in items:
            todo, suspect = receivers & unseen[bseq], order[bseq - 1]
            if todo & unseen[bseq - 1]:
                raise EngineStall("flood %d reached a node before flood %d" % (bseq, bseq - 1))
            unseen[bseq] ^= todo  # no reception changes another's mask bit
            while todo:
                bit = todo & -todo
                todo ^= bit
                receiver = bit.bit_length() - 1
                if named_at(receiver, INF) <= bseq:
                    # Suspects never forward a flood naming them, nor any later
                    # one (the root's suspect set only grows).
                    continue
                node = nodes[receiver]
                if evlog is not None:
                    evlog.append(("blacklist_rx", t, receiver, bseq,
                                  suspect not in node.blacklist))
                blacklist(t, node, suspect)
                push(rx_t, Engine._on_bcast_rx, masks[receiver], bseq, 0)

    def _on_calibrate(self, t, items):
        """Freeze adaptive thresholds from the neighbors' warm-up hellos. Its
        one item is the one queued at setup."""
        self._writes += 1
        nodes = self.nodes
        for node in nodes:
            if not node.detector:
                continue
            if node.threshold is None:
                node.threshold = adaptive_threshold(
                    *[sum(nodes[nb].warmup[i] for nb in node.neighbors) for i in range(3)])
            if self.evlog is not None:
                self.evlog.append(("threshold", t, node.id, node.threshold))
        self._freeze_min_thresholds()

    # ------------------------------------------------------------------
    # steady state

    def _mark(self, t):
        """The ``_Mark`` of the DIO tick due at ``t``, before any entry at
        ``t`` runs; None unless every queued entry is a grid tick and ``t``
        is a hello period past the attack start, from where the storm span
        is a full period."""
        # The next k of each queued grid; any other queued handler forbids a mark.
        ticks = {handler: items[0][1] for bucket in self._due.values() for handler, items in bucket}
        if ticks.keys() <= self._grids.keys() and t - self.attack_start >= self.cfg.hello_period_s:
            return _Mark(self._writes, ticks, len(self.verdicts), self.emitted, dict(self.fates))
        return None

    def _replay(self, start, end, stop):
        """Run each grid tick due before ``stop`` as the quiet period between
        marks ``start`` and ``end`` ran that grid's ticks: a DIO or forged-DIO
        tick logs the rows of one of its ticks there, at its own time plus
        the hop latency; a traffic tick adds one tick's share of the emitted
        packets and of each fate; a hello tick only queues its next one."""
        ticks = {handler: end.ticks[handler] - k for handler, k in start.ticks.items()}
        nodes, verdicts = self.nodes, self.verdicts
        # Sinkholes send no periodic DIO once attacking, so a row whose
        # sender is a sinkhole is a forged DIO's.
        forged = [row[1:] for row in verdicts[start.rows:] if nodes[row[2]].sinkhole]
        rows = {Engine._on_dio_timer: [row[1:] for row in verdicts[start.rows:]
                                       if not nodes[row[2]].sinkhole],
                Engine._on_attack_dio: forged[:len(forged) // ticks.get(Engine._on_attack_dio, 1)]}
        n = ticks.get(Engine._on_traffic, 1)
        emitted = (end.emitted - start.emitted) // n
        fates = [(outcome, (count - start.fates.get(outcome, 0)) // n)
                 for outcome, count in end.fates.items()]
        times, due = self._times, self._due
        while times[0] < stop:
            t = heappop(times)
            for handler, [(nids, k, _)] in reversed(due.pop(t)):
                if handler is Engine._on_traffic:
                    self.emitted += emitted
                    for outcome, count in fates:
                        self.fates[outcome] += count
                elif handler in rows:
                    rx_t = t + self.cfg.hop_latency_s
                    verdicts.extend([(rx_t, *row) for row in rows[handler]])
                self._tick(handler, nids, k + 1)
                self._replayed += 1

    # ------------------------------------------------------------------
    # main loop

    def run(self) -> RunTranscript:
        try:
            self._simulate()
        except RplSimError:  # a run that fails hands over its records too
            if self.trace is not None:
                with suppress(Exception):  # the run's error is the one to report
                    self.trace(self.evlog)
            raise
        if self.trace is not None:
            self.trace(self.evlog)
        return RunTranscript(
            cfg=self.cfg,
            topology=self.topology,
            end_time_s=self.cfg.duration_s,
            emitted=self.emitted,
            delivered=self.fates.pop(DELIVERED, 0),
            drops=self.fates,
            verdicts=self.verdicts,
            root_blacklist=frozenset(self.named_at),
            events=self.events,
        )

    def _simulate(self):
        """Run every entry due before the horizon, handing the records to
        ``trace`` as they pile up, and end the packets still queued."""
        cfg = self.cfg
        duration = cfg.duration_s
        # An untraced run replays a quiet period's ticks up to here.
        stop = duration - cfg.dio_period_s - cfg.traffic.period_s
        dio = Engine._on_dio_timer if self.evlog is None else None
        times, due, t, mark = self._times, self._due, 0.0, None
        trace, evlog = self.trace, self.evlog
        while times and times[0] < duration:
            t = times[0]
            if dio and any(handler is dio for handler, _ in due[t]):
                last, mark = mark, self._mark(t)
                # Quiet: no write, and every grid ticked in the period.
                if last and mark and last.writes == mark.writes and all(
                        mark.ticks[grid] > k for grid, k in last.ticks.items()):
                    self._replay(last, mark, stop)
                    dio = None  # the tail, from the stop on, is simulated
                    continue
            heappop(times)
            bucket = due.pop(t)
            while bucket:
                handler, items = bucket.pop()
                handler(self, t, items)
            if trace is not None and len(evlog) >= TRACE_CHUNK:
                trace(evlog)
                evlog.clear()
        # The DIO grid's next tick is always queued, so a drained queue
        # means the engine lost its timers (internal bug).
        if not times:
            raise EngineStall("event queue empty at t=%g with horizon %g" % (t, duration))
        # The packets still on their way end at the horizon, in emission order.
        for pkt in sorted((pkt for bucket in due.values() for handler, items in bucket
                           if handler is Engine._on_data_rx for _, pkt, _ in items),
                          key=attrgetter("packet_id")):
            self._finalize(pkt, duration, DROP_SIM_END)


def run(cfg: ScenarioConfig, topology: Optional[Topology] = None,
        record_events: bool = False, trace: Optional[Callable] = None) -> RunTranscript:
    """Simulate one scenario and return its complete transcript."""
    return Engine(cfg, topology, record_events, trace).run()
