"""Deterministic discrete-event core: clock, event queue, radio delivery,
CBR traffic, timers, and the per-node protocol/detector state machines.

Determinism contract: the network is static and the only randomness is
the seeded topology PRNG; all timers run on exact period grids and
simultaneous events execute in insertion order, so identical (config,
seed) pairs replay to bit-identical transcripts on any platform. Moving
nodes would need non-neighbor receptions dropped, rank poisoning with a
DIO on parent change, and a false-positive gate.

Every queue entry is ``(t, seq, handler, items)``: ``handler`` is the
plain function ``Engine._on_<kind>`` (not a bound method, so an entry left
queued at the horizon holds no reference to the engine), and ``run`` calls
``handler(engine, t, items)`` once per entry. A push at the time and with
the handler of the last entry queued at that time appends to its items.
That is the order of one entry per push: the item would have taken the
next sequence number there, and a popped entry takes no more items, so a
push at the current time runs after everything queued. A handler runs its
items ``(a, b, c)`` in order, as one call per item would, and reads once
per entry only what no item can change: ``cfg``, ``nodes``, ``evlog``,
the bound ``_push``, whether ``t`` is before the attack start, and ``t +
hop_latency_s``. What an item can change (a node's routing, blacklist and
thresholds, ``_unseen``, ``_open``) is read per item. All items of a
hello timer entry share the window ``[t - period, t)``, so it counts RREQs
once for benign nodes and at most once for flooders. Every message is
queued one ``hop_latency_s`` after its send: by ``_send``, or at the
entry's hoisted sum, the same float. A radio broadcast (hello,
DIO, forged DIO, blacklist flood) is one item whose ``a`` is the sender's
neighbor tuple (for a hello, only the neighbors that run a detector; it
changes nothing elsewhere; for a flood, the neighbor bitmask), and its
handler runs the receptions back to back in neighbor order, as adjacent
items, one per receiver, would: ``hop_latency_s`` is at least the float
spacing at ``duration_s``, so no reception schedules anything at its own
time.

A packet lives only in its one queued ``_on_data_rx`` item: each hop
hands it to a new item, and its fate is counted and logged where it ends.
At the horizon ``run`` ends the packets still queued, in emission order,
as ``sim_end``.

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
  were reported. A node that took flood ``i`` without being named already
  blacklists the first ``i``, so on flood ``j`` it applies only suspects
  ``i+1 .. j``. The queue item carries the flood number, not its
  suspects, and the sender's neighbor mask. Its handler visits the set
  bits of that mask that are in ``_unseen[j]`` (the nodes whose
  ``bcast_seen`` is below ``j``) in ascending id, which is neighbor order
  under ``Topology``'s sorted rows; no reception changes another's
  ``bcast_seen``, so these are the receivers a check per neighbor would
  take. The masks are built at the first flood, not at setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter
from typing import Optional

from .attackers import rreq_count_in_window, validate_sinkhole
from .detector import (
    BENIGN,
    DV_RANK,
    MALICIOUS_FLOOD,
    MALICIOUS_RANK,
    adaptive_threshold,
    compute_di_rank,
)
from .errors import EngineStall, InvalidConfig
from .rpl import assign_initial_ranks, select_parent
from .scenario import ScenarioConfig
from .topology import Topology, generate_topology

# Packet fate reasons (drop buckets; "delivered" is not a drop).
DROP_NO_PARENT = "no_parent"
DROP_SINKHOLE = "sinkhole"
DROP_TTL = "ttl"
DROP_TIMEOUT = "timeout"
DROP_ALTERED = "altered"
DROP_SIM_END = "sim_end"

INF = float("inf")

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


@dataclass(slots=True)
class _Packet:
    """A packet on its way, held only as the ``b`` of a queued data item."""

    packet_id: int
    emitted_at: float
    hops: int = 0
    corrupted: bool = False


@dataclass
class RunTranscript:
    """Everything a run produced; all metrics are recomputable from it."""

    cfg: ScenarioConfig
    topology: Topology
    attack_start_s: float
    end_time_s: float
    emitted: int = 0
    delivered: int = 0
    drops: dict = field(default_factory=dict)  # reason -> count
    verdicts: list = field(default_factory=list)  # (t, receiver, sender, kind, dv, di, apt, thr)
    root_blacklist: frozenset = frozenset()
    events: Optional[list] = None  # populated when record_events


class _Node:
    """One node's state. Routing: ``rank``, ``parent`` (None at the root and
    at orphans), ``blacklist`` and ``table`` (neighbor -> last advertised
    rank). The gap to the parent, dv_rank, is ``DV_RANK`` under hop-count
    ranks and is not stored; the trace's ``receiver_dv`` is None without a
    parent."""

    __slots__ = (
        "id", "is_root", "rank", "parent", "blacklist", "table", "threshold",
        "reported", "sinkhole", "flooder", "neighbors", "hello_listeners",
        "pending_reports", "bcast_seen", "apt", "warmup", "min_threshold",
    )

    def __init__(self, nid, is_root):
        self.id = nid
        self.is_root = is_root
        self.rank = 0
        self.parent = None
        self.blacklist = set()
        self.table = {}
        self.threshold = None  # flood threshold
        self.reported = None  # suspects reported; None without a detector
        self.sinkhole = False
        self.flooder = False
        self.neighbors = ()
        self.hello_listeners = ()
        self.pending_reports = []
        self.bcast_seen = 0
        # The [slow, fast] average of this node's hellos, shared by every
        # listener, the [n, sum, sum of squares] of its warm-up hello
        # counts, and the lowest flood threshold among its listeners.
        self.apt = None
        self.warmup = [0, 0, 0]
        self.min_threshold = INF


class Engine:
    """One simulation run over owned state; never shared between runs."""

    def __init__(self, cfg: ScenarioConfig, topology: Optional[Topology] = None,
                 record_events: bool = False):
        self.cfg = cfg
        self.topology = topology if topology is not None else generate_topology(cfg)
        if self.topology.node_count != cfg.node_count:
            raise InvalidConfig(
                "topology has %d nodes, config says %d"
                % (self.topology.node_count, cfg.node_count)
            )
        self.attack_start = cfg.resolved_attack_start()
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._open = {}  # t -> the last entry queued at t, while it is queued
        self._has_timers = False
        self._max_timer_period = 0.0
        self.evlog = [] if record_events else None

        self.emitted = 0
        self.delivered = 0
        self.drops = {}
        self.verdicts = []

        self.flood_order = []  # root suspects, one per flood, in flood order
        self.named_at = {}  # root suspect -> the first flood (bseq) naming it
        self._masks = None  # node id -> neighbor bitmask, built at the first flood
        self._unseen = [0]  # flood j -> bitmask of the nodes whose bcast_seen < j

        self._setup_nodes()

    # ------------------------------------------------------------------
    # setup

    def _setup_nodes(self):
        cfg = self.cfg
        topo = self.topology
        ranks = assign_initial_ranks(topo)
        root = topo.root_id
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
                if sinkhole:
                    validate_sinkhole(node.id, cfg.sinkhole_advertised_rank, ranks[node.id])
                node.sinkhole = sinkhole
                node.flooder = not sinkhole
            elif detection:
                node.threshold = fixed
                node.reported = set()
        # A hello changes nothing at a node without a detector.
        is_detector = frozenset(n.id for n in self.nodes if n.reported is not None).__contains__
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
        duration = cfg.duration_s
        periods = []
        if cfg.dio_period_s < duration:
            periods.append(cfg.dio_period_s)
            for node in self.nodes:
                self._push(cfg.dio_period_s, Engine._on_dio_timer, node.id, 1, 0)
        if cfg.hello_period_s < duration:
            periods.append(cfg.hello_period_s)
            for node in self.nodes:
                self._push(cfg.hello_period_s, Engine._on_hello_timer, node.id, 1, 0)
        if duration > 0:
            # "benign": every non-attacker non-root node sources CBR traffic;
            # "all": literally every node (the root's own packets are
            # recorded as delivered at emission, zero hops).
            sources_all = cfg.traffic.sources == "all"
            attackers = self.topology.attacker_set
            sources = [node.id for node in self.nodes if sources_all
                       or not (node.is_root or node.id in attackers)]
            for nid in sources:
                self._push(0.0, Engine._on_traffic, nid, 0, 0)
            if sources:
                periods.append(cfg.traffic.period_s)
        if self.attack_start < duration:
            for node in self.nodes:
                if node.sinkhole:
                    self._push(self.attack_start, Engine._on_attack_dio, node.id, 0, 0)
            if cfg.detection_enabled:
                self._push(self.attack_start, Engine._on_calibrate, 0, 0, 0)
        self._has_timers = bool(periods)
        self._max_timer_period = max(periods) if periods else 0.0

    # ------------------------------------------------------------------
    # primitives

    def _push(self, t, handler, a, b, c):
        entry = self._open.get(t)
        if entry is not None and entry[2] is handler:
            entry[3].append((a, b, c))
            return
        self._seq += 1
        entry = self._open[t] = (t, self._seq, handler, [(a, b, c)])
        heappush(self._heap, entry)

    def _send(self, t, handler, a, b, c):
        """Queue a message sent at ``t``; it is received one hop later."""
        self._push(t + self.cfg.hop_latency_s, handler, a, b, c)

    def _reselect(self, node, t):
        old_parent, old_rank = node.parent, node.rank
        select_parent(node, self.nodes)
        if node.parent is not None and old_parent is None and node.pending_reports:
            self._flush_pending(node, t)
        if self.evlog is not None and (node.parent != old_parent or node.rank != old_rank):
            self.evlog.append(("parent_change", t, node.id, old_parent,
                               node.parent, node.rank))

    def _freeze_min_thresholds(self):
        """Store on each hello sender the lowest threshold among its
        listeners; a None threshold flags no one and is left out."""
        nodes = self.nodes
        for node in nodes:
            heard = [nodes[r].threshold for r in node.hello_listeners]
            node.min_threshold = min([x for x in heard if x is not None], default=INF)

    def _apply_blacklist(self, t, node, suspects):
        """Blacklist ``suspects`` at ``node``, dropping them from its table,
        and re-select its parent if the parent is one of them."""
        node.blacklist.update(suspects)
        for s in suspects:
            node.table.pop(s, None)
        if node.parent in suspects:
            self._reselect(node, t)

    # ------------------------------------------------------------------
    # detection plumbing

    def _queue_report(self, t, reporter_node, suspect):
        if suspect in reporter_node.reported:
            return
        reporter_node.reported.add(suspect)
        if reporter_node.is_root:
            self._root_ingest(t, suspect, reporter_node.id)
            return
        parent = reporter_node.parent
        if parent is None:
            reporter_node.pending_reports.append(suspect)
            return
        if self.evlog is not None:
            self.evlog.append(("report_tx", t, reporter_node.id, suspect))
        self._send(t, Engine._on_report_rx, parent, suspect, reporter_node.id)

    def _flush_pending(self, node, t):
        parent = node.parent
        for suspect in node.pending_reports:
            if self.evlog is not None:
                self.evlog.append(("report_tx", t, node.id, suspect))
            self._send(t, Engine._on_report_rx, parent, suspect, node.id)
        node.pending_reports.clear()

    def _root_ingest(self, t, suspect, reporter):
        if self.evlog is not None:
            self.evlog.append(("report_root", t, suspect, reporter))
        if suspect in self.named_at:
            return
        self.flood_order.append(suspect)
        bseq = self.named_at[suspect] = len(self.flood_order)
        root = self.nodes[self.topology.root_id]
        self._apply_blacklist(t, root, (suspect,))
        root.bcast_seen = bseq  # never re-forward its own flood
        if self._masks is None:
            self._masks = [sum(1 << nb for nb in node.neighbors) for node in self.nodes]
        self._unseen.append(((1 << len(self.nodes)) - 1) ^ (1 << root.id))
        if self.evlog is not None:
            self.evlog.append(("blacklist_tx", t, bseq, tuple(sorted(self.named_at))))
        self._send(t, Engine._on_bcast_rx, self._masks[root.id], bseq, 0)

    # ------------------------------------------------------------------
    # handlers

    def _on_dio_rx(self, t, items):
        nodes, evlog, verdicts = self.nodes, self.evlog, self.verdicts
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
                if node.reported is not None:
                    di = compute_di_rank(node.rank, adv)
                    if di > DV_RANK:
                        verdicts.append((t, receiver, sender, MALICIOUS_RANK,
                                         DV_RANK, di, None, None))
                        self._apply_blacklist(t, node, (sender,))
                        self._queue_report(t, node, sender)
                        continue  # irrational DIO discarded
                    verdicts.append((t, receiver, sender, BENIGN, DV_RANK, di, None, None))
                if node.is_root or (node.table.get(sender) == adv and node.parent is not None):
                    continue
                node.table[sender] = adv
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
                node.apt = [s_low, s_high]
            else:
                s_low = cell[0] = cell[0] + alpha_low * (count - cell[0])
                s_high = cell[1] = cell[1] + alpha_high * (count - cell[1])
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
                    self.verdicts.append((t, receiver, sender, MALICIOUS_FLOOD,
                                          None, None, s_high, threshold))
                    self._apply_blacklist(t, listener, (sender,))
                    self._queue_report(t, listener, sender)

    def _on_data_rx(self, t, items):
        cfg, nodes, forward = self.cfg, self.nodes, self._forward
        rx_t = t + cfg.hop_latency_s
        timeout, ttl = cfg.packet_timeout_s, cfg.packet_ttl
        attacking = t >= self.attack_start
        for receiver, pkt, _ in items:
            if t > pkt.emitted_at + timeout:
                self._finalize(pkt, t, DROP_TIMEOUT)
                continue
            node = nodes[receiver]
            if node.is_root:
                self._deliver(pkt, t)
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

    def _deliver(self, pkt, t):
        """A packet at the root: delivered, unless a sinkhole altered it."""
        if pkt.corrupted:
            self._finalize(pkt, t, DROP_ALTERED)
            return
        self.delivered += 1
        if self.evlog is not None:
            self.evlog.append(("packet_fate", t, pkt.packet_id, "delivered", pkt.hops))

    def _finalize(self, pkt, t, reason):
        self.drops[reason] = self.drops.get(reason, 0) + 1
        if self.evlog is not None:
            self.evlog.append(("packet_fate", t, pkt.packet_id, reason, pkt.hops))

    def _on_hello_timer(self, t, items):
        cfg, nodes, evlog, push = self.cfg, self.nodes, self.evlog, self._push
        rx_t = t + cfg.hop_latency_s
        period, duration = cfg.hello_period_s, cfg.duration_s
        # All items count over the window [t - period, t), so every benign
        # node sends one count and every flooder another.
        benign = rreq_count_in_window(t - period, t, cfg.benign_rreq_rate_per_s)
        flooder = None
        for nid, k, _ in items:
            node = nodes[nid]
            count = 0 if node.is_root else benign
            if node.flooder:
                if flooder is None:
                    flooder = rreq_count_in_window(t - period, t, cfg.benign_rreq_rate_per_s,
                                                   cfg.flooder_rreq_rate_per_s,
                                                   self.attack_start)
                count = flooder
            if evlog is not None:
                evlog.append(("hello_tx", t, nid, count))
            if node.hello_listeners:
                push(rx_t, Engine._on_hello_rx, node.hello_listeners, nid, count)
            next_t = (k + 1) * period
            if next_t < duration:
                push(next_t, Engine._on_hello_timer, nid, k + 1, 0)

    def _on_dio_timer(self, t, items):
        cfg, nodes, evlog, push = self.cfg, self.nodes, self.evlog, self._push
        rx_t = t + cfg.hop_latency_s
        period, duration = cfg.dio_period_s, cfg.duration_s
        attacking = t >= self.attack_start
        for nid, k, _ in items:
            node = nodes[nid]
            next_t = (k + 1) * period
            if next_t < duration:
                push(next_t, Engine._on_dio_timer, nid, k + 1, 0)
            if node.sinkhole and attacking:
                continue  # attack-grid emissions replace the periodic DIO
            if node.parent is None and not node.is_root:
                continue  # orphans have nothing to offer
            adv = node.rank  # 0 at the root
            if evlog is not None:
                evlog.append(("dio_tx", t, nid, adv))
            push(rx_t, Engine._on_dio_rx, node.neighbors, nid, adv)

    def _on_attack_dio(self, t, items):
        cfg = self.cfg
        adv = cfg.sinkhole_advertised_rank
        for nid, k, _ in items:
            if self.evlog is not None:
                self.evlog.append(("attack_dio", t, nid, adv))
            self._send(t, Engine._on_dio_rx, self.nodes[nid].neighbors, nid, adv)
            next_t = self.attack_start + (k + 1) * cfg.attack_interval_s
            if next_t < cfg.duration_s:
                self._push(next_t, Engine._on_attack_dio, nid, k + 1, 0)

    def _on_traffic(self, t, items):
        cfg, nodes, evlog, push = self.cfg, self.nodes, self.evlog, self._push
        rx_t = t + cfg.hop_latency_s
        period, duration = cfg.traffic.period_s, cfg.duration_s
        for nid, k, _ in items:
            node = nodes[nid]
            pkt = _Packet(self.emitted, t)
            self.emitted += 1
            if evlog is not None:
                evlog.append(("traffic_emit", t, nid, pkt.packet_id))
            if node.is_root:
                self._deliver(pkt, t)
            else:
                self._forward(node, pkt, t, rx_t)
            next_t = (k + 1) * period
            if next_t < duration:
                push(next_t, Engine._on_traffic, nid, k + 1, 0)

    def _on_report_rx(self, t, items):
        nodes, evlog = self.nodes, self.evlog
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
            self._send(t, Engine._on_report_rx, parent, suspect, reporter)

    def _on_bcast_rx(self, t, items):
        """Flood ``bseq`` to the receivers in its mask that have not taken it."""
        nodes, evlog = self.nodes, self.evlog
        unseen = self._unseen
        for receivers, bseq, _ in items:
            todo = receivers & unseen[bseq]
            while todo:
                bit = todo & -todo
                todo ^= bit
                receiver = bit.bit_length() - 1
                node = nodes[receiver]
                seen = node.bcast_seen
                node.bcast_seen = bseq
                for j in range(seen + 1, bseq + 1):
                    unseen[j] ^= bit
                if self.named_at.get(receiver, INF) <= bseq:
                    # Suspects never forward a flood naming them, nor any later
                    # one (the root's suspect set only grows).
                    continue
                # Not named now, so not named by flood ``seen`` either, whose
                # suspects this node already blacklists.
                new = self.flood_order[seen:bseq]
                if evlog is not None:
                    changed = not node.blacklist.issuperset(new)
                    evlog.append(("blacklist_rx", t, receiver, bseq, changed))
                self._apply_blacklist(t, node, new)
                self._send(t, Engine._on_bcast_rx, self._masks[receiver], bseq, 0)

    def _on_calibrate(self, t, items):
        """Freeze adaptive thresholds from the neighbors' warm-up hellos."""
        nodes = self.nodes
        for _ in items:
            for node in nodes:
                if node.reported is None:
                    continue
                if node.threshold is None:
                    node.threshold = adaptive_threshold(
                        *[sum(nodes[nb].warmup[i] for nb in node.neighbors) for i in range(3)])
                if self.evlog is not None:
                    self.evlog.append(("threshold", t, node.id, node.threshold))
            self._freeze_min_thresholds()

    # ------------------------------------------------------------------
    # main loop

    def run(self) -> RunTranscript:
        duration = self.cfg.duration_s
        heap = self._heap
        open_at = self._open
        while heap and heap[0][0] < duration:
            entry = heappop(heap)
            t, _, handler, items = entry
            if open_at.get(t) is entry:
                del open_at[t]
            self.now = t
            handler(self, t, items)
        # With periodic timers, consecutive events are never further apart
        # than the largest period; a queue that drains earlier than that
        # before the horizon means the engine lost its timers (internal bug).
        if not heap and self._has_timers and duration - self.now > self._max_timer_period:
            raise EngineStall("event queue empty at t=%g with horizon %g" % (self.now, duration))
        # The packets still on their way end at the horizon, in emission order.
        for pkt in sorted((pkt for _, _, handler, items in heap if handler is Engine._on_data_rx
                           for _, pkt, _ in items), key=attrgetter("packet_id")):
            self._finalize(pkt, duration, DROP_SIM_END)
        return RunTranscript(
            cfg=self.cfg,
            topology=self.topology,
            attack_start_s=self.attack_start,
            end_time_s=duration,
            emitted=self.emitted,
            delivered=self.delivered,
            drops=self.drops,
            verdicts=self.verdicts,
            root_blacklist=frozenset(self.named_at),
            events=self.evlog,
        )


def run(cfg: ScenarioConfig, topology: Optional[Topology] = None,
        record_events: bool = False) -> RunTranscript:
    """Simulate one scenario and return its complete transcript."""
    return Engine(cfg, topology, record_events).run()
