"""Deterministic discrete-event core: clock, event queue, radio delivery,
CBR traffic, timers, and the per-node protocol/detector state machines.

Determinism contract: the only randomness is the seeded topology PRNG (and
the mobility PRNG when enabled); all timers run on exact period grids and
simultaneous events execute in insertion order, so identical (config,
seed) pairs replay to bit-identical transcripts on any platform.

A radio broadcast (hello, DIO, forged DIO, blacklist flood) is one queue
entry ``(t + hop_latency_s, seq, kind, neighbors, sender, payload)``
holding the sender's neighbor tuple as it was at send time (for a hello,
only the neighbors that run a detector; it changes nothing elsewhere).
When popped, its receptions run back to back in neighbor order. This is
the order one entry per receiver would give: those entries would share
the timestamp and take consecutive sequence numbers, and since
``hop_latency_s > 0`` no reception schedules anything at its own time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import hypot
from typing import Optional

from . import rpl
from .attackers import (
    DATA_DROPPED,
    FlooderBehavior,
    SinkholeBehavior,
    rreq_count_in_window,
    sinkhole_emit_dio,
    sinkhole_handle_data,
    validate_sinkhole,
)
from .detector import (
    BENIGN,
    MALICIOUS_FLOOD,
    MALICIOUS_RANK,
    NodeDetector,
    compute_di_rank,
)
from .errors import EngineStall, InvalidConfig, NoParentAvailable
from .rpl import RoutingState, assign_initial_ranks, select_parent
from .scenario import ScenarioConfig
from .topology import Topology, generate_topology

# Packet fate reasons (drop buckets; "delivered" is not a drop).
DROP_NO_PARENT = "no_parent"
DROP_SINKHOLE = "sinkhole"
DROP_TTL = "ttl"
DROP_TIMEOUT = "timeout"
DROP_ALTERED = "altered"
DROP_SIM_END = "sim_end"

# Event kinds, ordered roughly by runtime frequency. The *_RX kinds of
# broadcasts (hello, DIO, blacklist flood) carry the receivers' tuple.
EV_HELLO_RX = 0
EV_DIO_RX = 1
EV_DATA_RX = 2
EV_HELLO_TIMER = 3
EV_TRAFFIC = 4
EV_DIO_TIMER = 5
EV_ATTACK_DIO = 6
EV_REPORT_RX = 7
EV_BCAST_RX = 8
EV_CALIBRATE = 9
EV_MOBILITY = 10

MOBILITY_STEP_S = 1.0


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
    "mobility_step": ("t",),
}


@dataclass(slots=True)
class PacketFate:
    """Exactly one of delivered_at / drop_reason is set once finalized."""

    packet_id: int
    src: int
    emitted_at: float
    delivered_at: Optional[float] = None
    drop_reason: Optional[str] = None
    hops: int = 0
    corrupted: bool = False

    @property
    def finalized(self) -> bool:
        return self.delivered_at is not None or self.drop_reason is not None


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
    fates: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)  # (t, receiver, sender, kind, dv, di, apt, thr)
    root_blacklist: frozenset = frozenset()
    events: Optional[list] = None  # populated when record_events


class _Node:
    __slots__ = (
        "id", "is_root", "rt", "table", "det", "sinkhole", "flooder",
        "neighbors", "hello_listeners", "pending_reports", "bcast_seen",
        "is_source",
    )

    def __init__(self, nid, is_root):
        self.id = nid
        self.is_root = is_root
        self.rt = RoutingState(node_id=nid)
        self.table = {}
        self.det = None
        self.sinkhole = None
        self.flooder = None
        self.neighbors = ()
        self.hello_listeners = ()
        self.pending_reports = []
        self.bcast_seen = 0
        self.is_source = False


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
        self._has_timers = False
        self._max_timer_period = 0.0
        self.evlog = [] if record_events else None

        self.emitted = 0
        self.delivered = 0
        self.drops = {}
        self.fates = []
        self.verdicts = []
        self._next_packet_id = 0

        self.root_suspects = set()
        self._bcast_seq = 0

        self._mob_rng = None
        self._positions = None
        self._waypoints = None

        self._setup_nodes()

    # ------------------------------------------------------------------
    # setup

    def _setup_nodes(self):
        cfg = self.cfg
        topo = self.topology
        ranks = assign_initial_ranks(topo)
        root = topo.root_id
        detection = cfg.detection_enabled
        fixed_threshold = (
            float(cfg.apt_threshold) if not isinstance(cfg.apt_threshold, str) else None
        )

        self.nodes = [_Node(i, i == root) for i in range(topo.node_count)]
        for node in self.nodes:
            node.neighbors = topo.adjacency[node.id]
            node.table = {nb: ranks[nb] for nb in node.neighbors}
            node.rt.my_rank = ranks[node.id]
            # Attackers keep routing but never run the detector: the
            # adversary model excludes framing, so they originate no
            # verdicts or reports.
            if detection and node.id not in topo.attacker_set:
                node.det = NodeDetector(cfg.alpha_low, cfg.alpha_high, fixed_threshold)
        self._detectors = frozenset(node.id for node in self.nodes if node.det is not None)
        for node in self.nodes:
            node.hello_listeners = self._hello_listeners(node)

        for attacker in sorted(topo.attacker_set):
            node = self.nodes[attacker]
            if cfg.attack_type == "sinkhole":
                behavior = SinkholeBehavior(
                    node_id=attacker,
                    attack_start_s=self.attack_start,
                    attack_interval_s=cfg.attack_interval_s,
                    advertised_rank=cfg.sinkhole_advertised_rank,
                    data_plane=cfg.sinkhole_data_plane,
                )
                validate_sinkhole(behavior, ranks[attacker])
                node.sinkhole = behavior
            else:
                node.flooder = FlooderBehavior(
                    node_id=attacker,
                    attack_start_s=self.attack_start,
                    rreq_rate_per_s=cfg.flooder_rreq_rate_per_s,
                )

        # Initial DODAG: clean deployment, correct routing tables everywhere.
        for node in self.nodes:
            if node.is_root:
                continue
            select_parent(node.rt, node.table, self._guard(node.id))

        # "benign": every non-attacker non-root node sources CBR traffic;
        # "all": literally every node (the root's own packets are recorded
        # as delivered at emission, zero hops).
        sources_all = cfg.traffic.sources == "all"
        for node in self.nodes:
            if sources_all:
                node.is_source = True
            elif not node.is_root and node.id not in topo.attacker_set:
                node.is_source = True

        self._schedule_initial()

    def _schedule_initial(self):
        cfg = self.cfg
        duration = cfg.duration_s
        periods = []
        if cfg.dio_period_s < duration:
            periods.append(cfg.dio_period_s)
            for node in self.nodes:
                self._push(cfg.dio_period_s, EV_DIO_TIMER, node.id, 1, 0)
        if cfg.hello_period_s < duration:
            periods.append(cfg.hello_period_s)
            for node in self.nodes:
                self._push(cfg.hello_period_s, EV_HELLO_TIMER, node.id, 1, 0)
        if duration > 0:
            any_source = False
            for node in self.nodes:
                if node.is_source:
                    any_source = True
                    self._push(0.0, EV_TRAFFIC, node.id, 0, 0)
            if any_source:
                periods.append(cfg.traffic.period_s)
        if self.attack_start < duration:
            for node in self.nodes:
                if node.sinkhole is not None:
                    self._push(self.attack_start, EV_ATTACK_DIO, node.id, 0, 0)
            if cfg.detection_enabled:
                self._push(self.attack_start, EV_CALIBRATE, 0, 0, 0)
        if cfg.mobility.kind == "random_waypoint" and duration > MOBILITY_STEP_S:
            periods.append(MOBILITY_STEP_S)
            self._mob_rng = random.Random(cfg.seed ^ 0x5DEECE66D)
            self._positions = [list(p) for p in self.topology.positions]
            self._waypoints = [self._random_point() for _ in self.nodes]
            self._push(MOBILITY_STEP_S, EV_MOBILITY, 1, 0, 0)
        self._has_timers = bool(periods)
        self._max_timer_period = max(periods) if periods else 0.0

    # ------------------------------------------------------------------
    # primitives

    def _push(self, t, kind, a, b, c):
        self._seq += 1
        heappush(self._heap, (t, self._seq, kind, a, b, c))

    def _broadcast(self, t, kind, receivers, sender, payload):
        """Send one message to a tuple of neighbors: a single queue entry,
        received at t + hop_latency_s."""
        self._push(t + self.cfg.hop_latency_s, kind, receivers, sender, payload)

    def _hello_listeners(self, node):
        """The neighbors that run a detector: a hello changes nothing at
        any other node."""
        return tuple(filter(self._detectors.__contains__, node.neighbors))

    def _guard(self, nid):
        nodes = self.nodes
        limit = len(nodes)

        def loop_free(candidate):
            u = candidate
            steps = 0
            while u is not None:
                if u == nid:
                    return False
                u = nodes[u].rt.parent_id
                steps += 1
                if steps > limit:
                    return False
            return True

        return loop_free

    def _reselect(self, node, t):
        rt = node.rt
        old_parent = rt.parent_id
        old_rank = rt.my_rank
        try:
            select_parent(rt, node.table, self._guard(node.id))
        except NoParentAvailable:
            rt.parent_id = None
            rt.dv_rank = None
        if rt.parent_id is not None and old_parent is None and node.pending_reports:
            self._flush_pending(node, t)
        if self.evlog is not None and (rt.parent_id != old_parent or rt.my_rank != old_rank):
            self.evlog.append(("parent_change", t, node.id, old_parent,
                               rt.parent_id, rt.my_rank))

    def _apply_blacklist(self, t, node, suspects):
        """Blacklist ``suspects`` at ``node``, re-select its parent if the
        parent is one of them, and log the move."""
        rt = node.rt
        old_parent = rt.parent_id
        rpl.apply_blacklist_broadcast(rt, suspects, node.table, self._guard(node.id))
        if self.evlog is not None and rt.parent_id != old_parent:
            self.evlog.append(("parent_change", t, node.id, old_parent,
                               rt.parent_id, rt.my_rank))

    # ------------------------------------------------------------------
    # detection plumbing

    def _queue_report(self, t, reporter_node, suspect):
        det = reporter_node.det
        if suspect in det.reported:
            return
        det.reported.add(suspect)
        if reporter_node.is_root:
            self._root_ingest(t, suspect, reporter_node.id)
            return
        parent = reporter_node.rt.parent_id
        if parent is None:
            reporter_node.pending_reports.append(suspect)
            return
        if self.evlog is not None:
            self.evlog.append(("report_tx", t, reporter_node.id, suspect))
        self._push(t + self.cfg.hop_latency_s, EV_REPORT_RX, parent, suspect,
                   reporter_node.id)

    def _flush_pending(self, node, t):
        parent = node.rt.parent_id
        latency = self.cfg.hop_latency_s
        for suspect in node.pending_reports:
            if self.evlog is not None:
                self.evlog.append(("report_tx", t, node.id, suspect))
            self._push(t + latency, EV_REPORT_RX, parent, suspect, node.id)
        node.pending_reports.clear()

    def _root_ingest(self, t, suspect, reporter):
        if self.evlog is not None:
            self.evlog.append(("report_root", t, suspect, reporter))
        if suspect in self.root_suspects:
            return
        self.root_suspects.add(suspect)
        root = self.nodes[self.topology.root_id]
        self._apply_blacklist(t, root, (suspect,))
        self._bcast_seq += 1
        root.bcast_seen = self._bcast_seq  # never re-forward its own flood
        suspects = tuple(sorted(self.root_suspects))
        if self.evlog is not None:
            self.evlog.append(("blacklist_tx", t, self._bcast_seq, suspects))
        self._broadcast(t, EV_BCAST_RX, root.neighbors, self._bcast_seq, suspects)

    # ------------------------------------------------------------------
    # handlers

    def _on_dio_rx(self, t, receiver, sender, adv):
        node = self.nodes[receiver]
        rt = node.rt
        filtered = sender in rt.blacklist
        if self.evlog is not None:
            self.evlog.append(("dio_rx", t, receiver, sender, adv, rt.my_rank,
                               rt.dv_rank, sender == rt.parent_id, filtered))
        if filtered:
            return
        if node.det is not None:
            # A node with no parent yet scores the gap against the value
            # every parented node has under hop-count ranks.
            dv = rt.dv_rank if rt.dv_rank is not None else 1
            di = compute_di_rank(rt.my_rank, adv)
            if di > dv:
                self.verdicts.append((t, receiver, sender, MALICIOUS_RANK,
                                      dv, di, None, None))
                self._apply_blacklist(t, node, (sender,))
                self._queue_report(t, node, sender)
                return  # irrational DIO discarded
            self.verdicts.append((t, receiver, sender, BENIGN, dv, di, None, None))
        if node.is_root:
            return
        old = node.table.get(sender)
        if old == adv and rt.parent_id is not None:
            return
        node.table[sender] = adv
        self._reselect(node, t)

    def _on_hello_rx(self, t, receiver, sender, count):
        node = self.nodes[receiver]
        det = node.det
        if det is None or sender in node.rt.blacklist:
            return
        # Both EWMA tracks of the sender share one cell. Each follows
        # AptState.update exactly: the first sample sets the average, then
        # s + a*(x - s), which keeps constant input an exact fixed point.
        cell = det.apt.get(sender)
        if cell is None:
            s_low = s_high = float(count)
            det.apt[sender] = [s_low, s_high]
        else:
            s_low = cell[0] = cell[0] + det.alpha_low * (count - cell[0])
            s_high = cell[1] = cell[1] + det.alpha_high * (count - cell[1])
        if t <= self.attack_start:
            det.warmup_samples.append(count)
        if self.evlog is not None:
            self.evlog.append(("hello_rx", t, receiver, sender, count, s_low, s_high))
        threshold = det.threshold
        if threshold is not None and s_high > threshold:
            self.verdicts.append((t, receiver, sender, MALICIOUS_FLOOD,
                                  None, None, s_high, threshold))
            self._apply_blacklist(t, node, (sender,))
            self._queue_report(t, node, sender)

    def _on_data_rx(self, t, receiver, pkt):
        if t > pkt.emitted_at + self.cfg.packet_timeout_s:
            self._finalize(pkt, t, DROP_TIMEOUT)
            return
        node = self.nodes[receiver]
        if node.is_root:
            if pkt.corrupted:
                self._finalize(pkt, t, DROP_ALTERED)
            else:
                pkt.delivered_at = t
                self.delivered += 1
                if self.evlog is not None:
                    self.evlog.append(("packet_fate", t, pkt.packet_id,
                                       "delivered", pkt.hops))
            return
        sink = node.sinkhole
        if sink is not None and t >= sink.attack_start_s:
            if sinkhole_handle_data(sink, pkt) == DATA_DROPPED:
                self._finalize(pkt, t, DROP_SINKHOLE)
                return
        if pkt.hops >= self.cfg.packet_ttl:
            self._finalize(pkt, t, DROP_TTL)
            return
        parent = node.rt.parent_id
        if parent is None:
            self._finalize(pkt, t, DROP_NO_PARENT)
            return
        pkt.hops += 1
        if self.evlog is not None:
            self.evlog.append(("data_hop", t, receiver, parent, pkt.packet_id))
        self._push(t + self.cfg.hop_latency_s, EV_DATA_RX, parent, pkt, 0)

    def _finalize(self, pkt, t, reason):
        pkt.drop_reason = reason
        self.drops[reason] = self.drops.get(reason, 0) + 1
        if self.evlog is not None:
            self.evlog.append(("packet_fate", t, pkt.packet_id, reason, pkt.hops))

    def _on_hello_timer(self, t, nid, k):
        node = self.nodes[nid]
        period = self.cfg.hello_period_s
        if node.is_root:
            count = 0
        else:
            count = rreq_count_in_window(t - period, t,
                                         self.cfg.benign_rreq_rate_per_s,
                                         node.flooder)
        if self.evlog is not None:
            self.evlog.append(("hello_tx", t, nid, count))
        if node.hello_listeners:
            self._broadcast(t, EV_HELLO_RX, node.hello_listeners, nid, count)
        next_t = (k + 1) * period
        if next_t < self.cfg.duration_s:
            self._push(next_t, EV_HELLO_TIMER, nid, k + 1, 0)

    def _on_dio_timer(self, t, nid, k):
        node = self.nodes[nid]
        next_t = (k + 1) * self.cfg.dio_period_s
        if next_t < self.cfg.duration_s:
            self._push(next_t, EV_DIO_TIMER, nid, k + 1, 0)
        sink = node.sinkhole
        if sink is not None and t >= sink.attack_start_s:
            return  # attack-grid emissions replace the periodic DIO
        if node.is_root:
            adv = 0
        elif node.rt.parent_id is None:
            return  # orphans have nothing to offer
        else:
            adv = node.rt.my_rank
        if self.evlog is not None:
            self.evlog.append(("dio_tx", t, nid, adv))
        self._broadcast(t, EV_DIO_RX, node.neighbors, nid, adv)

    def _on_attack_dio(self, t, nid, k):
        node = self.nodes[nid]
        dio = sinkhole_emit_dio(node.sinkhole, t)
        if self.evlog is not None:
            self.evlog.append(("attack_dio", t, nid, dio.advertised_rank))
        self._broadcast(t, EV_DIO_RX, node.neighbors, nid, dio.advertised_rank)
        next_t = node.sinkhole.attack_start_s + (k + 1) * node.sinkhole.attack_interval_s
        if next_t < self.cfg.duration_s:
            self._push(next_t, EV_ATTACK_DIO, nid, k + 1, 0)

    def _on_traffic(self, t, nid, k):
        node = self.nodes[nid]
        pkt = PacketFate(self._next_packet_id, nid, t)
        self._next_packet_id += 1
        self.emitted += 1
        self.fates.append(pkt)
        if self.evlog is not None:
            self.evlog.append(("traffic_emit", t, nid, pkt.packet_id))
        parent = node.rt.parent_id
        if node.is_root:
            pkt.delivered_at = t
            self.delivered += 1
            if self.evlog is not None:
                self.evlog.append(("packet_fate", t, pkt.packet_id, "delivered", 0))
        elif parent is None:
            self._finalize(pkt, t, DROP_NO_PARENT)
        else:
            pkt.hops = 1
            if self.evlog is not None:
                self.evlog.append(("data_hop", t, nid, parent, pkt.packet_id))
            self._push(t + self.cfg.hop_latency_s, EV_DATA_RX, parent, pkt, 0)
        next_t = (k + 1) * self.cfg.traffic.period_s
        if next_t < self.cfg.duration_s:
            self._push(next_t, EV_TRAFFIC, nid, k + 1, 0)

    def _on_report_rx(self, t, holder_id, suspect, reporter):
        node = self.nodes[holder_id]
        if node.is_root:
            self._root_ingest(t, suspect, reporter)
            return
        sink = node.sinkhole
        if sink is not None and t >= sink.attack_start_s:
            # Consistent adversary: a sinkhole swallows reports in transit.
            if self.evlog is not None:
                self.evlog.append(("report_drop", t, holder_id, suspect, "sinkhole"))
            return
        parent = node.rt.parent_id
        if parent is None:
            if self.evlog is not None:
                self.evlog.append(("report_drop", t, holder_id, suspect, "no_parent"))
            return
        if self.evlog is not None:
            self.evlog.append(("report_hop", t, holder_id, suspect, reporter))
        self._push(t + self.cfg.hop_latency_s, EV_REPORT_RX, parent, suspect, reporter)

    def _on_bcast_rx(self, t, receiver, bseq, suspects):
        """First reception of flood ``bseq``; run() skips the duplicates."""
        node = self.nodes[receiver]
        node.bcast_seen = bseq
        if receiver in suspects:
            # Suspects never forward a flood naming them, and every later
            # flood names them too (the root's suspect set only grows).
            return
        if self.evlog is not None:
            changed = not node.rt.blacklist.issuperset(suspects)
            self.evlog.append(("blacklist_rx", t, receiver, bseq, changed))
        self._apply_blacklist(t, node, suspects)
        self._broadcast(t, EV_BCAST_RX, node.neighbors, bseq, suspects)

    def _on_calibrate(self, t):
        for node in self.nodes:
            if node.det is not None:
                value = node.det.calibrate()
                if self.evlog is not None:
                    self.evlog.append(("threshold", t, node.id, value))

    # ------------------------------------------------------------------
    # mobility (opt-in random waypoint)

    def _random_point(self):
        w, h = self.cfg.area
        return [self._mob_rng.uniform(0.0, w), self._mob_rng.uniform(0.0, h)]

    def _on_mobility(self, t, k):
        speed = self.cfg.mobility.speed_m_s
        positions = self._positions
        for i, pos in enumerate(positions):
            wp = self._waypoints[i]
            dx = wp[0] - pos[0]
            dy = wp[1] - pos[1]
            dist = hypot(dx, dy)
            step = speed * MOBILITY_STEP_S
            if dist <= step:
                pos[0], pos[1] = wp
                self._waypoints[i] = self._random_point()
            else:
                pos[0] += dx / dist * step
                pos[1] += dy / dist * step
        self._rebuild_adjacency(t)
        if self.evlog is not None:
            self.evlog.append(("mobility_step", t))
        next_t = (k + 1) * MOBILITY_STEP_S
        if next_t < self.cfg.duration_s:
            self._push(next_t, EV_MOBILITY, k + 1, 0, 0)

    def _rebuild_adjacency(self, t):
        positions = self._positions
        limit = self.cfg.tx_range * self.cfg.tx_range
        n = len(positions)
        neigh = [[] for _ in range(n)]
        for i in range(n):
            xi, yi = positions[i]
            for j in range(i + 1, n):
                dx = xi - positions[j][0]
                dy = yi - positions[j][1]
                if dx * dx + dy * dy <= limit:
                    neigh[i].append(j)
                    neigh[j].append(i)
        for node in self.nodes:
            node.neighbors = tuple(neigh[node.id])
            node.hello_listeners = self._hello_listeners(node)
            in_range = set(node.neighbors)
            stale = [nb for nb in node.table if nb not in in_range]
            for nb in stale:
                del node.table[nb]
            if not node.is_root and (
                node.rt.parent_id is None or node.rt.parent_id not in in_range
            ):
                self._reselect(node, t)

    # ------------------------------------------------------------------
    # main loop

    def run(self) -> RunTranscript:
        duration = self.cfg.duration_s
        heap = self._heap
        nodes = self.nodes
        while heap:
            entry = heappop(heap)
            t = entry[0]
            if t >= duration:
                break
            self.now = t
            kind = entry[2]
            if kind == EV_HELLO_RX:
                on_hello_rx = self._on_hello_rx
                sender, count = entry[4], entry[5]
                for receiver in entry[3]:
                    on_hello_rx(t, receiver, sender, count)
            elif kind == EV_DIO_RX:
                on_dio_rx = self._on_dio_rx
                sender, adv = entry[4], entry[5]
                for receiver in entry[3]:
                    on_dio_rx(t, receiver, sender, adv)
            elif kind == EV_BCAST_RX:
                bseq, suspects = entry[4], entry[5]
                for receiver in entry[3]:
                    if nodes[receiver].bcast_seen < bseq:
                        self._on_bcast_rx(t, receiver, bseq, suspects)
            elif kind == EV_DATA_RX:
                self._on_data_rx(t, entry[3], entry[4])
            elif kind == EV_HELLO_TIMER:
                self._on_hello_timer(t, entry[3], entry[4])
            elif kind == EV_TRAFFIC:
                self._on_traffic(t, entry[3], entry[4])
            elif kind == EV_DIO_TIMER:
                self._on_dio_timer(t, entry[3], entry[4])
            elif kind == EV_ATTACK_DIO:
                self._on_attack_dio(t, entry[3], entry[4])
            elif kind == EV_REPORT_RX:
                self._on_report_rx(t, entry[3], entry[4], entry[5])
            elif kind == EV_CALIBRATE:
                self._on_calibrate(t)
            elif kind == EV_MOBILITY:
                self._on_mobility(t, entry[3])
        else:
            # Queue drained. With periodic timers, consecutive events are
            # never further apart than the largest period; a bigger gap to
            # the horizon means the engine lost its timers (internal bug).
            if self._has_timers and duration - self.now > self._max_timer_period:
                raise EngineStall(
                    "event queue empty at t=%g with horizon %g" % (self.now, duration)
                )
        for pkt in self.fates:
            if not pkt.finalized:
                self._finalize(pkt, duration, DROP_SIM_END)
        return RunTranscript(
            cfg=self.cfg,
            topology=self.topology,
            attack_start_s=self.attack_start,
            end_time_s=duration,
            emitted=self.emitted,
            delivered=self.delivered,
            drops=self.drops,
            fates=self.fates,
            verdicts=self.verdicts,
            root_blacklist=frozenset(self.root_suspects),
            events=self.evlog,
        )


def run(cfg: ScenarioConfig, topology: Optional[Topology] = None,
        record_events: bool = False) -> RunTranscript:
    """Simulate one scenario and return its complete transcript."""
    return Engine(cfg, topology, record_events).run()
