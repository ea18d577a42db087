import gc
import weakref
from collections import defaultdict
from heapq import heappop, heappush
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import chain_topology, handle, packet_fates, star_topology, tiny_cfg
from rplsim.detector import MALICIOUS_FLOOD, MALICIOUS_RANK
from rplsim.engine import (
    DROP_ALTERED,
    DROP_NO_PARENT,
    DROP_SINKHOLE,
    Engine,
    run,
)
from rplsim.errors import EngineStall
from rplsim.metrics import audit_conservation
from rplsim.scenario import ScenarioConfig, TrafficSpec
from rplsim.topology import Topology


def run_chain(n, attackers=(), extra_edges=(), **overrides):
    topo = chain_topology(n, attackers=attackers, extra_edges=extra_edges)
    params = dict(node_count=n, malicious_fraction=0.0, duration_s=30.0,
                  attack_start_s=10.0, seed=1)
    params.update(overrides)
    cfg = ScenarioConfig(**params)
    return run(cfg, topology=topo, record_events=True)


def broadcast_entries(eng):
    """Every queued broadcast item as ``(handler, a, b, c)``, in run order."""
    return [(e[2],) + item for e in sorted(eng._heap)
            if e[2] in (Engine._on_hello_rx, Engine._on_dio_rx, Engine._on_bcast_rx)
            for item in e[3]]


class TestBroadcast:
    def test_each_broadcast_pushes_exactly_one_heap_entry(self):
        # Node 1 is a sinkhole next to the root; the root has 3 neighbors.
        topo = Topology.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4)], root_id=0,
                                   attackers=(1,))
        cfg = ScenarioConfig(node_count=5, duration_s=30.0, attack_start_s=10.0, seed=1)
        eng = Engine(cfg, topology=topo)
        eng._heap.clear()
        sends = [
            # a hello goes only to neighbors that run a detector
            (lambda: handle(eng, Engine._on_hello_timer, 1.0, 0, 1),
             (Engine._on_hello_rx, (2, 3), 0, 0)),
            (lambda: handle(eng, Engine._on_dio_timer, 10.0, 0, 1),
             (Engine._on_dio_rx, (1, 2, 3), 0, 0)),
            (lambda: handle(eng, Engine._on_attack_dio, 10.0, 1),
             (Engine._on_dio_rx, (0, 4), 1, 0)),
            # a flood entry carries its number, not the suspects, and the
            # sender's neighbors as a bitmask
            (lambda: eng._root_ingest(11.0, 1, 2), (Engine._on_bcast_rx, 0b1110, 1, 0)),
            (lambda: handle(eng, Engine._on_bcast_rx, 11.005, 1 << 2, 1),
             (Engine._on_bcast_rx, 0b1, 1, 0)),
        ]
        for send, expected in sends:
            before = broadcast_entries(eng)
            send()
            new = [e for e in broadcast_entries(eng) if e not in before]
            assert len(new) == 1
            assert new[0] == expected

    def test_no_hello_entry_when_no_neighbor_runs_a_detector(self):
        eng = Engine(tiny_cfg(node_count=4, detection_enabled=False),
                     topology=star_topology(3))
        eng._heap.clear()
        handle(eng, Engine._on_hello_timer, 49.0, 0, 49)
        assert broadcast_entries(eng) == []

    def test_receivers_get_it_one_latency_later_in_neighbor_order(self):
        eng = Engine(tiny_cfg(node_count=4), topology=star_topology(3), record_events=True)
        eng._heap.clear()
        eng.nodes[0].neighbors = (3, 1, 2)
        handle(eng, Engine._on_dio_timer, 40.0, 0, 4)  # the root's last DIO before the horizon
        received = [e[1:5] for e in eng.run().events if e[0] == "dio_rx"]
        rx_t = 40.0 + eng.cfg.hop_latency_s
        assert received == [(rx_t, 3, 0, 0), (rx_t, 1, 0, 0), (rx_t, 2, 0, 0)]

    def test_entry_keeps_the_neighbor_tuple_from_send_time(self):
        eng = Engine(tiny_cfg(node_count=4), topology=star_topology(3), record_events=True)
        eng._heap.clear()
        handle(eng, Engine._on_dio_timer, 40.0, 0, 4)  # the root's last DIO before the horizon
        eng.nodes[0].neighbors = (1,)  # the sender's links change in flight
        received = [e[2] for e in eng.run().events if e[0] == "dio_rx"]
        assert received == [1, 2, 3]

    def test_flood_skips_receivers_that_have_seen_it(self):
        # The root's neighbors are 1, 2 and 3; the suspect 4 sits behind 3,
        # so every first-hop reception that is not skipped is logged.
        topo = Topology.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)], root_id=0)
        eng = Engine(tiny_cfg(node_count=5), topology=topo, record_events=True)
        eng._root_ingest(1.0, 4, 1)
        handle(eng, Engine._on_bcast_rx, 1.0, 1 << 2, 1)  # node 2 takes flood 1 first
        assert eng.nodes[2].bcast_seen == 1
        received = [e[2] for e in eng.run().events
                    if e[0] == "blacklist_rx" and e[1] == 1.0 + eng.cfg.hop_latency_s]
        assert received == [1, 3]

    def test_neighbor_masks_are_built_at_the_first_flood(self):
        topo = Topology.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)], root_id=0)
        eng = Engine(tiny_cfg(node_count=5), topology=topo)
        eng.run()
        assert eng._masks is None  # attack-free: no flood, no masks
        eng._root_ingest(1.0, 4, 1)
        assert eng._masks == [0b1110, 0b1, 0b1, 0b10001, 0b1000]


class TestConstantWorkReceptions:
    def test_node_that_missed_every_flood_blacklists_all_suspects(self):
        eng = Engine(tiny_cfg(node_count=6), topology=star_topology(5))
        for suspect in (3, 1, 5):
            eng._root_ingest(1.0, suspect, 2)
        assert eng.nodes[2].bcast_seen == 0
        handle(eng, Engine._on_bcast_rx, 1.005, 1 << 2, 3)
        assert eng.nodes[2].blacklist == {1, 3, 5}
        # a suspect named by an earlier flood applies nothing
        handle(eng, Engine._on_bcast_rx, 1.005, 1 << 1, 3)
        assert eng.nodes[1].blacklist == set()

    def test_the_lowest_listener_threshold_still_flags_the_sender(self):
        # Node 1's hellos reach 0, 2 and 3. Node 2 never calibrated, and
        # the listener with the higher threshold is heard first.
        eng = Engine(ScenarioConfig(node_count=4, duration_s=30.0, attack_start_s=10.0),
                     topology=chain_topology(4, extra_edges=[(1, 3)]))
        eng.nodes[0].threshold = 10.0
        eng.nodes[3].threshold = 3.0
        handle(eng, Engine._on_calibrate, 10.0)
        assert eng.nodes[2].threshold is None
        assert eng.nodes[1].min_threshold == 3.0
        handle(eng, Engine._on_hello_rx, 15.0, (0, 2, 3), 1, 5)
        assert eng.verdicts == [(15.0, 3, 1, MALICIOUS_FLOOD, None, None, 5.0, 3.0)]

    def test_traced_run_logs_every_hello_reception_after_calibration(self):
        eng = Engine(tiny_cfg(), record_events=True)
        tr = eng.run()
        latency, horizon = eng.cfg.hop_latency_s, eng.cfg.duration_s
        expected = sorted((e[1] + latency, r, e[2]) for e in tr.events
                          if e[0] == "hello_tx" and e[1] + latency < horizon
                          for r in eng.nodes[e[2]].hello_listeners)
        late = [e for e in tr.events if e[0] == "hello_rx" and e[1] > tr.attack_start_s]
        assert sorted((e[1], e[2], e[3]) for e in late) == [
            x for x in expected if x[0] > tr.attack_start_s]
        # untraced, every one of these hellos would stop at the sender
        assert late and all(e[6] <= eng.nodes[e[3]].min_threshold for e in late)

    def test_blacklist_not_naming_the_parent_leaves_it(self):
        eng = Engine(tiny_cfg(node_count=4), topology=chain_topology(4))
        node = eng.nodes[2]
        with mock.patch("rplsim.engine.select_parent", side_effect=AssertionError):
            eng._apply_blacklist(1.0, node, (3,))  # a re-selection would raise
        assert (node.parent, node.rank, node.blacklist) == (1, 2, {3})
        assert 3 not in node.table


class TestRunBasics:
    def test_zero_duration_empty_transcript(self):
        tr = run(tiny_cfg(duration_s=0.0), record_events=True)
        assert tr.emitted == 0
        assert packet_fates(tr) == []
        assert tr.verdicts == []
        audit_conservation(tr)

    def test_ten_node_benign_all_sources_all_delivered(self):
        cfg = ScenarioConfig(node_count=10, area=(30.0, 30.0), tx_range=20.0,
                             duration_s=100.0, traffic=TrafficSpec(1.0, "all"), seed=3)
        tr = run(cfg, record_events=True)
        assert tr.emitted == 1000
        assert len(packet_fates(tr)) == 1000
        assert tr.delivered == 1000
        assert tr.drops == {}
        audit_conservation(tr)

    def test_chain_packet_delivered_in_two_hops(self):
        tr = run_chain(3, duration_s=5.0)
        from_leaf = [f for f in packet_fates(tr) if f.src == 2]
        assert from_leaf and all(f.outcome == "delivered" for f in from_leaf)
        assert {f.hops for f in from_leaf} == {2}

    def test_detection_disabled_produces_no_verdicts(self):
        tr = run_chain(4, attackers=(1,), detection_enabled=False)
        assert tr.verdicts == []
        assert tr.root_blacklist == frozenset()

    def test_slow_links_expire_packets(self):
        # 3 hops x 2 s per hop exceeds the 5 s packet lifetime
        tr = run_chain(4, duration_s=20.0, hop_latency_s=2.0)
        audit_conservation(tr)
        deep = [f for f in packet_fates(tr) if f.src == 3 and f.emitted_at < 14.0]
        assert deep and all(f.outcome == "timeout" for f in deep)
        near = [f for f in packet_fates(tr) if f.src == 1 and f.emitted_at < 14.0]
        assert near and all(f.outcome == "delivered" for f in near)

    def test_ttl_bounds_path_length(self):
        tr = run_chain(3, duration_s=10.0, packet_ttl=1)
        audit_conservation(tr)
        assert {f.outcome for f in packet_fates(tr) if f.src == 2} == {"ttl"}
        assert all(f.outcome == "delivered" for f in packet_fates(tr) if f.src == 1)

    def test_packet_due_at_the_horizon_ends_there(self):
        # Chain 0-1-2 with 0.5 s hops: node 2's packet of 9 s is due at the
        # root at 10 s, the horizon, where its entry is the only one left.
        cfg = ScenarioConfig(node_count=3, duration_s=10.0, hop_latency_s=0.5, seed=1)
        eng = Engine(cfg, topology=chain_topology(3), record_events=True)
        tr = eng.run()
        assert [(e[0], e[2]) for e in eng._heap] == [(10.0, Engine._on_data_rx)]
        assert packet_fates(tr)[-1] == (19, 2, 9.0, "sim_end", 10.0, 2)
        assert (tr.emitted, tr.delivered, tr.drops) == (20, 19, {"sim_end": 1})
        audit_conservation(tr)


class TestSinkholeDataPlane:
    def test_packets_through_sinkhole_dropped_when_detection_off(self):
        # 0-1-2-3 chain, node 1 is the sinkhole: everything emitted by 2
        # and 3 after the attack starts dies at node 1.
        tr = run_chain(4, attackers=(1,), detection_enabled=False)
        audit_conservation(tr)
        for fate in packet_fates(tr):
            if fate.emitted_at >= 10.0:
                assert fate.outcome == DROP_SINKHOLE
            else:
                assert fate.outcome == "delivered"
        # 2 sources x 20 post-attack emissions
        assert tr.drops[DROP_SINKHOLE] == 40
        assert tr.delivered == 20

    def test_alter_mode_flags_corruption_at_root(self):
        tr = run_chain(4, attackers=(1,), detection_enabled=False,
                       sinkhole_data_plane="alter")
        audit_conservation(tr)
        assert tr.drops[DROP_ALTERED] == 40
        assert tr.delivered == 20
        # corrupted by node 1 after the attack start, and flagged on arrival
        altered = [f for f in packet_fates(tr) if f.outcome == DROP_ALTERED]
        assert {(f.src, f.hops) for f in altered} == {(2, 2), (3, 3)}
        assert all(f.emitted_at >= 10.0 for f in altered)

    def test_sinkhole_forwards_the_packets_it_emits(self):
        # Every node a source: sinkhole 1 sends its own packets on to the
        # root and swallows those of 2 and 3 when they reach it.
        tr = run_chain(4, attackers=(1,), detection_enabled=False, duration_s=20.0,
                       traffic=TrafficSpec(1.0, "all"))
        audit_conservation(tr)
        late = {src: [f for f in packet_fates(tr) if f.src == src and f.emitted_at >= 10.0]
                for src in (1, 2, 3)}
        assert len(late[1]) == 10
        assert all(f.outcome == "delivered" and f.hops == 1 for f in late[1])
        for src in (2, 3):
            assert len(late[src]) == 10
            # dropped on arrival at node 1, src - 1 hops out
            assert {(f.outcome, f.hops) for f in late[src]} == {(DROP_SINKHOLE, src - 1)}

    def test_sinkhole_forwards_normally_before_attack_start(self):
        tr = run_chain(4, attackers=(1,), detection_enabled=False,
                       duration_s=9.0, attack_start_s=100.0)
        assert tr.delivered == tr.emitted


class TestDetectionDynamics:
    def test_first_fake_dio_flagged_by_deep_neighbors(self):
        # sinkhole 1 at rank 1: node 2 (rank 2) flags the rank-0 lie at
        # the first reception; node 0 (root) cannot (gap 0).
        tr = run_chain(4, attackers=(1,))
        flagged = [v for v in tr.verdicts if v[3] == MALICIOUS_RANK]
        assert flagged
        first = flagged[0]
        assert first[1] == 2 and first[2] == 1  # receiver 2, sender 1
        assert first[4] == 1 and first[5] == 2  # dv=1, di=|0-2|=2

    def test_orphaned_reporter_keeps_report_pending(self):
        # 0-1-3-2 with sinkhole 3: node 2's only neighbor is the sinkhole,
        # so it orphans itself on detection and its report never leaves;
        # node 1 (rank 1) sits in the blind spot, so the root stays blind.
        topo = Topology.from_edges(4, [(0, 1), (1, 3), (3, 2)], root_id=0,
                                   attackers=(3,))
        cfg = ScenarioConfig(node_count=4, duration_s=30.0, attack_start_s=10.0, seed=1)
        eng = Engine(cfg, topology=topo, record_events=True)
        tr = eng.run()
        assert tr.root_blacklist == frozenset()
        assert eng.nodes[2].pending_reports == [3]
        assert eng.nodes[2].parent is None
        post_attack = [f for f in packet_fates(tr) if f.src == 2 and f.emitted_at >= 10.5]
        assert post_attack and all(f.outcome == DROP_NO_PARENT for f in post_attack)

    def test_report_dropped_by_sinkhole_but_both_detected_via_other_paths(self):
        # Two sinkholes: 3 is node 4's parent, 2 is further out. Node 4
        # reports 2 first and that report dies inside 3; node 5 reports 2
        # independently and node 4 reports 3 after re-parenting, so the
        # root still ends up blacklisting both.
        edges = [(0, 1), (1, 3), (3, 4), (4, 2), (2, 5), (5, 1), (5, 6), (6, 4)]
        topo = Topology.from_edges(7, edges, root_id=0, attackers=(2, 3))
        cfg = ScenarioConfig(node_count=7, duration_s=40.0, attack_start_s=10.0, seed=1)
        eng = Engine(cfg, topology=topo, record_events=True)
        tr = eng.run()
        drops = [e for e in tr.events if e[0] == "report_drop"]
        assert [(e[2], e[3], e[4]) for e in drops] == [(3, 2, "sinkhole")]
        assert drops[0][1] == pytest.approx(10.01)
        assert tr.root_blacklist == frozenset({2, 3})
        # attackers forward but never originate reports
        reporters = {e[2] for e in tr.events if e[0] == "report_tx"}
        assert reporters.isdisjoint({2, 3})
        assert eng.nodes[4].parent == 6
        # blacklist broadcast reached every benign node
        for node in eng.nodes:
            if node.id not in (2, 3):
                assert node.blacklist >= {2, 3}

    def test_no_traffic_to_blacklisted_nodes_after_broadcast(self):
        edges = [(0, 1), (1, 3), (3, 4), (4, 2), (2, 5), (5, 1), (5, 6), (6, 4)]
        topo = Topology.from_edges(7, edges, root_id=0, attackers=(2, 3))
        cfg = ScenarioConfig(node_count=7, duration_s=40.0, attack_start_s=10.0, seed=1)
        tr = run(cfg, topology=topo, record_events=True)
        # generous settle window: one second past the attack start
        hops_to_suspects = [e for e in tr.events
                            if e[0] == "data_hop" and e[3] in (2, 3) and e[1] > 11.0]
        assert hops_to_suspects == []

    def test_pending_report_flushed_on_parent_acquisition(self):
        eng = Engine(tiny_cfg(node_count=4), topology=chain_topology(4))
        node = eng.nodes[2]
        node.parent = None
        eng._queue_report(1.0, node, 9)
        assert node.pending_reports == [9]
        node.parent = 1
        eng._flush_pending(node, 2.0)
        assert node.pending_reports == []
        assert any(entry[2] == Engine._on_report_rx for entry in eng._heap)

    def test_duplicate_detection_reports_suppressed(self):
        edges = [(0, 1), (1, 3), (3, 4), (4, 2), (2, 5), (5, 1), (5, 6), (6, 4)]
        topo = Topology.from_edges(7, edges, root_id=0, attackers=(2, 3))
        cfg = ScenarioConfig(node_count=7, duration_s=40.0, attack_start_s=10.0, seed=1)
        tr = run(cfg, topology=topo, record_events=True)
        # 60 fake DIOs per sinkhole, yet one report per (reporter, suspect)
        tx = [(e[2], e[3]) for e in tr.events if e[0] == "report_tx"]
        assert tx and len(tx) == len(set(tx))
        # white-box: a second detection of the same suspect queues nothing
        eng = Engine(tiny_cfg(node_count=4), topology=chain_topology(4))
        node = eng.nodes[2]
        before = len(eng._heap)
        eng._queue_report(1.0, node, 9)
        eng._queue_report(2.0, node, 9)
        assert len(eng._heap) == before + 1


class TestInvariants:
    def test_parent_graph_is_forest_rooted_at_root(self):
        cfg = ScenarioConfig(node_count=100, malicious_fraction=0.3,
                             duration_s=60.0, seed=6)
        eng = Engine(cfg)
        eng.run()
        root = eng.topology.root_id
        for node in eng.nodes:
            seen = set()
            u = node.id
            while u is not None and u != root:
                assert u not in seen, "routing loop detected"
                seen.add(u)
                u = eng.nodes[u].parent

    def test_parent_change_records_replay_to_final_parents(self):
        # Flooder seed 4 moves nodes off the flooder on flood verdicts; the
        # sinkhole run moves them on rank verdicts, floods and DIOs.
        variants = [
            ScenarioConfig(node_count=25, area=(60.0, 60.0), malicious_fraction=0.04,
                           attack_type="flooder", duration_s=40.0, seed=4),
            ScenarioConfig(node_count=60, area=(80.0, 80.0), malicious_fraction=0.3,
                           duration_s=40.0, seed=5),
        ]
        for cfg in variants:
            eng = Engine(cfg, record_events=True)
            parents = [node.parent for node in eng.nodes]
            tr = eng.run()
            for e in tr.events:
                if e[0] == "parent_change":
                    assert e[3] == parents[e[2]]
                    parents[e[2]] = e[4]
            assert parents == [node.parent for node in eng.nodes]

    def test_initial_ranks_decrease_by_one_toward_root(self):
        eng = Engine(ScenarioConfig(node_count=50, duration_s=1.0, seed=2),
                     record_events=True)
        for node in eng.nodes:
            if node.parent is not None:
                parent = eng.nodes[node.parent]
                assert node.rank == parent.rank + 1
                handle(eng, Engine._on_dio_rx, 0.5, (node.id,), node.parent, parent.rank)
                assert eng.evlog[-1][6] == 1  # receiver_dv

    def test_replay_equality(self):
        cfg = ScenarioConfig(node_count=40, malicious_fraction=0.2,
                             duration_s=60.0, seed=12)
        a = run(cfg, record_events=True)
        b = run(cfg, record_events=True)
        assert packet_fates(a) == packet_fates(b)
        assert a.verdicts == b.verdicts
        assert a.events == b.events
        assert a.drops == b.drops
        assert a.root_blacklist == b.root_blacklist
        # causality: the processed-event log never steps backwards in time
        times = [e[1] for e in a.events]
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))

    def test_conservation_across_scenario_variants(self):
        variants = [
            ScenarioConfig(node_count=30, area=(60.0, 60.0), duration_s=40.0, seed=3),
            ScenarioConfig(node_count=30, area=(60.0, 60.0), malicious_fraction=0.2,
                           duration_s=40.0, seed=3),
            ScenarioConfig(node_count=30, area=(60.0, 60.0), malicious_fraction=0.2,
                           duration_s=40.0, seed=3, detection_enabled=False),
            ScenarioConfig(node_count=30, area=(60.0, 60.0), malicious_fraction=0.2,
                           duration_s=40.0, seed=3, sinkhole_data_plane="alter"),
            ScenarioConfig(node_count=25, area=(60.0, 60.0), malicious_fraction=0.04,
                           duration_s=40.0, seed=3, attack_type="flooder"),
        ]
        for cfg in variants:
            tr = run(cfg)
            audit_conservation(tr)
            assert tr.emitted == tr.delivered + sum(tr.drops.values())


class TestStallGuard:
    def test_drained_queue_with_timers_raises(self):
        eng = Engine(tiny_cfg(duration_s=50.0))
        eng._heap.clear()
        assert eng._has_timers
        with pytest.raises(EngineStall):
            eng.run()


ROOT_PUSH_TIMES = (1.0, 2.0, 3.0)


@st.composite
def queue_scripts(draw):
    """Pushes as ``(parent, how, handler)``. A push without a parent is made
    before ``run()`` at ``ROOT_PUSH_TIMES[how]``; the others are made by
    their parent's handler: at its own time (how 0), one second later
    (how 1) or as a send (how 2)."""
    ops = []
    for i in range(draw(st.integers(1, 30))):
        parent = draw(st.none() | st.integers(0, i - 1)) if i else None
        ops.append((parent, draw(st.integers(0, 2)), draw(st.integers(0, 2))))
    return ops


class TestQueue:
    @settings(max_examples=200)
    @given(queue_scripts())
    def test_coalesced_entries_run_in_push_order(self, ops):
        eng = Engine(tiny_cfg(node_count=4), topology=star_topology(3))
        eng._heap.clear()
        eng._open.clear()
        latency = eng.cfg.hop_latency_s
        children = defaultdict(list)
        for i, (parent, _, _) in enumerate(ops):
            if parent is not None:
                children[parent].append(i)
        ran = []

        def make_handler():
            def handler(engine, t, items):
                for op, _b, _c in items:
                    # _open only ever names entries still in the queue.
                    queued = {id(e) for e in engine._heap}
                    assert all(id(e) in queued for e in engine._open.values())
                    ran.append((t, op))
                    for child in children[op]:
                        _, how, h = ops[child]
                        if how == 2:
                            engine._send(t, handlers[h], child, 0, 0)
                        else:
                            engine._push(t + how, handlers[h], child, 0, 0)
            return handler

        handlers = [make_handler() for _ in range(3)]
        for i, (parent, how, h) in enumerate(ops):
            if parent is None:
                eng._push(ROOT_PUSH_TIMES[how], handlers[h], i, 0, 0)
        # An entry at the horizon ends run() without the stall check.
        eng._push(eng.cfg.duration_s, handlers[0], None, 0, 0)
        eng.run()

        # The reference: one entry per push, run in (t, push order).
        queue, seq, expected = [], count(), []
        for i, (parent, how, _) in enumerate(ops):
            if parent is None:
                heappush(queue, (ROOT_PUSH_TIMES[how], next(seq), i))
        while queue:
            t, _, op = heappop(queue)
            expected.append((t, op))
            for child in children[op]:
                how = ops[child][1]
                heappush(queue, (t + latency if how == 2 else t + how, next(seq), child))
        assert ran == expected

    def test_setup_queues_one_entry_per_timer_kind(self):
        cfg = ScenarioConfig(node_count=100, duration_s=200.0, malicious_fraction=0.0)
        eng = Engine(cfg)
        every = list(range(cfg.node_count))
        sources = [nid for nid in every if not eng.nodes[nid].is_root]
        assert [(t, handler, items) for t, _, handler, items in sorted(eng._heap)] == [
            (0.0, Engine._on_traffic, [(nid, 0, 0) for nid in sources]),
            (cfg.hello_period_s, Engine._on_hello_timer, [(nid, 1, 0) for nid in every]),
            (cfg.dio_period_s, Engine._on_dio_timer, [(nid, 1, 0) for nid in every]),
            (eng.attack_start, Engine._on_calibrate, [(0, 0, 0)]),
        ]
        assert sorted(eng._open.values()) == sorted(eng._heap)


class TestLifetime:
    @pytest.mark.parametrize("record_events", [False, True])
    def test_finished_engine_is_freed_by_reference_counting(self, record_events):
        # The 20.0 s hellos arrive past the 20.002 s horizon, so their
        # entries are still queued when run() returns. They must not hold
        # the engine, or only the cyclic collector would free it.
        eng = Engine(tiny_cfg(duration_s=20.002), record_events=record_events)
        enabled = gc.isenabled()
        gc.disable()
        try:
            eng.run()
            assert eng._heap
            ref = weakref.ref(eng)
            del eng
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
