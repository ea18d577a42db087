import pytest

from conftest import chain_topology, star_topology, tiny_cfg
from rplsim.detector import MALICIOUS_RANK
from rplsim.engine import (
    DROP_ALTERED,
    DROP_NO_PARENT,
    DROP_SINKHOLE,
    EV_BCAST_RX,
    EV_DIO_RX,
    EV_HELLO_RX,
    Engine,
    run,
)
from rplsim.errors import EngineStall
from rplsim.metrics import audit_conservation
from rplsim.scenario import MobilitySpec, ScenarioConfig, TrafficSpec
from rplsim.topology import Topology


def run_chain(n, attackers=(), extra_edges=(), **overrides):
    topo = chain_topology(n, attackers=attackers, extra_edges=extra_edges)
    params = dict(node_count=n, malicious_fraction=0.0, duration_s=30.0,
                  attack_start_s=10.0, seed=1)
    params.update(overrides)
    cfg = ScenarioConfig(**params)
    return run(cfg, topology=topo, record_events=True)


def broadcast_entries(eng):
    return [e for e in eng._heap if e[2] in (EV_HELLO_RX, EV_DIO_RX, EV_BCAST_RX)]


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
            (lambda: eng._on_hello_timer(1.0, 0, 1), (EV_HELLO_RX, (2, 3), 0, 0)),
            (lambda: eng._on_dio_timer(10.0, 0, 1), (EV_DIO_RX, (1, 2, 3), 0, 0)),
            (lambda: eng._on_attack_dio(10.0, 1, 0), (EV_DIO_RX, (0, 4), 1, 0)),
            (lambda: eng._root_ingest(11.0, 1, 2), (EV_BCAST_RX, (1, 2, 3), 1, (1,))),
            (lambda: eng._on_bcast_rx(11.005, 2, 1, (1,)), (EV_BCAST_RX, (0,), 1, (1,))),
        ]
        for send, expected in sends:
            before = broadcast_entries(eng)
            send()
            new = [e for e in broadcast_entries(eng) if e not in before]
            assert len(new) == 1
            assert new[0][2:] == expected

    def test_no_hello_entry_when_no_neighbor_runs_a_detector(self):
        eng = Engine(tiny_cfg(node_count=4, detection_enabled=False),
                     topology=star_topology(3))
        eng._heap.clear()
        eng._on_hello_timer(49.0, 0, 49)
        assert broadcast_entries(eng) == []

    def test_receivers_get_it_one_latency_later_in_neighbor_order(self):
        eng = Engine(tiny_cfg(node_count=4), topology=star_topology(3))
        eng._heap.clear()
        eng.nodes[0].neighbors = (3, 1, 2)
        received = []
        eng._on_dio_rx = lambda t, receiver, sender, adv: received.append(
            (t, receiver, sender, adv))
        eng._on_dio_timer(40.0, 0, 4)  # the root's last DIO before the horizon
        eng.run()
        rx_t = 40.0 + eng.cfg.hop_latency_s
        assert received == [(rx_t, 3, 0, 0), (rx_t, 1, 0, 0), (rx_t, 2, 0, 0)]

    def test_entry_keeps_the_neighbor_tuple_from_send_time(self):
        eng = Engine(tiny_cfg(node_count=4), topology=star_topology(3))
        eng._heap.clear()
        received = []
        eng._on_dio_rx = lambda t, receiver, sender, adv: received.append(receiver)
        eng._on_dio_timer(40.0, 0, 4)  # the root's last DIO before the horizon
        eng.nodes[0].neighbors = (1,)  # the sender's links change in flight
        eng.run()
        assert received == [1, 2, 3]

    def test_flood_skips_receivers_that_have_seen_it(self):
        eng = Engine(tiny_cfg(node_count=4), topology=star_topology(3))
        eng.nodes[2].bcast_seen = 1
        received = []
        eng._on_bcast_rx = lambda t, receiver, bseq, suspects: received.append(receiver)
        eng._root_ingest(1.0, 3, 1)
        eng.run()
        assert received == [1, 3]


class TestRunBasics:
    def test_zero_duration_empty_transcript(self):
        tr = run(tiny_cfg(duration_s=0.0))
        assert tr.emitted == 0
        assert tr.fates == []
        assert tr.verdicts == []
        audit_conservation(tr)

    def test_ten_node_benign_all_sources_all_delivered(self):
        cfg = ScenarioConfig(node_count=10, area=(30.0, 30.0), tx_range=20.0,
                             duration_s=100.0, traffic=TrafficSpec(1.0, "all"), seed=3)
        tr = run(cfg)
        assert tr.emitted == 1000
        assert len(tr.fates) == 1000
        assert tr.delivered == 1000
        assert tr.drops == {}
        audit_conservation(tr)

    def test_chain_packet_delivered_in_two_hops(self):
        tr = run_chain(3, duration_s=5.0)
        from_leaf = [f for f in tr.fates if f.src == 2]
        assert from_leaf and all(f.delivered_at is not None for f in from_leaf)
        assert {f.hops for f in from_leaf} == {2}

    def test_detection_disabled_produces_no_verdicts(self):
        tr = run_chain(4, attackers=(1,), detection_enabled=False)
        assert tr.verdicts == []
        assert tr.root_blacklist == frozenset()

    def test_slow_links_expire_packets(self):
        # 3 hops x 2 s per hop exceeds the 5 s packet lifetime
        tr = run_chain(4, duration_s=20.0, hop_latency_s=2.0)
        audit_conservation(tr)
        deep = [f for f in tr.fates if f.src == 3 and f.emitted_at < 14.0]
        assert deep and all(f.drop_reason == "timeout" for f in deep)
        near = [f for f in tr.fates if f.src == 1 and f.emitted_at < 14.0]
        assert near and all(f.delivered_at is not None for f in near)

    def test_ttl_bounds_path_length(self):
        tr = run_chain(3, duration_s=10.0, packet_ttl=1)
        audit_conservation(tr)
        assert {f.drop_reason for f in tr.fates if f.src == 2} == {"ttl"}
        assert all(f.delivered_at is not None for f in tr.fates if f.src == 1)


class TestSinkholeDataPlane:
    def test_packets_through_sinkhole_dropped_when_detection_off(self):
        # 0-1-2-3 chain, node 1 is the sinkhole: everything emitted by 2
        # and 3 after the attack starts dies at node 1.
        tr = run_chain(4, attackers=(1,), detection_enabled=False)
        audit_conservation(tr)
        for fate in tr.fates:
            if fate.emitted_at >= 10.0:
                assert fate.drop_reason == DROP_SINKHOLE
            else:
                assert fate.delivered_at is not None
        # 2 sources x 20 post-attack emissions
        assert tr.drops[DROP_SINKHOLE] == 40
        assert tr.delivered == 20

    def test_alter_mode_flags_corruption_at_root(self):
        tr = run_chain(4, attackers=(1,), detection_enabled=False,
                       sinkhole_data_plane="alter")
        audit_conservation(tr)
        assert tr.drops[DROP_ALTERED] == 40
        assert tr.delivered == 20
        altered = [f for f in tr.fates if f.drop_reason == DROP_ALTERED]
        assert all(f.corrupted for f in altered)

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
        assert eng.nodes[2].rt.parent_id is None
        post_attack = [f for f in tr.fates if f.src == 2 and f.emitted_at >= 10.5]
        assert post_attack and all(f.drop_reason == DROP_NO_PARENT for f in post_attack)

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
        assert eng.nodes[4].rt.parent_id == 6
        # blacklist broadcast reached every benign node
        for node in eng.nodes:
            if node.id not in (2, 3):
                assert node.rt.blacklist >= {2, 3}

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
        node.rt.parent_id = None
        eng._queue_report(1.0, node, 9)
        assert node.pending_reports == [9]
        node.rt.parent_id = 1
        eng._flush_pending(node, 2.0)
        assert node.pending_reports == []
        assert any(entry[2] == 7 for entry in eng._heap)  # EV_REPORT_RX scheduled

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
                u = eng.nodes[u].rt.parent_id

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
            parents = [node.rt.parent_id for node in eng.nodes]
            tr = eng.run()
            for e in tr.events:
                if e[0] == "parent_change":
                    assert e[3] == parents[e[2]]
                    parents[e[2]] = e[4]
            assert parents == [node.rt.parent_id for node in eng.nodes]

    def test_initial_ranks_decrease_by_one_toward_root(self):
        eng = Engine(ScenarioConfig(node_count=50, duration_s=1.0, seed=2))
        for node in eng.nodes:
            if node.rt.parent_id is not None:
                parent = eng.nodes[node.rt.parent_id]
                assert node.rt.my_rank == parent.rt.my_rank + 1
                assert node.rt.dv_rank == 1

    def test_replay_equality(self):
        cfg = ScenarioConfig(node_count=40, malicious_fraction=0.2,
                             duration_s=60.0, seed=12)
        a = run(cfg, record_events=True)
        b = run(cfg, record_events=True)
        assert a.fates == b.fates
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

    def test_mobility_smoke_deterministic_and_conserving(self):
        cfg = ScenarioConfig(node_count=15, area=(50.0, 50.0), duration_s=20.0,
                             mobility=MobilitySpec("random_waypoint", 3.0), seed=5)
        a = run(cfg)
        b = run(cfg)
        audit_conservation(a)
        assert a.fates == b.fates
        assert a.drops == b.drops


class TestStallGuard:
    def test_drained_queue_with_timers_raises(self):
        eng = Engine(tiny_cfg(duration_s=50.0))
        eng._heap.clear()
        assert eng._has_timers
        with pytest.raises(EngineStall):
            eng.run()
