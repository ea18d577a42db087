import gc
import weakref
from collections import defaultdict
from heapq import heappop, heappush
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    chain_topology,
    clear_queue,
    handle,
    packet_fates,
    queued,
    star_topology,
    tiny_cfg,
    topology_from_edges,
)
from rplsim.detector import DV_RANK, MALICIOUS_FLOOD, MALICIOUS_RANK
from rplsim.engine import (
    DROP_ALTERED,
    DROP_NO_PARENT,
    DROP_SINKHOLE,
    Engine,
    run,
)
from rplsim.errors import EngineStall, InvalidConfig
from rplsim.metrics import audit_conservation
from rplsim.scenario import ScenarioConfig, TrafficSpec


def run_chain(n, attackers=(), extra_edges=(), **overrides):
    topo = chain_topology(n, attackers=attackers, extra_edges=extra_edges)
    params = dict(node_count=n, malicious_fraction=0.0, duration_s=30.0,
                  attack_start_s=10.0, seed=1)
    params.update(overrides)
    cfg = ScenarioConfig(**params)
    return run(cfg, topology=topo, record_events=True)


def broadcast_entries(eng):
    """Every queued broadcast item as ``(handler, a, b, c)``, in run order."""
    return [(handler,) + item for _, handler, items in queued(eng)
            if handler in (Engine._on_hello_rx, Engine._on_dio_rx, Engine._on_bcast_rx)
            for item in items]


def two_sinkholes():
    """A traced 40 s run of seven nodes, two of them sinkholes: 3 is node
    4's parent, and 2 sits further out. Returns the engine and transcript."""
    edges = [(0, 1), (1, 3), (3, 4), (4, 2), (2, 5), (5, 1), (5, 6), (6, 4)]
    cfg = ScenarioConfig(node_count=7, duration_s=40.0, attack_start_s=10.0, seed=1)
    eng = Engine(cfg, topology_from_edges(7, edges, root_id=0, attackers=(2, 3)),
                 record_events=True)
    return eng, eng.run()


class TestBroadcast:
    def test_each_broadcast_pushes_exactly_one_heap_entry(self):
        # Node 1 is a sinkhole next to the root; the root has 3 neighbors.
        topo = topology_from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4)], root_id=0,
                                    attackers=(1,))
        cfg = ScenarioConfig(node_count=5, duration_s=30.0, attack_start_s=10.0, seed=1)
        eng = Engine(cfg, topology=topo)
        clear_queue(eng)
        sends = [
            # a hello goes only to neighbors that run a detector
            (lambda: handle(eng, Engine._on_hello_timer, 1.0, (0,), 1),
             (Engine._on_hello_rx, (2, 3), 0, 0)),
            (lambda: handle(eng, Engine._on_dio_timer, 10.0, (0,), 1),
             (Engine._on_dio_rx, (1, 2, 3), 0, 0)),
            (lambda: handle(eng, Engine._on_attack_dio, 10.0, (1,)),
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
        clear_queue(eng)
        handle(eng, Engine._on_hello_timer, 49.0, (0,), 49)
        assert broadcast_entries(eng) == []

    def test_receivers_get_it_one_latency_later_in_neighbor_order(self):
        eng = Engine(tiny_cfg(node_count=4), topology=star_topology(3), record_events=True)
        clear_queue(eng)
        eng.nodes[0].neighbors = (3, 1, 2)
        handle(eng, Engine._on_dio_timer, 40.0, (0,), 4)  # the root's last DIO before the horizon
        received = [e[1:5] for e in eng.run().events if e[0] == "dio_rx"]
        rx_t = 40.0 + eng.cfg.hop_latency_s
        assert received == [(rx_t, 3, 0, 0), (rx_t, 1, 0, 0), (rx_t, 2, 0, 0)]

    def test_entry_keeps_the_neighbor_tuple_from_send_time(self):
        eng = Engine(tiny_cfg(node_count=4), topology=star_topology(3), record_events=True)
        clear_queue(eng)
        handle(eng, Engine._on_dio_timer, 40.0, (0,), 4)  # the root's last DIO before the horizon
        eng.nodes[0].neighbors = (1,)  # the sender's links change in flight
        received = [e[2] for e in eng.run().events if e[0] == "dio_rx"]
        assert received == [1, 2, 3]

    def test_flood_skips_receivers_that_have_seen_it(self):
        # The root's neighbors are 1, 2 and 3; the suspect 4 sits behind 3,
        # so every first-hop reception that is not skipped is logged.
        topo = topology_from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)], root_id=0)
        eng = Engine(tiny_cfg(node_count=5), topology=topo, record_events=True)
        eng._root_ingest(1.0, 4, 1)
        handle(eng, Engine._on_bcast_rx, 1.0, 1 << 2, 1)  # node 2 takes flood 1 first
        assert not eng._unseen[1] & 1 << 2  # node 2 has taken flood 1
        received = [e[2] for e in eng.run().events
                    if e[0] == "blacklist_rx" and e[1] == 1.0 + eng.cfg.hop_latency_s]
        assert received == [1, 3]

    def test_neighbor_masks_are_built_at_the_first_flood(self):
        topo = topology_from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)], root_id=0)
        eng = Engine(tiny_cfg(node_count=5), topology=topo)
        eng.run()
        assert eng._masks is None  # attack-free: no flood, no masks
        eng._root_ingest(1.0, 4, 1)
        assert eng._masks == [0b1110, 0b1, 0b1, 0b10001, 0b1000]


class TestConstantWorkReceptions:
    def test_each_flood_reception_applies_its_one_new_suspect(self):
        # Three floods leave the root at once and reach every leaf in flood
        # order; a leaf stops taking them once one names it.
        eng = Engine(tiny_cfg(node_count=6), topology=star_topology(5), record_events=True)
        for suspect in (3, 1, 5):
            eng._root_ingest(1.0, suspect, 2)
        taken = defaultdict(list)
        for e in eng.run().events:
            if e[0] == "blacklist_rx":
                assert e[4]  # each flood is news to its receiver
                taken[e[2]].append(e[3])
        assert taken == {1: [1], 2: [1, 2, 3], 4: [1, 2, 3], 5: [1, 2]}
        assert eng.nodes[2].blacklist == eng.nodes[4].blacklist == {1, 3, 5}

    def test_flood_reaching_a_node_before_the_previous_one_stalls(self):
        eng = Engine(tiny_cfg(node_count=6), topology=star_topology(5))
        eng._root_ingest(1.0, 3, 2)
        eng._root_ingest(1.0, 1, 2)
        with pytest.raises(EngineStall):
            handle(eng, Engine._on_bcast_rx, 1.005, 1 << 2, 2)  # node 2 missed flood 1

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
        start = tr.cfg.resolved_attack_start()
        late = [e for e in tr.events if e[0] == "hello_rx" and e[1] > start]
        assert sorted((e[1], e[2], e[3]) for e in late) == [
            x for x in expected if x[0] > start]
        # untraced, every one of these hellos would stop at the sender
        assert late and all(e[6] <= eng.nodes[e[3]].min_threshold for e in late)

    def test_blacklist_not_naming_the_parent_leaves_it(self):
        eng = Engine(tiny_cfg(node_count=4), topology=chain_topology(4))
        node = eng.nodes[2]
        with mock.patch("rplsim.engine.select_parent", side_effect=AssertionError):
            eng._blacklist(1.0, node, 3)  # a re-selection would raise
        assert (node.parent, node.rank, node.blacklist) == (1, 2, {3})
        assert 3 not in node.table


class TestRunBasics:
    def test_zero_duration_empty_transcript(self):
        tr = run(tiny_cfg(duration_s=0.0), record_events=True)
        assert tr.emitted == 0
        assert packet_fates(tr) == []
        assert tr.verdicts == []
        audit_conservation(tr)

    def test_topology_node_count_must_match_the_config(self):
        with pytest.raises(InvalidConfig, match=r"^topology has 5 nodes, config says 4$"):
            Engine(tiny_cfg(node_count=4), topology=star_topology(4))

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

    def test_packet_age_is_hops_times_latency(self):
        # A packet h hops out is h * 0.1 s old, whenever it was sent:
        # 3 * 0.1 > 0.3 in floats, so every packet of node 3 times out at
        # the root, and every packet of node 2 (0.2 s old there) arrives.
        tr = run_chain(5, duration_s=60.0, hop_latency_s=0.1, packet_timeout_s=0.3,
                       detection_enabled=False)
        fates = packet_fates(tr)
        assert [f.outcome for f in fates if f.src == 3] == ["timeout"] * 60
        assert [f.outcome for f in fates if f.src == 2] == ["delivered"] * 60

    def test_packet_exactly_as_old_as_the_timeout_is_delivered(self):
        # Node 2's packets reach the root 2 * 0.5 s = 1 s old, which is not
        # past the 1 s timeout; the last one is due at the 20 s horizon.
        tr = run_chain(3, duration_s=20.0, hop_latency_s=0.5, packet_timeout_s=1.0)
        assert ([f.outcome for f in packet_fates(tr) if f.src == 2]
                == ["delivered"] * 19 + ["sim_end"])

    def test_constant_rate_node_sends_one_count_per_window(self):
        # Every hello window is one 0.3 s period long, so a node sending
        # 5 RREQ/s counts round(5 * 0.3) = 2 in each, wherever the window
        # falls on the float grid.
        tr = run_chain(3, duration_s=30.0, hello_period_s=0.3, benign_rreq_rate_per_s=5.0)
        counts = [e[3] for e in tr.events if e[0] == "hello_tx" and e[2] == 1]
        assert counts == [2] * 99

    def test_ttl_bounds_path_length(self):
        tr = run_chain(3, duration_s=10.0, packet_ttl=1)
        audit_conservation(tr)
        assert {f.outcome for f in packet_fates(tr) if f.src == 2} == {"ttl"}
        assert all(f.outcome == "delivered" for f in packet_fates(tr) if f.src == 1)

    def test_packet_due_at_the_horizon_ends_there(self):
        # Chain 0-1-2 with 0.5 s hops: node 2's packet of 9 s is due at the
        # root at 10 s, the horizon, where its entry is the only data entry
        # left. Every other entry is a grid tick at or past the horizon.
        cfg = ScenarioConfig(node_count=3, duration_s=10.0, hop_latency_s=0.5, seed=1)
        eng = Engine(cfg, topology=chain_topology(3), record_events=True)
        tr = eng.run()
        grids = (Engine._on_dio_timer, Engine._on_hello_timer, Engine._on_traffic,
                 Engine._on_attack_dio)
        data = [(t, handler) for t, handler, _ in queued(eng) if handler is Engine._on_data_rx]
        assert data == [(10.0, Engine._on_data_rx)]
        assert all(handler in grids and t >= 10.0
                   for t, handler, _ in queued(eng) if handler is not Engine._on_data_rx)
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
        topo = topology_from_edges(4, [(0, 1), (1, 3), (3, 2)], root_id=0,
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
        eng, tr = two_sinkholes()
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
        _, tr = two_sinkholes()
        # generous settle window: one second past the attack start
        hops_to_suspects = [e for e in tr.events
                            if e[0] == "data_hop" and e[3] in (2, 3) and e[1] > 11.0]
        assert hops_to_suspects == []

    def test_pending_report_flushed_on_parent_acquisition(self):
        eng = Engine(tiny_cfg(node_count=4), topology=chain_topology(4))
        node = eng.nodes[2]
        node.parent = None
        row = (1.0, 2, 9, MALICIOUS_RANK, DV_RANK, 9, None, None)
        eng._flag(1.0, node, 9, row)
        assert eng.verdicts[-1] == row and 9 in node.blacklist
        assert node.pending_reports == [9]
        node.parent = 1
        eng._flush_pending(node, 2.0)
        assert node.pending_reports == []
        assert any(handler == Engine._on_report_rx for _, handler, _ in queued(eng))

    def test_root_ingests_its_own_verdict(self):
        # With a fixed threshold the root runs the detector too; its verdict
        # goes straight to its blacklist and the first flood, not to a report.
        eng = Engine(tiny_cfg(node_count=4, apt_threshold=2.0), topology=star_topology(3))
        handle(eng, Engine._on_hello_rx, 1.0, (0,), 1, 5)
        assert eng.verdicts[-1][:4] == (1.0, 0, 1, MALICIOUS_FLOOD)
        assert (eng.flood_order, eng.named_at) == ([1], {1: 1})
        assert eng.nodes[0].pending_reports == []
        assert any(handler == Engine._on_bcast_rx for _, handler, _ in queued(eng))

    def test_duplicate_detection_reports_suppressed(self):
        _, tr = two_sinkholes()
        # 60 fake DIOs per sinkhole, yet one report per (reporter, suspect)
        tx = [(e[2], e[3]) for e in tr.events if e[0] == "report_tx"]
        assert tx and len(tx) == len(set(tx))


class TestInvariants:
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


class TestStallGuard:
    def test_drained_queue_with_timers_raises(self):
        eng = Engine(tiny_cfg(duration_s=50.0))
        clear_queue(eng)
        with pytest.raises(EngineStall):
            eng.run()

    def test_drained_queue_raises_near_the_horizon(self):
        # Only traffic ticks before the 0.5 s horizon, so the queue would
        # drain within one traffic period of it.
        eng = Engine(tiny_cfg(duration_s=0.5))
        clear_queue(eng)
        with pytest.raises(EngineStall):
            eng.run()

    def test_run_without_a_periodic_timer_reaches_the_horizon(self):
        # The node that is not the root is the sinkhole, so no node sources
        # traffic, and the DIO and hello ticks at 100 s are queued but never
        # run. Only the forged DIOs run, until 9.0 s, and the last event is
        # their reception at 9.005 s.
        cfg = ScenarioConfig(node_count=2, area=(10.0, 10.0), malicious_fraction=0.5,
                             duration_s=10.0, dio_period_s=100.0, hello_period_s=100.0,
                             traffic=TrafficSpec(period_s=0.5))
        eng = Engine(cfg, record_events=True)
        assert eng.topology.attacker_set == {1 - eng.topology.root_id}
        tr = eng.run()
        assert (tr.events[-1][1], tr.end_time_s, tr.emitted) == (9.005, 10.0, 0)
        assert [e[1] for e in tr.events if e[0] == "attack_dio"] == [float(t) for t in range(1, 10)]


ROOT_PUSH_TIMES = (1.0, 2.0, 3.0)


@st.composite
def queue_scripts(draw):
    """Pushes as ``(parent, how, handler)``. A push without a parent is made
    before ``run()`` at ``ROOT_PUSH_TIMES[how]``; the others are made by
    their parent's handler: at its own time (how 0), one second later
    (how 1) or one hop latency later, as a send (how 2)."""
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
        clear_queue(eng)
        latency = eng.cfg.hop_latency_s
        children = defaultdict(list)
        for i, (parent, _, _) in enumerate(ops):
            if parent is not None:
                children[parent].append(i)
        ran = []

        def make_handler(kind):
            def handler(engine, t, items):
                for op, _b, _c in items:
                    # Every queued time has one bucket, and no bucket is empty.
                    assert sorted(engine._times) == sorted(engine._due)
                    assert all(engine._due.values())
                    ran.append((t, op, kind))  # each item runs under its own handler
                    for child in children[op]:
                        _, how, h = ops[child]
                        engine._push(t + latency if how == 2 else t + how, handlers[h],
                                     child, 0, 0)
            return handler

        handlers = [make_handler(kind) for kind in range(3)]
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
            expected.append((t, op, ops[op][2]))
            for child in children[op]:
                how = ops[child][1]
                heappush(queue, (t + latency if how == 2 else t + how, next(seq), child))
        assert ran == expected

    def test_setup_queues_one_entry_per_timer_kind(self):
        cfg = ScenarioConfig(node_count=100, duration_s=200.0, malicious_fraction=0.0)
        eng = Engine(cfg)
        every = tuple(range(cfg.node_count))
        sources = tuple(nid for nid in every if not eng.nodes[nid].is_root)
        assert queued(eng) == [
            (0.0, Engine._on_traffic, [(sources, 0, 0)]),
            (cfg.hello_period_s, Engine._on_hello_timer, [(every, 1, 0)]),
            (cfg.dio_period_s, Engine._on_dio_timer, [(every, 1, 0)]),
            (eng.attack_start, Engine._on_calibrate, [(0, 0, 0)]),
        ]
        assert sorted(eng._times) == sorted(eng._due)

    def test_tick_runs_after_the_messages_of_the_tick_before(self):
        # With the hop latency equal to the hello period, tick 1's hellos
        # arrive at 2.0 s, where tick 2 is due. The whole tick is one item,
        # queued after every hello it sent, so all of them are heard first.
        tr = run_chain(3, duration_s=4.0, hello_period_s=1.0, hop_latency_s=1.0)
        at_2 = [(e[0], e[2], e[3]) if e[0] == "hello_rx" else (e[0], e[2])
                for e in tr.events if e[0] in ("hello_rx", "hello_tx") and e[1] == 2.0]
        assert at_2 == [("hello_rx", 1, 0), ("hello_rx", 0, 1), ("hello_rx", 2, 1),
                        ("hello_rx", 1, 2), ("hello_tx", 0), ("hello_tx", 1), ("hello_tx", 2)]


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
            assert eng._due
            ref = weakref.ref(eng)
            del eng
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
