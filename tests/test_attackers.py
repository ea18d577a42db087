import pytest

from rplsim.attackers import rreq_count_in_window
from rplsim.engine import Engine, run
from rplsim.errors import InvalidConfig
from rplsim.scenario import ScenarioConfig

from conftest import chain_topology, packet_fates


def forged_dios(start, interval, duration, rank=0):
    """Run a 0-1-2-3-4 chain whose leaf 4 (true rank 4) is a sinkhole and
    return the transcript's attack_dio records and the DIOs node 3 heard."""
    cfg = ScenarioConfig(node_count=5, duration_s=duration, attack_start_s=start,
                         attack_interval_s=interval, sinkhole_advertised_rank=rank, seed=1)
    events = run(cfg, topology=chain_topology(5, attackers=(4,)), record_events=True).events
    heard = [e for e in events if e[0] == "dio_rx" and e[2] == 3 and e[3] == 4]
    return [e for e in events if e[0] == "attack_dio"], heard


def relayed_fates(plane):
    """Run the chain 0-1-2-3 with detection off and node 2 a sinkhole from
    5 s on, and return the fates of node 3's packets, all relayed by node 2.
    Node 3 emits at 0, 1, ..., 9 s."""
    cfg = ScenarioConfig(node_count=4, duration_s=10.0, attack_start_s=5.0,
                         sinkhole_data_plane=plane, detection_enabled=False, seed=1)
    tr = run(cfg, topology=chain_topology(4, attackers=(2,)), record_events=True)
    return tr, [f for f in packet_fates(tr) if f.src == 3]


class TestSinkhole:
    def test_emitted_dio_carries_the_fake_rank(self):
        emitted, heard = forged_dios(start=10.0, interval=4.0, duration=20.0, rank=0)
        assert emitted[0] == ("attack_dio", 10.0, 4, 0)
        assert heard[0][1] == 10.0 + 0.005  # one hop latency later
        assert heard[0][4] == 0

    def test_every_emission_identical_rank(self):
        emitted, heard = forged_dios(start=10.0, interval=0.5, duration=60.0, rank=2)
        assert len(emitted) == 100
        assert {e[3] for e in emitted} == {2}
        assert {e[4] for e in heard if e[1] > 10.0} == {2}

    def test_grid_count_over_full_run(self):
        # interval 4 s over 1000 s, starting immediately: 250 emissions
        emitted, _ = forged_dios(start=0.0, interval=4.0, duration=1000.0)
        assert len(emitted) == 250
        assert [e[1] for e in emitted] == [4.0 * k for k in range(250)]

    def test_no_emissions_before_attack_start(self):
        assert forged_dios(start=100.0, interval=4.0, duration=50.0)[0] == []
        emitted, _ = forged_dios(start=10.0, interval=4.0, duration=50.0)
        assert min(e[1] for e in emitted) == 10.0

    def test_partial_span_rounds_up_to_grid(self):
        # emissions at 10, 14, 18 for a 20 s run
        emitted, _ = forged_dios(start=10.0, interval=4.0, duration=20.0)
        assert [e[1] for e in emitted] == [10.0, 14.0, 18.0]

    def test_drop_mode(self):
        tr, fates = relayed_fates("drop")
        assert [f.outcome for f in fates] == ["delivered"] * 5 + ["sinkhole"] * 5
        assert [f.hops for f in fates[5:]] == [1] * 5  # swallowed on arrival at node 2
        assert tr.drops == {"sinkhole": 5}

    def test_alter_mode_corrupts_and_forwards(self):
        tr, fates = relayed_fates("alter")
        assert [f.outcome for f in fates] == ["delivered"] * 5 + ["altered"] * 5
        # corrupted packets still travel all three hops and die at the root
        assert [(f.outcome, f.hops) for f in fates[5:]] == [("altered", 3)] * 5
        assert tr.drops == {"altered": 5}

    def test_advertised_rank_must_undercut_true_rank(self):
        # Node 3 of the chain 0-1-2-3 has true rank 3.
        def build(rank):
            cfg = ScenarioConfig(node_count=4, duration_s=10.0,
                                 sinkhole_advertised_rank=rank, seed=1)
            return Engine(cfg, topology=chain_topology(4, attackers=(3,)))

        build(2)
        with pytest.raises(InvalidConfig, match="sinkhole 3 advertises rank 3"):
            build(3)


class TestFlooder:
    # rreq_count_in_window(start, end, benign_rate, storm_rate, storm_start)
    def test_count_is_rate_times_window(self):
        assert rreq_count_in_window(0.0, 2.0, 0.0, 10.0, 0.0) == 20

    def test_empty_window(self):
        assert rreq_count_in_window(5.0, 5.0, 1.0, 10.0, 0.0) == 0
        assert rreq_count_in_window(6.0, 5.0, 1.0, 10.0, 0.0) == 0

    def test_window_before_attack_counts_benign_only(self):
        assert rreq_count_in_window(10.0, 11.0, 1.0, 10.0, 50.0) == 1

    def test_window_straddling_attack_start(self):
        # benign 1/s over [10, 11) plus storm over [10.5, 11)
        assert rreq_count_in_window(10.0, 11.0, 1.0, 10.0, 10.5) == 1 + 5

    def test_window_fully_inside_attack(self):
        assert rreq_count_in_window(20.0, 21.0, 1.0, 10.0, 0.0) == 11

    def test_benign_node_has_no_storm(self):
        assert rreq_count_in_window(0.0, 1.0, 1.0) == 1

    def test_rate_not_above_benign_rejected_at_config_load(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(attack_type="flooder", malicious_fraction=0.1,
                           benign_rreq_rate_per_s=10.0, flooder_rreq_rate_per_s=10.0)
