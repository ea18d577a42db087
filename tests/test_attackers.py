import pytest

from rplsim.attackers import (
    DATA_ALTERED,
    DATA_DROPPED,
    FlooderBehavior,
    SinkholeBehavior,
    rreq_count_in_window,
    sinkhole_handle_data,
    validate_sinkhole,
)
from rplsim.engine import PacketFate, run
from rplsim.errors import InvalidConfig
from rplsim.scenario import ScenarioConfig

from conftest import chain_topology


def sinkhole(start=0.0, interval=4.0, rank=0, plane="drop"):
    return SinkholeBehavior(node_id=5, attack_start_s=start, attack_interval_s=interval,
                            advertised_rank=rank, data_plane=plane)


def forged_dios(start, interval, duration, rank=0):
    """Run a 0-1-2-3-4 chain whose leaf 4 (true rank 4) is a sinkhole and
    return the transcript's attack_dio records and the DIOs node 3 heard."""
    cfg = ScenarioConfig(node_count=5, duration_s=duration, attack_start_s=start,
                         attack_interval_s=interval, sinkhole_advertised_rank=rank, seed=1)
    events = run(cfg, topology=chain_topology(5, attackers=(4,)), record_events=True).events
    heard = [e for e in events if e[0] == "dio_rx" and e[2] == 3 and e[3] == 4]
    return [e for e in events if e[0] == "attack_dio"], heard


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
        pkt = PacketFate(0, 1, 0.0)
        assert sinkhole_handle_data(sinkhole(plane="drop"), pkt) == DATA_DROPPED
        assert not pkt.corrupted

    def test_alter_mode_corrupts_and_forwards(self):
        pkt = PacketFate(0, 1, 0.0)
        assert sinkhole_handle_data(sinkhole(plane="alter"), pkt) == DATA_ALTERED
        assert pkt.corrupted

    def test_advertised_rank_must_undercut_true_rank(self):
        validate_sinkhole(sinkhole(rank=1), true_rank=3)
        with pytest.raises(InvalidConfig):
            validate_sinkhole(sinkhole(rank=3), true_rank=3)


class TestFlooder:
    def test_count_is_rate_times_window(self):
        flooder = FlooderBehavior(attack_start_s=0.0, rreq_rate_per_s=10.0)
        assert rreq_count_in_window(0.0, 2.0, 0.0, flooder) == 20

    def test_empty_window(self):
        flooder = FlooderBehavior(attack_start_s=0.0, rreq_rate_per_s=10.0)
        assert rreq_count_in_window(5.0, 5.0, 1.0, flooder) == 0
        assert rreq_count_in_window(6.0, 5.0, 1.0, flooder) == 0

    def test_window_before_attack_counts_benign_only(self):
        flooder = FlooderBehavior(attack_start_s=50.0, rreq_rate_per_s=10.0)
        assert rreq_count_in_window(10.0, 11.0, 1.0, flooder) == 1

    def test_window_straddling_attack_start(self):
        flooder = FlooderBehavior(attack_start_s=10.5, rreq_rate_per_s=10.0)
        # benign 1/s over [10, 11) plus storm over [10.5, 11)
        assert rreq_count_in_window(10.0, 11.0, 1.0, flooder) == 1 + 5

    def test_window_fully_inside_attack(self):
        flooder = FlooderBehavior(attack_start_s=0.0, rreq_rate_per_s=10.0)
        assert rreq_count_in_window(20.0, 21.0, 1.0, flooder) == 11

    def test_benign_node_has_no_storm(self):
        assert rreq_count_in_window(0.0, 1.0, 1.0, None) == 1

    def test_rate_not_above_benign_rejected_at_config_load(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(attack_type="flooder", malicious_fraction=0.1,
                           benign_rreq_rate_per_s=10.0, flooder_rreq_rate_per_s=10.0)
