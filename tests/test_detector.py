import math
import random
import statistics
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import AptState, chain_topology, handle, star_topology
from rplsim.detector import (
    BENIGN,
    MALICIOUS_FLOOD,
    MALICIOUS_RANK,
    adaptive_threshold,
)
from rplsim.engine import Engine
from rplsim.errors import InvalidConfig
from rplsim.scenario import ScenarioConfig


class TestRankKernels:
    # dv_rank is one hop under hop-count ranks: the verdict row's dv cell
    # and the trace's receiver_dv, which is None without a parent.
    def test_dv_rank_of_node_four_parent_three_is_one(self):
        eng, receive = dio_receiver()
        node = eng.nodes[4]
        assert (node.rank, node.parent, eng.nodes[3].rank) == (4, 3, 3)
        assert receive(4)[0][4] == 1
        assert last_dio_rx(eng)[6] == 1

    def test_dv_rank_without_parent(self):
        # Node 4's only other neighbor is its own child, so blacklisting its
        # parent orphans it.
        eng, receive = dio_receiver()
        eng._blacklist(11.0, eng.nodes[4], 3)
        assert eng.nodes[4].parent is None
        receive(4)
        assert last_dio_rx(eng)[6] is None

    # di_rank is the verdict row's di cell for a DIO at a detector.
    def test_di_rank_honest_neighbor(self):
        _, receive = dio_receiver()
        assert receive(3)[0][5] == 1

    def test_di_rank_fake_root_claim(self):
        _, receive = dio_receiver()
        assert receive(0)[0][5] == 4

    def test_di_rank_zero(self):
        eng, receive = dio_receiver()
        assert eng.nodes[0].rank == 0
        assert receive(0, receiver=0)[0][5] == 0


def dio_receiver():
    """Node 4 of the chain 0-1-2-3-4-5: rank 4, parent 3, traced. Returns
    the engine and receive(adv, receiver=4) -> the verdict rows one DIO
    from the receiver's child advertising ``adv`` adds, through the
    engine's reception path."""
    cfg = ScenarioConfig(node_count=6, duration_s=30.0, attack_start_s=10.0, seed=1)
    eng = Engine(cfg, topology=chain_topology(6), record_events=True)

    def receive(adv, receiver=4):
        before = len(eng.verdicts)
        handle(eng, Engine._on_dio_rx, 12.0, (receiver,), receiver + 1, adv)
        return eng.verdicts[before:]

    return eng, receive


def last_dio_rx(eng):
    return next(e for e in reversed(eng.evlog) if e[0] == "dio_rx")


class TestClassifyDio:
    def test_fake_root_claim_is_malicious(self):
        eng, receive = dio_receiver()
        [row] = receive(0)
        assert row[3] == MALICIOUS_RANK
        assert 5 in eng.nodes[4].blacklist

    def test_boundary_equality_is_benign(self):
        eng, receive = dio_receiver()
        [row] = receive(3)  # di == dv == 1
        assert row[3] == BENIGN
        assert not eng.nodes[4].blacklist

    def test_smaller_gap_is_benign(self):
        _, receive = dio_receiver()
        [row] = receive(4)  # di 0 < dv 1
        assert row[3] == BENIGN

    def test_missing_dv_rank(self):
        # An orphan has no parent gap; its gaps are scored against DV_RANK, 1.
        eng, receive = dio_receiver()
        eng._blacklist(11.0, eng.nodes[4], 3)
        assert receive(5)[0][3:6] == (BENIGN, 1, 1)
        assert receive(2)[0][3:6] == (MALICIOUS_RANK, 1, 2)

    def test_evidence_is_attached(self):
        _, receive = dio_receiver()
        [row] = receive(1)
        assert row == (12.0, 4, 5, MALICIOUS_RANK, 1, 3, None, None)


class TestAptState:
    # The per-sender [slow, fast] cells the engine keeps, fed through its
    # hello reception path.
    def test_first_sample_is_the_average(self):
        _, feed = hello_receiver(alpha_low=0.4, alpha_high=0.4)
        assert feed(3, 7) == [7.0, 7.0]

    def test_alpha_one_forgets_history(self):
        _, feed = hello_receiver(alpha_low=1.0, alpha_high=1.0)
        for x in (9, 2, 5):
            cell = feed(3, x)
        assert cell == [5.0, 5.0]

    def test_recursion_hand_computed(self):
        _, feed = hello_receiver(alpha_low=0.5, alpha_high=0.5)
        feed(1, 2)  # s = 2
        assert feed(1, 4) == [3.0, 3.0]  # 0.5*4 + 0.5*2

    def test_alpha_out_of_range(self):
        for track in ("alpha_low", "alpha_high"):
            for alpha in (0.0, 1.2):
                with pytest.raises(InvalidConfig, match=track):
                    ScenarioConfig(**{track: alpha})

    def test_constant_input_is_fixed_point(self):
        _, feed = hello_receiver(alpha_low=0.3, alpha_high=0.3)
        for _ in range(40):
            cell = feed(2, 6)
        assert cell == [6.0, 6.0]

    def test_average_stays_within_sample_range(self):
        rng = random.Random(5)
        for _ in range(100):
            _, feed = hello_receiver(alpha_low=rng.uniform(0.05, 1.0),
                                     alpha_high=rng.uniform(0.05, 1.0))
            xs = [rng.uniform(0, 20) for _ in range(rng.randint(1, 30))]
            for x in xs:
                cell = feed(1, x)
            assert all(min(xs) - 1e-12 <= s <= max(xs) + 1e-12 for s in cell)

    def test_per_neighbor_independence(self):
        eng, feed = hello_receiver(alpha_low=0.5, alpha_high=0.5)
        feed(1, 10)
        feed(2, 0)
        assert eng.nodes[1].apt == [10.0, 10.0]
        assert eng.nodes[2].apt == [0.0, 0.0]

    def test_unknown_neighbor(self):
        # A neighbor never heard has no average yet.
        eng, feed = hello_receiver()
        feed(1, 3)
        assert eng.nodes[2].apt is None


def moments(samples):
    return len(samples), sum(samples), sum(x * x for x in samples)


class TestAdaptiveThreshold:
    def test_needs_two_samples(self):
        assert adaptive_threshold(*moments([])) is None
        assert adaptive_threshold(*moments([4])) is None

    def test_mean_plus_three_sigma(self):
        samples = [1, 1, 1, 5]
        mean = 2.0
        var = (3 * 1.0 + 9.0) / 4
        assert adaptive_threshold(*moments(samples)) == pytest.approx(mean + 3 * var ** 0.5)

    def test_constant_samples_give_their_value(self):
        assert adaptive_threshold(*moments([2] * 10)) == 2.0

    def test_same_bits_on_every_interpreter(self):
        assert adaptive_threshold(*moments([1] * 24 + [0] * 3)) == 1.8316979304709522
        # Python 3.10's statistics gives 0.9124895309221834 here.
        assert adaptive_threshold(*moments([1] + [0] * 11)) == 0.9124895309221833

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.pstdev is correctly rounded from Python 3.11")
    @settings(max_examples=500)
    @given(st.lists(st.integers(0, 12) | st.integers(0, 2 ** 53), min_size=2, max_size=80))
    @example([1] * 24 + [0] * 3)
    @example([1] + [0] * 11)
    def test_matches_statistics_bit_for_bit(self, samples):
        # Up to 2**53 every count is exact as a float, as fmean needs.
        expected = statistics.fmean(samples) + 3 * statistics.pstdev(samples)
        assert adaptive_threshold(*moments(samples)) == expected


def hello_receiver(alpha_low=0.3, alpha_high=0.8, threshold="adaptive"):
    """The root of a 4-leaf star, fed hellos through the engine's reception
    path. Returns the engine and feed(sender, count, warmup) -> the
    sender's [slow, fast] cell."""
    cfg = ScenarioConfig(node_count=5, alpha_low=alpha_low, alpha_high=alpha_high,
                         apt_threshold=threshold, duration_s=20.0, attack_start_s=10.0)
    eng = Engine(cfg, topology=star_topology(4))

    def feed(sender, count, warmup=False):
        handle(eng, Engine._on_hello_rx, 5.0 if warmup else 15.0, (0,), sender, count)
        return eng.nodes[sender].apt

    return eng, feed


class TestNodeDetector:
    def test_dual_tracks_converge_to_constant(self):
        _, feed = hello_receiver(alpha_low=0.3, alpha_high=0.8)
        for _ in range(30):
            s_low, s_high = feed(4, 5)
        assert s_low == pytest.approx(5.0)
        assert s_high == pytest.approx(5.0)

    def test_zero_input_converges_to_zero(self):
        _, feed = hello_receiver(0.3, 0.8)
        for _ in range(10):
            s_low, s_high = feed(4, 0)
        assert s_low == 0.0 and s_high == 0.0

    def test_alternating_counts_stay_inside_envelope(self):
        _, feed = hello_receiver(0.5, 0.5)
        values = []
        for t in range(40):
            values.append(feed(4, 10 if t % 2 else 0)[0])
        # after the first sample the average oscillates strictly inside (0, 10)
        assert all(0.0 < v < 10.0 for v in values[1:])
        # matches the direct recursion
        s = 0.0
        first = True
        for t in range(40):
            x = 10 if t % 2 else 0
            s = x if first else 0.5 * x + 0.5 * s
            first = False
        assert values[-1] == pytest.approx(s, rel=1e-12)

    def test_both_tracks_equal_the_single_track_reference(self):
        # Each track must match the single-track reference bit for bit.
        rng = random.Random(9)
        _, feed = hello_receiver(alpha_low=0.3, alpha_high=0.8)
        low, high = AptState(0.3), AptState(0.8)
        for _ in range(500):
            sender, count = rng.randint(1, 4), rng.randrange(12)
            assert feed(sender, count) == [low.update(sender, count),
                                           high.update(sender, count)]

    def test_calibrate_uses_warmup_samples(self):
        eng, feed = hello_receiver(0.3, 0.8)
        for _ in range(10):
            feed(4, 1, warmup=True)
        feed(4, 3)  # after the warm-up: not a calibration sample
        feed(3, 2, warmup=True)  # another neighbor's warm-up hello counts too
        assert eng.nodes[4].warmup == [10, 10, 10]
        handle(eng, Engine._on_calibrate, 10.0)
        assert eng.nodes[0].threshold == adaptive_threshold(*moments([1] * 10 + [2]))
        # Leaf 4 hears only the root, which sent no hello.
        assert eng.nodes[4].threshold is None

    def test_hello_at_the_attack_start_is_not_a_warmup_sample(self):
        # _on_calibrate, queued at setup, runs before a hello arriving at
        # the same time, so that hello is never read as a sample.
        eng, _ = hello_receiver(0.3, 0.8)
        handle(eng, Engine._on_hello_rx, 9.5, (0,), 4, 1)
        handle(eng, Engine._on_hello_rx, 10.0, (0,), 4, 7)
        assert eng.nodes[4].warmup == [1, 1, 1]

    def test_calibration_drops_the_samples(self):
        # No listener keeps samples: a sender keeps three ints, and stops
        # adding to them at the attack start.
        eng, feed = hello_receiver(0.3, 0.8)
        for _ in range(3):
            feed(4, 2, warmup=True)
        handle(eng, Engine._on_calibrate, 10.0)
        assert eng.nodes[0].threshold == 2.0
        feed(4, 5)
        assert eng.nodes[4].warmup == [3, 6, 12]

    def test_calibration_bound_matches_the_engine(self):
        # Leaf 2 of the chain 0-1-2 hears only node 1, whose hellos arrive at
        # hello_period_s + hop_latency_s and 2 * hello_period_s + hop_latency_s,
        # the bound validate_config enforces for adaptive flood thresholds.
        def leaf_threshold(attack_start_s):
            cfg = ScenarioConfig(node_count=3, duration_s=10.0,
                                 attack_start_s=attack_start_s, seed=1)
            eng = Engine(cfg, topology=chain_topology(3))
            eng.run()
            return eng.nodes[2].threshold

        bound = 2 * 1.0 + 0.005
        assert leaf_threshold(bound) is None
        assert leaf_threshold(math.nextafter(bound, math.inf)) == 1.0

    def test_fixed_threshold_not_overwritten(self):
        eng, feed = hello_receiver(0.3, 0.8, threshold=9.5)
        feed(4, 1, warmup=True)
        feed(4, 1, warmup=True)
        handle(eng, Engine._on_calibrate, 10.0)
        assert eng.nodes[0].threshold == 9.5


class TestCheckFlooding:
    def test_boundary_equality_is_benign(self):
        eng, feed = hello_receiver(alpha_high=0.5, threshold=3.0)
        # Untraced, a hello at the lowest threshold of its listeners does not
        # visit them: the listener's blacklist is never read.
        eng.nodes[0].blacklist = listener = mock.MagicMock()
        feed(4, 3)
        feed(4, 3)
        assert eng.verdicts == []
        assert listener.mock_calls == []

    def test_exceeding_threshold_is_malicious(self):
        eng, feed = hello_receiver(alpha_high=1.0, threshold=5.0)
        feed(4, 12)
        assert eng.verdicts == [(15.0, 0, 4, MALICIOUS_FLOOD, None, None, 12.0, 5.0)]
        assert 4 in eng.nodes[0].blacklist

    def test_fixed_threshold_flags_during_the_warmup(self):
        # A fixed threshold is frozen at setup, so an untraced warm-up hello
        # above it is not skipped.
        eng, feed = hello_receiver(alpha_high=0.5, threshold=2.5)
        feed(4, 9, warmup=True)
        assert eng.verdicts == [(5.0, 0, 4, MALICIOUS_FLOOD, None, None, 9.0, 2.5)]
        assert 4 in eng.nodes[0].blacklist

    def test_unknown_neighbor(self):
        # A neighbor never heard before starts at its first count, so one
        # hello above the threshold flags it at once.
        eng, feed = hello_receiver(alpha_high=0.5, threshold=5.0)
        assert eng.nodes[4].apt is None
        feed(4, 12)
        assert [row[3] for row in eng.verdicts] == [MALICIOUS_FLOOD]
