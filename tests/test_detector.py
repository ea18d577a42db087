import random

import pytest

from conftest import star_topology
from rplsim.detector import (
    BENIGN,
    MALICIOUS_FLOOD,
    MALICIOUS_RANK,
    AptState,
    RankEvidence,
    adaptive_threshold,
    check_flooding,
    classify_dio,
    compute_di_rank,
    compute_dv_rank,
    update_apt_rreq,
)
from rplsim.engine import Engine
from rplsim.errors import InvalidAlpha, MissingDvRank, NoParent, UnknownNeighbor
from rplsim.scenario import ScenarioConfig


def rank_evidence(dv, di):
    return RankEvidence(dv_rank=dv, di_rank=di, sender_id=1, receiver_id=2, time_s=0.0)


class TestRankKernels:
    def test_dv_rank_of_node_four_parent_three_is_one(self):
        assert compute_dv_rank(4, 3) == 1

    def test_dv_rank_equal_ranks(self):
        assert compute_dv_rank(5, 5) == 0

    def test_dv_rank_is_absolute(self):
        assert compute_dv_rank(2, 5) == 3

    def test_dv_rank_without_parent(self):
        with pytest.raises(NoParent):
            compute_dv_rank(4, None)

    def test_di_rank_honest_neighbor(self):
        assert compute_di_rank(4, 3) == 1

    def test_di_rank_fake_root_claim(self):
        assert compute_di_rank(4, 0) == 4

    def test_di_rank_zero(self):
        assert compute_di_rank(0, 0) == 0


class TestClassifyDio:
    def test_fake_root_claim_is_malicious(self):
        assert classify_dio(rank_evidence(dv=1, di=4)).kind == MALICIOUS_RANK

    def test_boundary_equality_is_benign(self):
        assert classify_dio(rank_evidence(dv=1, di=1)).kind == BENIGN

    def test_smaller_gap_is_benign(self):
        assert classify_dio(rank_evidence(dv=2, di=1)).kind == BENIGN

    def test_missing_dv_rank(self):
        with pytest.raises(MissingDvRank):
            classify_dio(rank_evidence(dv=None, di=1))

    def test_evidence_is_attached(self):
        verdict = classify_dio(rank_evidence(dv=1, di=3))
        assert verdict.malicious
        assert verdict.evidence.di_rank == 3


class TestAptState:
    def test_first_sample_is_the_average(self):
        apt = AptState(alpha=0.4)
        assert update_apt_rreq(apt, 7, 7) == 7.0

    def test_alpha_one_forgets_history(self):
        apt = AptState(alpha=1.0)
        for x in (9, 2, 5):
            s = apt.update(3, x)
        assert s == 5.0

    def test_recursion_hand_computed(self):
        apt = AptState(alpha=0.5)
        apt.update(1, 2)  # s = 2
        assert apt.update(1, 4) == 3.0  # 0.5*4 + 0.5*2

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidAlpha):
            AptState(alpha=0.0)
        with pytest.raises(InvalidAlpha):
            AptState(alpha=1.2)

    def test_constant_input_is_fixed_point(self):
        apt = AptState(alpha=0.3)
        for _ in range(40):
            s = apt.update(2, 6)
        assert s == 6.0

    def test_average_stays_within_sample_range(self):
        rng = random.Random(5)
        for _ in range(100):
            apt = AptState(alpha=rng.uniform(0.05, 1.0))
            xs = [rng.uniform(0, 20) for _ in range(rng.randint(1, 30))]
            for x in xs:
                s = apt.update(0, x)
            assert min(xs) - 1e-12 <= s <= max(xs) + 1e-12

    def test_per_neighbor_independence(self):
        apt = AptState(alpha=0.5)
        apt.update(1, 10)
        apt.update(2, 0)
        assert apt.value(1) == 10.0
        assert apt.value(2) == 0.0

    def test_unknown_neighbor(self):
        apt = AptState(alpha=0.5)
        with pytest.raises(UnknownNeighbor):
            apt.value(42)


class TestCheckFlooding:
    def test_boundary_equality_is_benign(self):
        apt = AptState(alpha=0.5)
        apt.update(7, 3.0)
        assert check_flooding(apt, 7, 3.0).kind == BENIGN

    def test_exceeding_threshold_is_malicious(self):
        apt = AptState(alpha=1.0)
        apt.update(7, 12.4)
        verdict = check_flooding(apt, 7, 5.0)
        assert verdict.kind == MALICIOUS_FLOOD
        assert verdict.evidence.apt_value == 12.4

    def test_unknown_neighbor(self):
        with pytest.raises(UnknownNeighbor):
            check_flooding(AptState(alpha=0.5), 7, 1.0)


class TestAdaptiveThreshold:
    def test_needs_two_samples(self):
        assert adaptive_threshold([]) is None
        assert adaptive_threshold([4.0]) is None

    def test_mean_plus_three_sigma(self):
        samples = [1.0, 1.0, 1.0, 5.0]
        mean = 2.0
        var = (3 * 1.0 + 9.0) / 4
        assert adaptive_threshold(samples) == pytest.approx(mean + 3 * var ** 0.5)

    def test_constant_samples_give_their_value(self):
        assert adaptive_threshold([2.0] * 10) == 2.0


def hello_receiver(alpha_low=0.3, alpha_high=0.8, threshold="adaptive"):
    """The root of a 4-leaf star, fed hellos through the engine's reception
    path. Returns its detector and feed(sender, count, warmup) -> the
    sender's [slow, fast] cell."""
    cfg = ScenarioConfig(node_count=5, alpha_low=alpha_low, alpha_high=alpha_high,
                         apt_threshold=threshold, duration_s=20.0, attack_start_s=10.0)
    eng = Engine(cfg, topology=star_topology(4))
    det = eng.nodes[0].det

    def feed(sender, count, warmup=False):
        eng._on_hello_rx(5.0 if warmup else 15.0, 0, sender, count)
        return det.apt[sender]

    return det, feed


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
        # Criterion 6 checks AptState; the engine's cells must match it
        # bit for bit.
        rng = random.Random(9)
        _, feed = hello_receiver(alpha_low=0.3, alpha_high=0.8)
        low, high = AptState(0.3), AptState(0.8)
        for _ in range(500):
            sender, count = rng.randint(1, 4), rng.randrange(12)
            assert feed(sender, count) == [low.update(sender, count),
                                           high.update(sender, count)]

    def test_calibrate_uses_warmup_samples(self):
        det, feed = hello_receiver(0.3, 0.8)
        for _ in range(10):
            feed(4, 1, warmup=True)
        feed(4, 3)  # after the warm-up: not a calibration sample
        assert det.calibrate() == 1.0

    def test_fixed_threshold_not_overwritten(self):
        det, feed = hello_receiver(0.3, 0.8, threshold=9.5)
        feed(4, 1, warmup=True)
        assert det.calibrate() == 9.5
