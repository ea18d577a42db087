import pytest

from conftest import chain_topology, topology_from_edges
from rplsim.engine import Engine, RunTranscript, run
from rplsim.metrics import aggregate_rows, audit_conservation, summarize_run
from rplsim.scenario import ScenarioConfig


def hand_transcript(delivered=1000, duration=1000.0, packet_size=512,
                    emitted=None, attackers=(), blacklist=(), node_count=4):
    """Transcript assembled by hand, independent of the engine."""
    cfg = ScenarioConfig(node_count=node_count, duration_s=duration,
                         packet_size_bytes=packet_size, malicious_fraction=0.0)
    topo = topology_from_edges(node_count, [(0, i) for i in range(1, node_count)],
                                root_id=0, attackers=attackers)
    emitted = delivered if emitted is None else emitted
    return RunTranscript(cfg=cfg, topology=topo, end_time_s=duration, emitted=emitted,
                         delivered=delivered, root_blacklist=frozenset(blacklist))


def run_row(emitted, delivered, **kwargs):
    """summarize_run of a hand-built transcript, as the CLI writes it."""
    return summarize_run(hand_transcript(delivered=delivered, emitted=emitted, **kwargs),
                         scenario="x")


def across_runs(*runs):
    """aggregate_rows over hand-built (emitted, delivered) runs of one configuration."""
    [agg] = aggregate_rows([run_row(e, d) for e, d in runs])
    return agg


class TestPdrPlr:
    def test_all_delivered(self):
        assert run_row(100, 100)["pdr_pct"] == 100.0

    def test_direct_ratio(self):
        assert run_row(200, 150)["pdr_pct"] == 75.0

    def test_mean_of_per_run_ratios(self):
        # (100% + 50%) / 2, not the pooled ratio 250/400
        agg = across_runs((100, 100), (300, 150))
        assert agg["pdr_pct"] == 75.0
        assert agg["plr_pct"] == 25.0

    def test_plr_complement(self):
        assert run_row(200, 150)["plr_pct"] == 25.0
        assert run_row(100, 100)["plr_pct"] == 0.0
        assert run_row(100, 0)["plr_pct"] == 100.0

    def test_identity_holds(self):
        agg = across_runs((173, 120), (200, 31), (99, 99))
        assert agg["pdr_pct"] + agg["plr_pct"] == pytest.approx(100.0, abs=1e-9)

    def test_no_traffic(self):
        row = run_row(0, 0)
        assert row["pdr_pct"] is None and row["plr_pct"] is None
        assert across_runs((0, 0))["pdr_pct"] is None
        # a run that sent nothing is left out of the mean, not counted as 0%
        assert across_runs((0, 0), (200, 150))["pdr_pct"] == 75.0


def counts_row(tp, fp, tn, fn):
    """run_row of a hand-built network with the given node-level confusion
    counts: nodes 0..tp+fn-1 are attackers (the root too, if tp + fn > 0),
    and the root's blacklist names the first tp of them and fp benign nodes."""
    attackers = range(tp + fn)
    blacklist = list(range(tp)) + list(range(tp + fn, tp + fn + fp))
    return run_row(10, 10, node_count=tp + fp + tn + fn, attackers=attackers,
                   blacklist=blacklist)


class TestDetectionRates:
    def test_hand_counts(self):
        rates = counts_row(tp=98, fp=0, tn=350, fn=2)
        assert (rates["tp"], rates["fp"], rates["tn"], rates["fn"]) == (98, 0, 350, 2)
        assert rates["dr_pct"] == 98.0
        assert rates["fnr_pct"] == 2.0
        assert rates["fpr_pct"] == 0.0

    def test_dr_plus_fnr_is_100(self):
        rates = counts_row(tp=13, fp=2, tn=48, fn=7)
        assert rates["dr_pct"] + rates["fnr_pct"] == pytest.approx(100.0, abs=1e-9)

    def test_zero_denominators_are_undefined_markers(self):
        rates = counts_row(tp=0, fp=0, tn=10, fn=0)
        assert rates["dr_pct"] is None
        assert rates["fnr_pct"] is None
        rates = counts_row(tp=3, fp=0, tn=0, fn=0)
        assert rates["fpr_pct"] is None

    def test_negative_counts_rejected(self):
        # A blacklist naming ids that are not nodes: fp = 5 over 4 benign nodes.
        with pytest.raises(ValueError, match="non-negative"):
            run_row(10, 10, node_count=4, blacklist=(7, 8, 9, 10, 11))

    def test_confusion_from_transcript(self):
        row = run_row(10, 10, node_count=6, attackers=(1, 2), blacklist=(1, 4))
        assert (row["tp"], row["fp"], row["fn"], row["tn"]) == (1, 1, 1, 3)
        assert row["tp"] + row["fn"] == 2
        assert row["fp"] + row["tn"] == 4


class TestThroughput:
    def test_hand_built_transcript(self):
        # 1000 delivered 512-byte packets over 1000 s
        row = run_row(1000, 1000, duration=1000.0, packet_size=512)
        assert row["throughput_kbps"] == pytest.approx(4.096, abs=1e-9)

    def test_zero_delivered(self):
        assert run_row(10, 0)["throughput_kbps"] == 0.0

    def test_mean_idempotent_for_equal_runs(self):
        assert (across_runs((500, 500), (500, 500))["throughput_kbps"]
                == run_row(500, 500)["throughput_kbps"])
        assert across_runs((500, 500), (500, 250))["throughput_kbps"] == pytest.approx(
            0.75 * run_row(500, 500)["throughput_kbps"])

    def test_linear_in_packet_size(self):
        a = run_row(100, 100, duration=10.0, packet_size=512)["throughput_kbps"]
        b = run_row(100, 100, duration=10.0, packet_size=1024)["throughput_kbps"]
        assert b == pytest.approx(2 * a)

    def test_zero_duration(self):
        # An empty run window has no throughput: undefined, not a number.
        assert run_row(0, 0, duration=0.0)["throughput_kbps"] is None


class TestSummarizeAggregate:
    def test_zero_duration_run_has_undefined_ratios(self):
        cfg = ScenarioConfig(node_count=10, area=(30.0, 30.0), duration_s=0.0)
        row = summarize_run(run(cfg))
        assert row["pdr_pct"] is None
        assert row["throughput_kbps"] is None

    def test_aggregate_means_by_group(self):
        base = summarize_run(hand_transcript(delivered=100, emitted=100), scenario="x")
        other = dict(base, seed=2, delivered=50, pdr_pct=50.0, plr_pct=50.0,
                     throughput_kbps=base["throughput_kbps"] / 2)
        groups = aggregate_rows([base, other])
        assert len(groups) == 1
        agg = groups[0]
        assert agg["n_runs"] == 2
        assert agg["pdr_pct"] == 75.0
        assert agg["delivered"] == 75.0

    def test_aggregate_skips_undefined_values(self):
        a = summarize_run(hand_transcript(), scenario="x")
        b = dict(a, seed=2, dr_pct=None, fnr_pct=None)
        a = dict(a, dr_pct=80.0, fnr_pct=20.0)
        agg = aggregate_rows([a, b])[0]
        assert agg["dr_pct"] == 80.0

    def test_aggregate_separates_detection_toggle(self):
        a = summarize_run(hand_transcript(), scenario="x")
        b = dict(a, detection_enabled=False)
        assert len(aggregate_rows([a, b])) == 2

    def test_aggregate_lists_groups_by_value_with_undefined_last(self):
        # By text, 100 came before 20 and 10.0 before 2.0.
        a = summarize_run(hand_transcript(), scenario="x")
        rows = [dict(a, node_count=n, attack_interval_s=i)
                for n in (100, 20) for i in (10.0, 0.5, 2.0)]
        rows.append(dict(a, node_count=20, attack_interval_s=None))  # an NA cell
        assert [(g["node_count"], g["attack_interval_s"]) for g in aggregate_rows(rows)] == [
            (20, 0.5), (20, 2.0), (20, 10.0), (20, None),
            (100, 0.5), (100, 2.0), (100, 10.0)]


class TestConservationAudit:
    def test_detects_mismatched_counters(self):
        tr = run(ScenarioConfig(node_count=10, area=(30.0, 30.0), duration_s=10.0, seed=1))
        audit_conservation(tr)
        tr.delivered += 1
        with pytest.raises(ValueError):
            audit_conservation(tr)

    def test_detects_double_fate(self):
        tr = run(ScenarioConfig(node_count=10, area=(30.0, 30.0), duration_s=10.0, seed=1),
                 record_events=True)
        audit_conservation(tr)
        fates = [i for i, e in enumerate(tr.events) if e[0] == "packet_fate"]
        first, second = tr.events[fates[0]], tr.events[fates[1]]
        assert first[3] == second[3] == "delivered"
        # The first packet gets the second one's fate record too: it has two
        # fates and the second none, and the tallies still equal the counters.
        tr.events[fates[1]] = second[:2] + (first[2],) + second[3:]
        with pytest.raises(ValueError, match="exactly one fate"):
            audit_conservation(tr)

    def test_detects_lost_packet(self):
        class LosingEngine(Engine):
            def _forward(self, node, pkt, t, rx_t):
                if pkt.hops < 2:  # lost at its third hop, neither queued nor ended
                    super()._forward(node, pkt, t, rx_t)

        cfg = ScenarioConfig(node_count=4, duration_s=10.0, seed=1)
        tr = LosingEngine(cfg, topology=chain_topology(4)).run()
        assert tr.emitted == 30 and tr.delivered == 20  # node 3 emits 10, all lost
        with pytest.raises(ValueError, match="conservation violated"):
            audit_conservation(tr)
