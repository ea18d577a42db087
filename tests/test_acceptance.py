"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to watch).

The heavyweight fixture sweeps the 30%-sinkhole desk scenario across the
attack-interval axis once and shares the rows between the trend criteria.
"""

import random
import time
from collections import defaultdict
from statistics import fmean

import pytest

from rplsim.engine import Engine, run
from rplsim.metrics import audit_conservation, summarize_run
from rplsim.scenario import ScenarioConfig, preset

from conftest import handle, rank_rule_oracle, topology_from_edges
from test_metrics import hand_transcript

INTERVALS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
SEEDS = list(range(1, 11))


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = " -- " + detail if detail else ""
    print("[acceptance] criterion %d (%s): %s%s" % (number, name, status, suffix))
    assert ok, "criterion %d (%s) failed: %s" % (number, name, detail)


@pytest.fixture(scope="module")
def interval_sweep():
    """scenario3_small swept over the attack interval, detection on and
    off, 10 seeds each; every run conservation-audited on the spot."""
    rows = {True: defaultdict(list), False: defaultdict(list)}
    audited = 0
    t0 = time.perf_counter()
    for interval in INTERVALS:
        for seed in SEEDS:
            cfg = preset("scenario3_small", seed=seed, attack_interval_s=interval)
            tr = run(cfg)
            audit_conservation(tr)
            audited += 1
            rows[True][interval].append(summarize_run(tr, "scenario3_small"))
    on_elapsed = time.perf_counter() - t0
    for interval in INTERVALS:
        for seed in SEEDS:
            cfg = preset("scenario3_small", seed=seed, attack_interval_s=interval,
                         detection_enabled=False)
            tr = run(cfg)
            audit_conservation(tr)
            audited += 1
            rows[False][interval].append(summarize_run(tr, "scenario3_small"))
    return {"rows": rows, "on_elapsed": on_elapsed, "audited": audited}


class TestCriterion1ZeroFalsePositives:
    def test_attack_free_network_is_never_flagged(self):
        t0 = time.perf_counter()
        flagged_nodes = 0
        nonbenign_verdicts = 0
        total_verdicts = 0
        for seed in SEEDS:
            cfg = ScenarioConfig(node_count=100, duration_s=200.0,
                                 malicious_fraction=0.0, seed=seed)
            tr = run(cfg)
            flagged_nodes += len(tr.root_blacklist)
            total_verdicts += len(tr.verdicts)
            nonbenign_verdicts += sum(1 for v in tr.verdicts if v[3] != "benign")
        elapsed = time.perf_counter() - t0
        report(
            1, "zero false positives in attack-free runs",
            flagged_nodes == 0 and nonbenign_verdicts == 0 and elapsed < 10.0,
            "fp=%d, non-benign=%d of %d verdicts, runtime %.1fs (<10s)"
            % (flagged_nodes, nonbenign_verdicts, total_verdicts, elapsed),
        )


def constructed_sinkhole_cases():
    chain_leaf = topology_from_edges(
        5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)], root_id=0, attackers=(4,))
    two_arms = topology_from_edges(
        6, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 5), (4, 5)], root_id=0, attackers=(5,))
    double = topology_from_edges(
        7, [(0, 1), (1, 3), (3, 4), (4, 2), (2, 5), (5, 1), (5, 6), (6, 4)],
        root_id=0, attackers=(2, 3))
    tree = topology_from_edges(
        9, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (4, 7), (5, 8), (6, 8)],
        root_id=0, attackers=(7, 8))
    return [chain_leaf, two_arms, double, tree]


class TestCriterion2GuaranteedDetection:
    def test_every_rank_zero_sinkhole_detected(self):
        failures = []
        cases = 0
        for topo in constructed_sinkhole_cases():
            cfg = ScenarioConfig(node_count=topo.node_count, duration_s=40.0,
                                 attack_start_s=10.0, seed=1)
            tr = run(cfg, topology=topo, record_events=True)
            cases += 1
            flagged, predictions = rank_rule_oracle(tr.events, topo.attacker_set)
            # every engine verdict must match the oracle's independent ruling
            for t, receiver, sender, kind, *_ in tr.verdicts:
                if kind in ("benign", "malicious_rank"):
                    if predictions.get((t, receiver, sender)) != kind:
                        failures.append("verdict mismatch at %r" % ((t, receiver, sender),))
            if flagged != set(topo.attacker_set):
                failures.append("oracle flagged %r, attackers %r"
                                % (sorted(flagged), sorted(topo.attacker_set)))
            row = summarize_run(tr)
            if row["dr_pct"] != 100.0 or tr.root_blacklist != topo.attacker_set:
                failures.append("DR %r on %d-node case" % (row["dr_pct"], topo.node_count))
        report(2, "guaranteed sinkhole detection on constructed topologies",
               not failures, failures[0] if failures else "%d cases, DR=100%% exactly" % cases)


class TestCriterion3DetectionRateTrend:
    def test_mean_dr_non_decreasing_and_high(self, interval_sweep):
        rows = interval_sweep["rows"][True]
        means = {i: fmean(r["dr_pct"] for r in rows[i]) for i in INTERVALS}
        ordered = [means[i] for i in INTERVALS]
        non_decreasing = all(b >= a - 1e-9 for a, b in zip(ordered, ordered[1:]))
        ok = (non_decreasing and means[0.5] >= 89.0 and means[4.0] >= 90.0
              and interval_sweep["on_elapsed"] < 120.0)
        report(3, "detection rate vs attack interval",
               ok,
               "mean DR %.1f@0.5s (>=89) .. %.1f@4s (>=90), non-decreasing=%s, "
               "sweep runtime %.0fs (<120s)"
               % (means[0.5], means[4.0], non_decreasing, interval_sweep["on_elapsed"]))


class TestCriterion4DeliveryGain:
    def test_detection_recovers_delivery_ratio(self, interval_sweep):
        on = interval_sweep["rows"][True]
        off = interval_sweep["rows"][False]
        diffs = {
            i: fmean(r["pdr_pct"] for r in on[i]) - fmean(r["pdr_pct"] for r in off[i])
            for i in INTERVALS
        }
        worst = min(diffs.values())
        report(4, "PDR gain from detection at 30% sinkholes",
               worst >= 10.0,
               "min over intervals of mean PDR(on)-PDR(off) = %.1f pp (>=10)" % worst)


class TestCriterion5MetricIdentities:
    def test_identities_and_throughput_arithmetic(self):
        problems = []
        cfgs = [
            ScenarioConfig(node_count=40, area=(60.0, 60.0), duration_s=40.0, seed=2),
            ScenarioConfig(node_count=40, area=(60.0, 60.0), duration_s=40.0, seed=3,
                           malicious_fraction=0.2),
            ScenarioConfig(node_count=40, area=(60.0, 60.0), duration_s=40.0, seed=4,
                           malicious_fraction=0.2, detection_enabled=False),
        ]
        for cfg in cfgs:
            row = summarize_run(run(cfg))
            if abs(row["pdr_pct"] + row["plr_pct"] - 100.0) > 1e-9:
                problems.append("pdr+plr != 100 for seed %d" % cfg.seed)
            if row["dr_pct"] is not None:
                if abs(row["dr_pct"] + row["fnr_pct"] - 100.0) > 1e-9:
                    problems.append("dr+fnr != 100 for seed %d" % cfg.seed)
        thr = summarize_run(hand_transcript(delivered=1000, duration=1000.0,
                                            packet_size=512))["throughput_kbps"]
        if abs(thr - 4.096) > 1e-9:
            problems.append("hand-built throughput %r != 4.096" % thr)
        report(5, "metric identities", not problems,
               problems[0] if problems else
               "pdr+plr=100, dr+fnr=100, 1000x512B/1000s -> %.3f kbps" % thr)


def ewma_closed_form(alpha, xs):
    t = len(xs)
    s = (1.0 - alpha) ** (t - 1) * xs[0]
    for k in range(2, t + 1):
        s += alpha * (1.0 - alpha) ** (t - k) * xs[k - 1]
    return s


def engine_ewma(alpha, xs):
    """Feed ``xs`` as node 1's hello counts through the engine's reception
    path at its neighbor, the root, and return node 1's [slow, fast]
    average, both tracks with smoothing factor ``alpha``."""
    cfg = ScenarioConfig(node_count=2, alpha_low=alpha, alpha_high=alpha,
                         duration_s=20.0, attack_start_s=10.0)
    eng = Engine(cfg, topology=topology_from_edges(2, [(0, 1)], root_id=0))
    for x in xs:
        handle(eng, Engine._on_hello_rx, 15.0, (0,), 1, x)
    return eng.nodes[1].apt


class TestCriterion6EwmaOracle:
    def test_iterative_matches_closed_form(self):
        rng = random.Random(20240405)
        worst = 0.0
        for _ in range(1000):
            alpha = rng.uniform(0.01, 1.0)
            xs = [rng.uniform(0.0, 100.0) for _ in range(rng.randint(1, 50))]
            expected = ewma_closed_form(alpha, xs)
            for iterative in engine_ewma(alpha, xs):
                rel = abs(iterative - expected) / max(1.0, abs(expected))
                worst = max(worst, rel)
        fixed_point_exact = True
        for _ in range(100):
            c = rng.uniform(0.0, 50.0)
            alpha = rng.uniform(0.01, 1.0)
            if engine_ewma(alpha, [c] * rng.randint(1, 40)) != [c, c]:
                fixed_point_exact = False
        report(6, "EWMA closed-form oracle",
               worst <= 1e-12 and fixed_point_exact,
               "worst relative error %.2e (<=1e-12), constant input exact=%s"
               % (worst, fixed_point_exact))


class TestCriterion7FlooderDetection:
    def test_flooder_blacklisted_fast_and_no_benign_flagged(self):
        failures = []
        for seed in SEEDS:
            cfg = ScenarioConfig(node_count=25, area=(60.0, 60.0), tx_range=20.0,
                                 malicious_fraction=0.04, attack_type="flooder",
                                 benign_rreq_rate_per_s=1.0,
                                 flooder_rreq_rate_per_s=10.0,
                                 duration_s=100.0, seed=seed)
            tr = run(cfg)
            flooders = tr.topology.attacker_set
            assert len(flooders) == 1
            deadline = tr.cfg.resolved_attack_start() + 5 * cfg.hello_period_s
            flood_verdicts = [v for v in tr.verdicts if v[3] == "malicious_flood"]
            first = min((v[0] for v in flood_verdicts), default=None)
            if not flooders <= tr.root_blacklist:
                failures.append("seed %d: flooder not blacklisted" % seed)
            elif first is None or first > deadline:
                failures.append("seed %d: first verdict at %r, deadline %r"
                                % (seed, first, deadline))
            if tr.root_blacklist - flooders:
                failures.append("seed %d: benign flagged %r"
                                % (seed, sorted(tr.root_blacklist - flooders)))
            wrong = [v for v in tr.verdicts
                     if v[3] != "benign" and v[2] not in flooders]
            if wrong:
                failures.append("seed %d: verdicts against benign %r" % (seed, wrong[:2]))
        report(7, "flooder detection under adaptive threshold",
               not failures,
               failures[0] if failures else
               "10 seeds, blacklisted within 5 hello periods, zero benign flagged")


class TestCriterion8Determinism:
    def test_cli_replay_is_byte_identical(self, tmp_path):
        from rplsim.cli import main
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = main(["run", "--scenario", "scenario2_small", "--seed", "7",
                         "--trace", "--out", str(out)])
            assert code == 0
        same = all(
            (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            for name in ("results.csv", "verdicts.csv", "trace.ndjson")
        )
        report(8, "byte-identical replay", same,
               "results.csv, verdicts.csv and trace.ndjson identical across runs")


class TestCriterion9Conservation:
    def test_every_packet_has_exactly_one_fate(self, interval_sweep):
        extra = [
            ScenarioConfig(node_count=30, area=(60.0, 60.0), duration_s=40.0, seed=8,
                           malicious_fraction=0.2, sinkhole_data_plane="alter"),
            ScenarioConfig(node_count=25, area=(60.0, 60.0), duration_s=60.0, seed=9,
                           malicious_fraction=0.04, attack_type="flooder"),
            ScenarioConfig(node_count=10, area=(30.0, 30.0), duration_s=0.0, seed=1),
        ]
        audited = interval_sweep["audited"]
        for cfg in extra:
            tr = run(cfg)
            audit_conservation(tr)
            assert tr.emitted == tr.delivered + sum(tr.drops.values())
            audited += 1
        report(9, "packet conservation", True,
               "%d runs audited: emitted == delivered + sum(drops)" % audited)
