import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

NAN = float("nan")
INF = float("inf")

from rplsim.errors import ConnectivityFailure, InvalidConfig
from rplsim.scenario import (
    MAX_SCENARIO_CHARS,
    PRESETS,
    ScenarioConfig,
    TrafficSpec,
    load_scenario,
    parse_scenario_text,
    preset,
)
from rplsim.topology import generate_topology


# The fields validate_config checks with its one "> 0" loop.
POSITIVE_FIELDS = ("tx_range", "packet_size_bytes", "dio_period_s", "hello_period_s",
                   "attack_interval_s", "flooder_rreq_rate_per_s", "hop_latency_s",
                   "packet_timeout_s")

# Rows of test_invariant_violations_rejected, after the others so that
# their ids keep their indices, each with the start of its message.
MESSAGE_ROWS = [
    ("sinkhole_advertised_rank", -1, "sinkhole_advertised_rank must be >= 0"),
    ("benign_rreq_rate_per_s", -1.0, "benign_rreq_rate_per_s must be >= 0"),
    ("attack_start_s", -1.0, "attack_start_s must be >= 0"),
    ("apt_threshold", -1.0, "apt_threshold must be >= 0"),
    ("apt_threshold", "fixed", "apt_threshold must be 'adaptive' or a number"),
    ("traffic", TrafficSpec(sources="bogus"), "traffic sources must be one of"),
    ("area", (0.0, 40.0), "area dimensions must be > 0"),
    ("traffic", TrafficSpec(period_s=0.0), "traffic period must be > 0"),
]
MESSAGES = {(field, value): "^" + re.escape(message) for field, value, message in MESSAGE_ROWS}


def dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.node_count == 500
        assert cfg.area == (100.0, 100.0)
        assert cfg.tx_range == 20.0
        assert cfg.packet_size_bytes == 512
        assert cfg.duration_s == 1000.0
        assert cfg.traffic == TrafficSpec(1.0, "benign")

    @pytest.mark.parametrize("field,value", [
        ("node_count", 1),
        ("tx_range", 0.0),
        ("malicious_fraction", -0.1),
        ("malicious_fraction", 1.0),
        ("alpha_low", 0.0),
        ("alpha_high", 1.5),
        ("duration_s", -1.0),
        ("packet_size_bytes", 0),
        ("attack_type", "wormhole"),
        ("sinkhole_data_plane", "mangle"),
        ("packet_ttl", 0),
        # NaN passes every range comparison; non-finite floats are rejected
        # up front, nested ones included.
        ("hop_latency_s", NAN),
        ("hop_latency_s", INF),
        ("attack_start_s", NAN),
        ("packet_timeout_s", NAN),
        ("apt_threshold", NAN),
        ("apt_threshold", INF),
        ("benign_rreq_rate_per_s", NAN),
        ("tx_range", NAN),
        ("alpha_high", NAN),
        ("area", (NAN, 40.0)),
        ("traffic", TrafficSpec(period_s=NAN)),
        ("seed", -5),  # random.Random seeds with abs(n): -5 would replay seed 5
        # tx_range and packet_size_bytes at 0 are above.
        ("dio_period_s", 0),
        ("hello_period_s", 0),
        ("attack_interval_s", 0),
        ("flooder_rreq_rate_per_s", 0),
        ("hop_latency_s", 0),
        ("packet_timeout_s", 0),
    ] + [(field, value) for field, value, _ in MESSAGE_ROWS])
    def test_invariant_violations_rejected(self, field, value):
        positive = field in POSITIVE_FIELDS and value == 0
        match = field + " must be > 0" if positive else field
        match = MESSAGES.get((field, value), match)
        with pytest.raises(InvalidConfig, match=match):
            ScenarioConfig(**{field: value})

    def test_flooder_rate_must_exceed_benign_rate(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(attack_type="flooder", malicious_fraction=0.1,
                           benign_rreq_rate_per_s=2.0, flooder_rreq_rate_per_s=2.0)
        # No attackers: the cross-check does not apply.
        ScenarioConfig(attack_type="flooder", malicious_fraction=0.0,
                       benign_rreq_rate_per_s=2.0, flooder_rreq_rate_per_s=2.0)

    def test_timer_budget_rejects_a_runaway_attack_interval(self):
        with pytest.raises(InvalidConfig, match="1.5e\\+11 timer firings"):
            preset("scenario3", attack_interval_s=1e-6)

    def test_topology_caps_reject_a_huge_node_count(self):
        with pytest.raises(InvalidConfig, match="2e\\+10 pair tests"):
            ScenarioConfig(node_count=20000, duration_s=0.5)

    def test_topology_caps_reject_a_dense_area(self):
        with pytest.raises(InvalidConfig, match="4.5e\\+06 links"):
            ScenarioConfig(node_count=3000, area=(10.0, 10.0), duration_s=0.5)

    def test_topology_caps_admit_six_times_the_paper_scale(self):
        preset("scenario3", node_count=3000, duration_s=10.0)

    def test_more_attackers_than_non_root_nodes_rejected(self):
        # round(0.9 * 4) = 4 attackers, but only 3 nodes are not the root.
        with pytest.raises(InvalidConfig, match="malicious_fraction"):
            ScenarioConfig(node_count=4, malicious_fraction=0.9)
        ScenarioConfig(node_count=4, malicious_fraction=0.75)  # 3 attackers

    def test_attack_start_auto_is_tenth_of_duration(self):
        assert ScenarioConfig(duration_s=1000.0).resolved_attack_start() == 100.0
        assert ScenarioConfig(attack_start_s=3.0).resolved_attack_start() == 3.0

    def test_adaptive_flood_threshold_needs_two_warmup_hellos(self):
        # The second hello is heard at 2 * hello_period_s + hop_latency_s;
        # one heard at the attack start itself comes after the calibration.
        bound = 2 * 1.0 + 0.005
        with pytest.raises(InvalidConfig, match="attack_start_s.*hello_period_s"):
            ScenarioConfig(attack_type="flooder", attack_start_s=bound)
        ScenarioConfig(attack_type="flooder", attack_start_s=math.nextafter(bound, math.inf))
        bound = 2 * 0.3 + 0.02
        with pytest.raises(InvalidConfig, match="attack_start_s.*hello_period_s"):
            ScenarioConfig(attack_type="flooder", hello_period_s=0.3, hop_latency_s=0.02,
                           attack_start_s=bound)
        ScenarioConfig(attack_type="flooder", hello_period_s=0.3, hop_latency_s=0.02,
                       attack_start_s=math.nextafter(bound, math.inf))
        # An automatic start at 10% of a 20 s run is 2 s, too early.
        with pytest.raises(InvalidConfig, match="attack_start_s.*hello_period_s"):
            ScenarioConfig(attack_type="flooder", duration_s=20.0)

    def test_early_start_is_fine_without_an_adaptive_flood_threshold(self):
        for overrides in (dict(attack_type="sinkhole"), dict(detection_enabled=False),
                          dict(apt_threshold=2.5), dict(duration_s=0.5)):
            ScenarioConfig(**{"attack_type": "flooder", "attack_start_s": 0.5, **overrides})


class TestPresets:
    def test_sinkhole_rates_match_scenario_table(self):
        assert preset("scenario1").malicious_fraction == 0.10
        assert preset("scenario2").malicious_fraction == 0.20
        assert preset("scenario3").malicious_fraction == 0.30

    def test_full_scale_presets(self):
        for name in ("scenario1", "scenario2", "scenario3", "scenario4"):
            cfg = preset(name)
            assert cfg.node_count == 500
            assert cfg.area == (100.0, 100.0)
            assert cfg.duration_s == 1000.0
            assert cfg.tx_range == 20.0
            assert cfg.packet_size_bytes == 512

    def test_small_presets_are_desk_scale(self):
        for name in PRESETS:
            if name.endswith("_small"):
                cfg = preset(name)
                assert cfg.node_count == 100
                assert cfg.duration_s == 200.0

    def test_every_preset_is_within_the_timer_budget(self):
        for name in PRESETS:
            preset(name)  # validates, the timer budget and topology caps included

    def test_unknown_preset(self):
        with pytest.raises(InvalidConfig):
            preset("scenario99")


# One non-default value per ScenarioConfig field: its text in a scenario
# file and the value it must parse to.
FIELD_TEXTS = {
    "node_count": ("50", 50),
    "area": ("80 x 60", (80.0, 60.0)),
    "tx_range": ("25", 25.0),
    "malicious_fraction": ("0.2", 0.2),
    "attack_interval_s": ("2.5", 2.5),
    "duration_s": ("500", 500.0),
    "packet_size_bytes": ("1024", 1024),
    "traffic": ("CBR 2.0 All", TrafficSpec(2.0, "all")),
    "dio_period_s": ("5", 5.0),
    "hello_period_s": ("0.5", 0.5),
    "alpha_low": ("0.2", 0.2),
    "alpha_high": ("0.9", 0.9),
    "apt_threshold": ("4.5", 4.5),
    "detection_enabled": ("No", False),
    "seed": ("0", 0),
    "attack_type": ("Flooder", "flooder"),
    "attack_start_s": ("3.5", 3.5),
    "sinkhole_advertised_rank": ("2", 2),
    "sinkhole_data_plane": ("ALTER", "alter"),
    "benign_rreq_rate_per_s": ("0.5", 0.5),
    "flooder_rreq_rate_per_s": ("20", 20.0),
    "hop_latency_s": ("0.01", 0.01),
    "packet_timeout_s": ("2.5", 2.5),
    "packet_ttl": ("16", 16),
}


class TestScenarioText:
    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)])
    def test_every_field_round_trips(self, name):
        text, value = FIELD_TEXTS[name]
        default = ScenarioConfig()
        assert getattr(default, name) != value
        # Comment lines, blank lines and the spaces around a line are skipped.
        cfg = parse_scenario_text("  # %s\n\n  %s = %s  \n" % (name, name, text))
        assert cfg == replace(default, **{name: value})
        assert type(getattr(cfg, name)) is type(value)
        if name == "area":
            assert all(type(x) is float for x in cfg.area)

    @pytest.mark.parametrize("line", ["attack_start_s = Auto", "attack_start_s = none",
                                      "apt_threshold = ADAPTIVE"])
    def test_words_for_a_default(self, line):
        assert parse_scenario_text(line) == ScenarioConfig()

    def test_readme_key_table_names_every_field(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("Keys and defaults:", 1)[1].split("\n\n", 2)[1]
        keys = [key for row in table.splitlines()[2:]
                for key in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert sorted(keys) == sorted(f.name for f in fields(ScenarioConfig))

    def test_unknown_key_is_an_error_naming_the_key(self):
        with pytest.raises(InvalidConfig, match="frobnicate"):
            parse_scenario_text("frobnicate = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InvalidConfig, match="duplicate"):
            parse_scenario_text("seed = 1\nseed = 2\n")

    def test_bad_value_rejected(self):
        for line in ("node_count = many", "tx_range = far", "detection_enabled = maybe"):
            key = line.split()[0]
            with pytest.raises(InvalidConfig, match=key + ": expected "):
                parse_scenario_text(line + "\n")

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("node_count = 20\narea = 50x50\nseed = 5\n")
        cfg = load_scenario(str(path))
        assert cfg.node_count == 20
        assert cfg.seed == 5

    def test_load_scenario_size_limit(self, tmp_path):
        path = tmp_path / "big.cfg"
        text = "seed = 5\n"
        path.write_text(text + "#" * (MAX_SCENARIO_CHARS - len(text)))
        assert load_scenario(str(path)).seed == 5
        path.write_text(text + "#" * (MAX_SCENARIO_CHARS - len(text) + 1))
        message = "cannot read scenario %r: over %d characters" % (str(path), MAX_SCENARIO_CHARS)
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            load_scenario(str(path))

    def test_load_scenario_preset_name(self):
        assert load_scenario("scenario3_small").malicious_fraction == 0.30


class TestGenerateTopology:
    def test_two_nodes_in_small_area_are_adjacent(self):
        cfg = ScenarioConfig(node_count=2, area=(10.0, 10.0), tx_range=20.0,
                             malicious_fraction=0.0, duration_s=1.0, seed=1)
        topo = generate_topology(cfg)
        assert topo.adjacency[0] == (1,)
        assert topo.adjacency[1] == (0,)
        assert topo.attacker_set == frozenset()

    def test_attacker_count_is_rounded_fraction(self):
        cfg = ScenarioConfig(node_count=500, malicious_fraction=0.30, seed=11)
        topo = generate_topology(cfg)
        assert len(topo.attacker_set) == 150  # round(0.30 * 500)

    def test_same_seed_same_topology(self):
        cfg = ScenarioConfig(node_count=120, malicious_fraction=0.2, seed=42)
        assert generate_topology(cfg) == generate_topology(cfg)

    def test_different_seed_different_positions(self):
        a = generate_topology(ScenarioConfig(node_count=50, seed=1))
        b = generate_topology(ScenarioConfig(node_count=50, seed=2))
        assert a.positions != b.positions

    def test_unit_disk_rule(self):
        cfg = ScenarioConfig(node_count=80, malicious_fraction=0.1, seed=9)
        topo = generate_topology(cfg)
        for i in range(topo.node_count):
            neigh = set(topo.adjacency[i])
            assert i not in neigh
            for j in range(topo.node_count):
                if j == i:
                    continue
                within = dist(topo.positions[i], topo.positions[j]) <= cfg.tx_range
                assert (j in neigh) == within
                # symmetry
                assert (j in neigh) == (i in set(topo.adjacency[j]))

    def test_root_is_nearest_center_and_not_attacker(self):
        cfg = ScenarioConfig(node_count=60, malicious_fraction=0.3, seed=4)
        topo = generate_topology(cfg)
        center = (cfg.area[0] / 2, cfg.area[1] / 2)
        d_root = dist(topo.positions[topo.root_id], center)
        assert all(dist(p, center) >= d_root for p in topo.positions)
        assert topo.root_id not in topo.attacker_set

    def test_positions_inside_area(self):
        cfg = ScenarioConfig(node_count=70, area=(40.0, 90.0), seed=8)
        topo = generate_topology(cfg)
        assert all(0 <= x <= 40 and 0 <= y <= 90 for x, y in topo.positions)

    def test_sparse_parameters_fail_connectivity(self):
        cfg = ScenarioConfig(node_count=40, area=(1000.0, 1000.0), tx_range=5.0, seed=1)
        with pytest.raises(ConnectivityFailure):
            generate_topology(cfg)
