"""Experiment configuration: scenario schema, named presets, config file parsing.

A scenario is described either by a named preset (``scenario1`` ..
``scenario4``, plus ``*_small`` desk-scale variants) or by a plain-text
file of ``key = value`` lines using the field names of
:class:`ScenarioConfig`. Unknown keys are an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import isfinite, pi, ulp
from typing import Optional, Union

from .errors import InvalidConfig

ATTACK_TYPES = ("sinkhole", "flooder")
DATA_PLANES = ("drop", "alter")
TRAFFIC_SOURCES = ("benign", "all")

# Cap on the timer firings a config may schedule (validate_config). Full
# scenario3 is about 1.2e6, so the cap leaves a margin of 80x; without it a
# typo such as attack_interval_s = 1e-6 (1.5e11 forged DIOs) would hang the
# run instead of failing it.
MAX_TIMER_FIRINGS = 1e8

# Topology generation places the nodes up to MAX_CONNECTIVITY_ATTEMPTS times
# and tests at most every pair each time: only the pairs in the same or
# touching grid cells, and all of them only when tx_range covers the area. So
# MAX_PAIR_TESTS bounds the work from above. Full scenario3 is at most 1.25e7 pair
# tests (80x below MAX_PAIR_TESTS; about 2.5 s at 5e6 tests/s) and about
# 1.6e4 expected links (64x below MAX_EXPECTED_LINKS). Without the caps a
# node_count of 20000 would spend minutes placing nodes, and a dense area
# would hold millions of links before the first event.
MAX_CONNECTIVITY_ATTEMPTS = 100
MAX_PAIR_TESTS = 1e9
MAX_EXPECTED_LINKS = 1e6

# A scenario file is read up to this many characters, so a path such as
# /dev/zero fails instead of filling memory. Real files are under 2 KB.
MAX_SCENARIO_CHARS = 1 << 20


@dataclass(frozen=True)
class TrafficSpec:
    """Constant-bit-rate upward traffic: every source sends one packet to
    the root every ``period_s`` seconds, starting at t=0."""

    period_s: float = 1.0
    sources: str = "benign"  # "benign": non-attacker non-roots; "all": every node, root too


@dataclass(frozen=True)
class ScenarioConfig:
    node_count: int = 500
    area: tuple[float, float] = (100.0, 100.0)
    tx_range: float = 20.0
    malicious_fraction: float = 0.0
    attack_interval_s: float = 1.0
    duration_s: float = 1000.0
    packet_size_bytes: int = 512
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    dio_period_s: float = 10.0
    hello_period_s: float = 1.0
    alpha_low: float = 0.3
    alpha_high: float = 0.8
    apt_threshold: Union[str, float] = "adaptive"
    detection_enabled: bool = True
    seed: int = 1
    # Adversary knobs surfaced through the scenario schema.
    attack_type: str = "sinkhole"
    attack_start_s: Optional[float] = None  # None: 10% of duration_s
    sinkhole_advertised_rank: int = 0
    sinkhole_data_plane: str = "drop"
    benign_rreq_rate_per_s: float = 1.0
    flooder_rreq_rate_per_s: float = 10.0
    # Engine constants.
    hop_latency_s: float = 0.005
    packet_timeout_s: float = 5.0
    packet_ttl: int = 64

    def __post_init__(self):
        validate_config(self)

    def resolved_attack_start(self) -> float:
        if self.attack_start_s is not None:
            return self.attack_start_s
        return 0.1 * self.duration_s


def validate_config(cfg: ScenarioConfig) -> None:
    def bad(msg):
        raise InvalidConfig(msg)

    # NaN passes every comparison below; an infinity gives a meaningless run.
    values = [(f.name, getattr(cfg, f.name)) for f in fields(cfg)]
    values += [("area", x) for x in cfg.area] + [("traffic", cfg.traffic.period_s)]
    for key, value in values:
        if isinstance(value, float) and not isfinite(value):
            bad("%s must be finite, got %r" % (key, value))
    if cfg.node_count < 2:
        bad("node_count must be >= 2")
    if not 0.0 <= cfg.malicious_fraction < 1.0:
        bad("malicious_fraction must be in [0, 1)")
    # duration 0 is allowed as a degenerate no-op run.
    if cfg.duration_s < 0:
        bad("duration_s must be >= 0")
    if cfg.area[0] <= 0 or cfg.area[1] <= 0:
        bad("area dimensions must be > 0")
    if cfg.traffic.period_s <= 0:
        bad("traffic period must be > 0")
    if cfg.traffic.sources not in TRAFFIC_SOURCES:
        bad("traffic sources must be one of %s" % (TRAFFIC_SOURCES,))
    for name in ("tx_range", "packet_size_bytes", "dio_period_s", "hello_period_s",
                 "attack_interval_s", "flooder_rreq_rate_per_s", "hop_latency_s",
                 "packet_timeout_s"):
        if getattr(cfg, name) <= 0:
            bad("%s must be > 0" % name)
    for name in ("alpha_low", "alpha_high"):
        a = getattr(cfg, name)
        if not 0.0 < a <= 1.0:
            bad("%s must be in (0, 1]" % name)
    if isinstance(cfg.apt_threshold, str):
        if cfg.apt_threshold != "adaptive":
            bad("apt_threshold must be 'adaptive' or a number")
    elif cfg.apt_threshold < 0:
        bad("apt_threshold must be >= 0")
    if cfg.attack_type not in ATTACK_TYPES:
        bad("attack_type must be one of %s" % (ATTACK_TYPES,))
    if cfg.attack_start_s is not None and cfg.attack_start_s < 0:
        bad("attack_start_s must be >= 0")
    if cfg.sinkhole_advertised_rank < 0:
        bad("sinkhole_advertised_rank must be >= 0")
    if cfg.sinkhole_data_plane not in DATA_PLANES:
        bad("sinkhole_data_plane must be one of %s" % (DATA_PLANES,))
    if cfg.benign_rreq_rate_per_s < 0:
        bad("benign_rreq_rate_per_s must be >= 0")
    if (
        cfg.attack_type == "flooder"
        and cfg.malicious_fraction > 0
        and cfg.flooder_rreq_rate_per_s <= cfg.benign_rreq_rate_per_s
    ):
        bad("flooder_rreq_rate_per_s must exceed benign_rreq_rate_per_s")
    if cfg.hop_latency_s < ulp(cfg.duration_s):  # or t + hop_latency_s may round to t
        bad("hop_latency_s (%r) is below the float spacing at duration_s (%r), %r: a message "
            "would arrive at its send time" % (cfg.hop_latency_s, cfg.duration_s,
                                                ulp(cfg.duration_s)))
    if cfg.packet_ttl < 1:
        bad("packet_ttl must be >= 1")
    if cfg.seed < 0:  # random.Random seeds with abs(n): seed -5 would replay seed 5
        bad("seed must be >= 0")
    # An adaptive flood threshold is calibrated at the attack start from the
    # hellos each listener heard before it; with fewer than two it is None
    # and flood detection is off. The second hello leaves at
    # 2 * hello_period_s and arrives one hop later; one arriving at the
    # start itself is handled after the calibration.
    start = cfg.resolved_attack_start()
    second_hello = 2 * cfg.hello_period_s + cfg.hop_latency_s
    if (cfg.attack_type == "flooder" and cfg.detection_enabled
            and cfg.apt_threshold == "adaptive" and start < cfg.duration_s
            and not second_hello < start):
        bad("attack_start_s (%r) must be after 2 * hello_period_s + hop_latency_s (%r) "
            "to calibrate the adaptive flood threshold; start the attack later or "
            "lower hello_period_s" % (start, second_hello))
    attackers = round(cfg.malicious_fraction * cfg.node_count)
    if attackers > cfg.node_count - 1:
        bad("malicious_fraction (%r) asks for %d attackers among only %d non-root nodes"
            % (cfg.malicious_fraction, attackers, cfg.node_count - 1))
    # Upper bound on the hello, DIO, traffic and forged-DIO timers a run fires.
    per_node = 1 / cfg.hello_period_s + 1 / cfg.dio_period_s + 1 / cfg.traffic.period_s
    firings = cfg.duration_s * (cfg.node_count * per_node + attackers / cfg.attack_interval_s)
    if not firings <= MAX_TIMER_FIRINGS:
        bad("the config schedules about %.3g timer firings, over the cap of %.0e; "
            "lengthen the periods or attack_interval_s, or shorten duration_s"
            % (firings, MAX_TIMER_FIRINGS))
    pairs = cfg.node_count * (cfg.node_count - 1) / 2
    if not MAX_CONNECTIVITY_ATTEMPTS * pairs <= MAX_PAIR_TESTS:
        bad("placing %d nodes may take up to %.3g pair tests, over the cap of %.0e; "
            "lower node_count" % (cfg.node_count, MAX_CONNECTIVITY_ATTEMPTS * pairs,
                                  MAX_PAIR_TESTS))
    # Two uniform nodes are in range with probability about pi r^2 / area
    # (less near the border). Float ** overflows where * gives inf.
    links = pairs * min(1.0, pi * cfg.tx_range * cfg.tx_range / (cfg.area[0] * cfg.area[1]))
    if not links <= MAX_EXPECTED_LINKS:
        bad("the topology would hold about %.3g links, over the cap of %.0e; "
            "lower node_count or tx_range, or enlarge the area"
            % (links, MAX_EXPECTED_LINKS))


# Named presets. scenario1..3 differ in sinkhole rate (10/20/30%); scenario4
# is the sweep base (30% sinkholes, attack interval swept via the CLI).
# The *_small variants scale down to desk size so full suites run in seconds.
_PRESET_BASE = dict(node_count=500, area=(100.0, 100.0), duration_s=1000.0)
_SMALL = dict(node_count=100, duration_s=200.0)

PRESETS: dict[str, dict] = {
    "scenario1": dict(_PRESET_BASE, malicious_fraction=0.10),
    "scenario2": dict(_PRESET_BASE, malicious_fraction=0.20),
    "scenario3": dict(_PRESET_BASE, malicious_fraction=0.30),
    "scenario4": dict(_PRESET_BASE, malicious_fraction=0.30),
}
PRESETS.update(
    {name + "_small": dict(params, **_SMALL) for name, params in list(PRESETS.items())}
)


def preset(name: str, **overrides) -> ScenarioConfig:
    """Build a named preset configuration, optionally overriding fields."""
    try:
        params = PRESETS[name]
    except KeyError:
        raise InvalidConfig(
            "unknown scenario preset %r (known: %s)" % (name, ", ".join(sorted(PRESETS)))
        )
    return ScenarioConfig(**{**params, **overrides})


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _scalar(convert, expected):
    """A parser of one value by ``convert``, which raises KeyError or
    ValueError on a bad one."""
    def parse(key, raw):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise InvalidConfig("%s: expected %s, got %r" % (key, expected, raw))
    return parse


_parse_int = _scalar(int, "an integer")
_parse_float = _scalar(float, "a number")
_parse_bool = _scalar(lambda raw: _BOOL_WORDS[raw.lower()], "a boolean")


def _parse_area(key, raw):
    parts = raw.lower().replace("*", "x").split("x")
    if len(parts) != 2:
        raise InvalidConfig("%s: expected WIDTHxHEIGHT, got %r" % (key, raw))
    return (_parse_float(key, parts[0].strip()), _parse_float(key, parts[1].strip()))


def _parse_traffic(key, raw):
    # "cbr <period_s> [benign|all]"
    parts = raw.split()
    if not parts or parts[0].lower() != "cbr":
        raise InvalidConfig("%s: expected 'cbr <period_s> [sources]', got %r" % (key, raw))
    period = _parse_float(key, parts[1]) if len(parts) > 1 else 1.0
    sources = parts[2].lower() if len(parts) > 2 else "benign"
    if len(parts) > 3:
        raise InvalidConfig("%s: trailing tokens in %r" % (key, raw))
    return TrafficSpec(period_s=period, sources=sources)


def _parse_threshold(key, raw):
    if raw.lower() == "adaptive":
        return "adaptive"
    return _parse_float(key, raw)


# A key's parser comes from the declared type of its ScenarioConfig field
# (a string under postponed annotations), so every field is a key; a field of
# a type not listed here fails at import.
_TYPE_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": lambda key, raw: raw.lower(),
    "tuple[float, float]": _parse_area,
    "TrafficSpec": _parse_traffic,
    "Union[str, float]": _parse_threshold,
    "Optional[float]": lambda key, raw: (
        None if raw.lower() in ("auto", "none") else _parse_float(key, raw)),
}
_KEY_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ScenarioConfig)}


def parse_value(key: str, raw: str):
    """Parse ``raw`` as a scenario-file value of ``key``, a field of
    ScenarioConfig; a bad value raises InvalidConfig naming the key."""
    return _KEY_PARSERS[key](key, raw)


def parse_scenario_text(text: str) -> ScenarioConfig:
    """Parse ``key = value`` scenario text into a ScenarioConfig.

    Blank lines and lines starting with ``#`` are ignored. Unknown keys
    raise InvalidConfig naming the key.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidConfig("line %d: expected 'key = value', got %r" % (lineno, line))
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_PARSERS:
            raise InvalidConfig("unknown config key %r (line %d)" % (key, lineno))
        if key in values:
            raise InvalidConfig("duplicate config key %r (line %d)" % (key, lineno))
        values[key] = parse_value(key, raw)
    return ScenarioConfig(**values)


def load_scenario(source: str) -> ScenarioConfig:
    """Load a scenario from a preset name or a config file path."""
    if source in PRESETS:
        return preset(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_SCENARIO_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig("cannot read scenario %r: %s" % (source, exc))
    if len(text) > MAX_SCENARIO_CHARS:
        raise InvalidConfig("cannot read scenario %r: over %d characters"
                            % (source, MAX_SCENARIO_CHARS))
    return parse_scenario_text(text)
