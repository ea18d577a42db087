"""Deterministic discrete-event simulator of a simplified RPL IoT network
with rank-anomaly and RREQ-flood sinkhole detection."""

from .engine import Engine, RunTranscript, run
from .errors import (
    ConnectivityFailure,
    EngineStall,
    InvalidAlpha,
    InvalidConfig,
    NoParentAvailable,
    RplSimError,
    UnknownNeighbor,
)
from .metrics import (
    ConfusionMatrix,
    aggregate_rows,
    audit_conservation,
    confusion_from_transcript,
    detection_rates,
    pdr,
    plr,
    summarize_run,
    throughput,
)
from .scenario import MobilitySpec, ScenarioConfig, TrafficSpec, load_scenario, preset
from .topology import Topology, generate_topology

__version__ = "0.1.0"

__all__ = [
    "ConfusionMatrix",
    "ConnectivityFailure",
    "Engine",
    "EngineStall",
    "InvalidAlpha",
    "InvalidConfig",
    "MobilitySpec",
    "NoParentAvailable",
    "RplSimError",
    "RunTranscript",
    "ScenarioConfig",
    "Topology",
    "TrafficSpec",
    "UnknownNeighbor",
    "aggregate_rows",
    "audit_conservation",
    "confusion_from_transcript",
    "detection_rates",
    "generate_topology",
    "load_scenario",
    "pdr",
    "plr",
    "preset",
    "run",
    "summarize_run",
    "throughput",
]
