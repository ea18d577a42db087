"""Adversary behaviors: the rank-lying sinkhole and the RREQ flooder.

A sinkhole advertises a fake (smaller) rank to attract upward traffic and
then drops or corrupts the data packets routed through it. A flooder
emits route-solicitation (RREQ) control packets far above the benign
rate. Neither adversary forges reports or blacklist broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidConfig

DATA_DROPPED = "dropped"
DATA_ALTERED = "altered"


@dataclass(frozen=True, slots=True)
class SinkholeBehavior:
    node_id: int
    attack_start_s: float
    attack_interval_s: float
    advertised_rank: int = 0
    data_plane: str = "drop"  # "drop" | "alter"


@dataclass(frozen=True, slots=True)
class FlooderBehavior:
    attack_start_s: float
    rreq_rate_per_s: float


def validate_sinkhole(behavior: SinkholeBehavior, true_rank: int) -> None:
    """The advertised rank must undercut the node's true rank, otherwise
    the DIO is not a lie and the scenario is misconfigured."""
    if behavior.advertised_rank >= true_rank:
        raise InvalidConfig(
            "sinkhole %d advertises rank %d but its true rank is %d"
            % (behavior.node_id, behavior.advertised_rank, true_rank)
        )


def sinkhole_handle_data(behavior: SinkholeBehavior, packet) -> str:
    """Drop mode swallows the packet; alter mode corrupts it and lets it
    travel on. Either way it can never count as correctly delivered."""
    if behavior.data_plane == "alter":
        packet.corrupted = True
        return DATA_ALTERED
    return DATA_DROPPED


def rreq_count_in_window(
    window_start: float,
    window_end: float,
    benign_rate_per_s: float,
    flooder: FlooderBehavior | None = None,
) -> int:
    """RREQ emissions of one node over [window_start, window_end).

    Benign nodes solicit routes at a steady configured rate; a flooder
    adds its storm rate for the part of the window past its attack start.
    The benign and storm counts are each rounded per window.
    """
    if window_end <= window_start:
        return 0
    count = round(benign_rate_per_s * (window_end - window_start))
    if flooder is not None:
        active = window_end - max(window_start, flooder.attack_start_s)
        if active > 0:
            count += round(flooder.rreq_rate_per_s * active)
    return count
