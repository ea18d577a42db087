"""Adversary behaviors: the rank-lying sinkhole and the RREQ flooder.

A sinkhole advertises a fake (smaller) rank to attract upward traffic and
then drops or corrupts the data packets routed through it. A flooder
emits route-solicitation (RREQ) control packets far above the benign
rate. Neither adversary forges reports or blacklist broadcasts. Their
parameters live in ``ScenarioConfig``; the engine applies them.
"""

from __future__ import annotations

from .errors import InvalidConfig


def validate_sinkhole(node_id: int, advertised_rank: int, true_rank: int) -> None:
    """The advertised rank must undercut the node's true rank, otherwise
    the DIO is not a lie and the scenario is misconfigured."""
    if advertised_rank >= true_rank:
        raise InvalidConfig(
            "sinkhole %d advertises rank %d but its true rank is %d"
            % (node_id, advertised_rank, true_rank)
        )


def rreq_count_in_window(
    window_start: float,
    window_end: float,
    benign_rate_per_s: float,
    storm_rate_per_s: float = 0.0,
    storm_start_s: float = 0.0,
) -> int:
    """RREQ emissions of one node over [window_start, window_end).

    Benign nodes solicit routes at a steady configured rate; a flooder
    adds its storm rate for the part of the window past its attack start.
    The benign and storm counts are each rounded per window.
    """
    if window_end <= window_start:
        return 0
    count = round(benign_rate_per_s * (window_end - window_start))
    if storm_rate_per_s:
        active = window_end - max(window_start, storm_start_s)
        if active > 0:
            count += round(storm_rate_per_s * active)
    return count
