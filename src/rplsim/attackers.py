"""Adversary behaviors: the rank-lying sinkhole and the RREQ flooder.

A sinkhole advertises a fake (smaller) rank to attract upward traffic and
then drops or corrupts the data packets routed through it. A flooder
emits route-solicitation (RREQ) control packets far above the benign
rate. Neither adversary forges reports or blacklist broadcasts. Their
parameters live in ``ScenarioConfig``; the engine applies them, and checks
in setup that a sinkhole's forged rank undercuts its true one. This module
counts the RREQs a node emits.
"""

from __future__ import annotations


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
