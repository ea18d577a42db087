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


def rreq_count_in_window(window_start: float, window_end: float, rate_per_s: float) -> int:
    """RREQ emissions at ``rate_per_s`` over [window_start, window_end),
    rounded per window; 0 for an empty window.

    A benign node emits at the benign rate over each hello window. A
    flooder adds the count at its storm rate over the part of the window
    past its attack start, rounded on its own.
    """
    if window_end <= window_start:
        return 0
    return round(rate_per_s * (window_end - window_start))
