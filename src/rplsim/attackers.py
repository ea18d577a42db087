"""Adversary behaviors: the rank-lying sinkhole and the RREQ flooder.

A sinkhole advertises a fake (smaller) rank to attract upward traffic and
then drops or corrupts the data packets routed through it. A flooder
emits route-solicitation (RREQ) control packets far above the benign
rate. Neither adversary forges reports or blacklist broadcasts. Their
parameters live in ``ScenarioConfig``; the engine applies them, and checks
in setup that a sinkhole's forged rank undercuts its true one. This module
counts the RREQs a node emits over a span the model gives, not the clock.
"""

from __future__ import annotations


def rreq_count(seconds: float, rate_per_s: float) -> int:
    """RREQ emissions at ``rate_per_s`` over ``seconds``, rounded: a node's
    benign RREQs over one hello period, or a flooder's storm over the part
    of the period past its attack start, rounded on its own."""
    return round(rate_per_s * seconds)
