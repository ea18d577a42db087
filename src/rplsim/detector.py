"""Detection engine: rank-anomaly classification of DIOs plus EWMA-based
RREQ flood detection, with blacklist/report side effects driven by the
event engine.

Two rank features decide whether an incoming DIO is irrational:

* ``dv_rank``: |parent rank - own rank|, stored when the routing table is
  created or updated;
* ``di_rank``: |advertised rank in the DIO - own rank|, computed per
  incoming DIO.

A DIO is malicious iff di_rank > dv_rank (strict). Flood detection keeps
two exponentially weighted moving averages of per-neighbor RREQ counts
(a slow track for general observation, a fast track that drives the
verdict) and flags a neighbor whose average strictly exceeds a threshold.
"""

from __future__ import annotations

import statistics
from typing import Optional

BENIGN = "benign"
MALICIOUS_RANK = "malicious_rank"
MALICIOUS_FLOOD = "malicious_flood"


def compute_di_rank(node_rank: int, sender_advertised_rank: int) -> int:
    """Rank gap between a node and the rank advertised in an incoming DIO."""
    return abs(sender_advertised_rank - node_rank)


def adaptive_threshold(samples) -> Optional[float]:
    """mean + 3 * population stddev of warm-up RREQ counts; None when there
    are not enough samples to calibrate (flood detection then stays off,
    which validate_config rules out for flooder runs)."""
    if len(samples) < 2:
        return None
    return statistics.fmean(samples) + 3.0 * statistics.pstdev(samples)


class NodeDetector:
    """Detector state owned by one node: calibration samples, flood
    threshold, and report duplicate-suppression. The dual EWMA tracks of a
    neighbor are the same at every listener, so the engine keeps them once
    per hello sender."""

    __slots__ = ("warmup_samples", "threshold", "reported")

    def __init__(self, threshold: Optional[float] = None):
        self.warmup_samples: list[float] = []
        self.threshold = threshold
        self.reported: set[int] = set()

    def calibrate(self) -> Optional[float]:
        """Freeze the adaptive threshold from warm-up samples (no-op when a
        fixed threshold was configured), then drop the samples."""
        if self.threshold is None:
            self.threshold = adaptive_threshold(self.warmup_samples)
        self.warmup_samples = None
        return self.threshold
